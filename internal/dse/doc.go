// Package dse implements the paper's §III design-space exploration of
// "Brawny and Wimpy" datacenter inference accelerators: the Table I
// constraint set, the (X, N, Tx, Ty) sweep with automatic pruning, the
// chip-level analysis of Fig. 8, and the runtime performance/efficiency
// study of Figs. 9-10 (paired with the perfsim performance simulator).
//
// # Pipeline
//
// The sweep is a pipeline of pure stages. EnumerateCtx (or
// EnumerateParallel) builds every design point under the constraints and
// keeps the feasible ones in one candidate order (peak TOPS descending,
// then X descending, then tiles ascending), which every later stage keeps;
// SecondRound narrows the set the way the paper does before the runtime
// study (Frontier's doc comment argues why the paper's per-bin Fig. 8
// frontier would prune nothing more, so only its sort remains);
// RuntimeStudyHardened simulates each surviving candidate over the
// workload models under one batch regime, and Fig10Hardened under the
// three Fig. 10 regimes in one pass; Winner ranks the rows by a metric
// (ByAchievedTOPS, ByTOPSPerWatt, ...); FormatRuntimeRows and
// RuntimeRowsCSV render them. cmd/dse drives the whole pipeline per paper
// figure.
//
// # Concurrency contract
//
// Candidate evaluations are independent, so both enumeration
// (EnumerateParallel) and the runtime study (Hardening.Workers) fan work
// across a bounded goroutine pool. The engine is deterministic by
// construction: results are collected by candidate index, not completion
// order — so the formatted tables and CSV output are identical at every
// worker count, including a serial run. Workers <= 1 runs inline on the
// caller's goroutine (the historical serial path); otherwise each worker
// claims the next candidate index in turn. See DESIGN.md §9 and §14.
//
// A study over caller-owned graphs (RuntimeStudyHardened, Fig10Hardened)
// prepares them once per call (perfsim.Prepare), and only when some row
// is missing from the result store. The bundled workloads have one
// process-wide memo of prepared copies, BundledWorkloads, keyed by name
// and alias: NewStudy and EdgeStudy read it, as do neurometerd's simulate
// routes, so a Study prepares nothing after the first. A pool item is one
// candidate, which evaluates its row for every batch regime of the study.
// The rows share one pooled perfsim.Ladder per model, reset for each
// candidate, which memoizes successful simulations by power-of-two batch,
// so each (candidate, model, batch) cell is simulated once: in Fig. 10,
// regime b's latency ladder reuses regime a's batch 1 (801 simulations
// instead of 942 at Table I). Fig. 7 and Fig. 9 prepare each model once
// and simulate through Ladders too. The per-candidate hot path is
// allocation-free in the steady state; see PERFORMANCE.md.
//
// Repeated chip constructions across sweeps and figure drivers hit the
// chip.BuildCached memo; cache traffic is visible as
// chip.build_cache_hits / chip.build_cache_misses under -metrics.
//
// # Error contract
//
// Every candidate failure is classified under the guard taxonomy
// (guard.ErrInvalidConfig, ErrInfeasible, ErrNonFinite, ErrTimeout,
// ErrCanceled, ErrCandidatePanic) and absorbed: one bad candidate costs
// one row, never the sweep. A hardened study fails outright only when
// every candidate fails, or when its context is canceled — in which case
// it returns the rows completed so far alongside the classified context
// error.
//
// # Persistence
//
// Hardening.Results, the content-addressed result store (internal/rstore),
// is the one persistence layer for study rows. Every completed candidate's
// row is stored as it finishes, so an interrupted study resumes by being
// rerun with the same store: the finished candidates come back as verified
// hits and only the rest are simulated, with byte-identical output.
package dse

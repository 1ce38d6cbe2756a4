// Package perfsim is the performance simulator NeuroMeter pairs with for
// runtime analysis — the role TF-Sim ([9], unpublished) plays in the paper.
//
// It maps each layer of a computational graph onto a many-core systolic
// accelerator at tile granularity: weight tiles of X x X are distributed
// over the chip's tensor units, activations stream through (fill/drain
// modeled), partial-sum merging and activation/weight broadcast cross the
// NoC, and off-chip traffic rides the HBM roofline. The graph-level
// optimizations the paper credits to TF-Sim (Fig. 7) are implemented as
// options: Space-to-Batch, Space-to-Depth, and double buffering.
//
// The simulator deliberately stays analytical (per-layer closed forms) —
// the paper's methodology — rather than cycle-accurate.
//
// # Concurrency contract
//
// Simulate is a pure function of its inputs: it mutates neither the
// *chip.Chip (immutable after chip.Build) nor the *graph.Graph it is
// given, and keeps its working state on the stack (per-class scratch of a
// graph with more than 64 shape classes comes from a sync.Pool, one
// simulation's at a time). Any number of goroutines may therefore simulate against shared
// chips, graphs and Prepareds concurrently — this is exactly what the dse
// parallel sweep engine does — and identical inputs always produce
// bitwise-identical Results.
//
// # Shape classes
//
// Networks repeat layer shapes: ResNet-50's 72 layers have 30 distinct
// shapes, Inception-v3's 120 have 54, NASNet-A-Large's 533 have 54.
// Prepare groups layers into shape classes, keyed by everything the closed
// forms read about a layer (its prepared values, name excluded), and a
// simulation evaluates the closed forms — mapping choice, cycles, traffic,
// stream MACs, epilogue — once per class, every class up front. It then
// walks the layers in graph order and adds each layer's class values to
// running sums, in the same order a per-layer loop would, so every Result
// and LayerStat is bit-identical to evaluating each layer (pinned against
// a per-layer reference simulator by TestClassedMatchesOracle). The walk
// makes no call and no check per layer. Per-layer work runs in a separate
// pass, and only when it is wanted: the perfsim.layer injection site and a
// per-layer deadline check while any fault is armed (guard.Armed), and the
// LayerStat and perfsim.layer span of SimulateCtx's detail. Otherwise the
// deadline is checked once per simulation, before the classes are
// evaluated; a whole Fig. 10 simulation takes a few microseconds. The
// counter perfsim.layers_simulated counts layers walked,
// perfsim.layer_evals class evaluations.
//
// Every simulation reads its matrix classes' tiling terms from a Binding,
// which caches them for one Prepared on one chip — the part of a
// simulation neither the batch nor the options change — so a caller that
// simulates one (workload, chip) pair at several batches computes them
// once. A Binding rebinds itself when used with another Prepared or chip,
// and a fresh one gives the same bits as a reused one
// (TestSimulationPathsAgree).
//
// # Prepared evaluation
//
// The design-space engine asks one question many times: "this workload on
// this chip at batch b". Prepare validates a graph once and precomputes
// every chip-independent quantity once per shape class, keeping of the
// graph only its name. (*Binding).SimulateInto then runs the closed forms
// for one (chip, batch) into a caller-owned Result and allocates nothing
// in the steady state; neurometerd's simulate routes run each candidate
// that way on a pooled Binding. A Ladder is the one memo over that path:
// it holds one (Prepared, chip, Options) triple's successful simulations
// by power-of-two batch, from 1 to LatencyLimitedMaxBatch, on its own
// Binding, and runs the latency-limited search (Ladder.LatencyLimited) up
// the doubling ladder, so the dse study's batch regimes and latency ladder
// and Figs. 7 and 9 simulate each (chip, batch) once. Headline metrics are
// bit-identical to per-candidate SimulateCtx calls; per-layer LayerStat
// detail is a single-candidate feature — use SimulateCtx when Layers
// matter. See PERFORMANCE.md for the measured profile and the benchmark
// trajectory.
//
// # Error contract
//
// Simulate returns errors classified under the guard taxonomy:
// guard.ErrInvalidConfig for malformed graphs or options,
// guard.ErrInfeasible for layers the chip cannot map, guard.ErrNonFinite
// if any derived quantity leaves the finite range, and the classified
// context error (guard.ErrCanceled / guard.ErrTimeout) when SimulateCtx's
// context expires — checked once per simulation, before its closed forms
// run, so cancellation latency is one simulation (a few microseconds); in
// detail mode and while a fault is armed it is checked between layers.
package perfsim

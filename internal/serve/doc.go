// Package serve is the resilient serving layer over the NeuroMeter models:
// an HTTP service (cmd/neurometerd) exposing chip building, performance
// simulation, and whole DSE studies, each answered within its request, as
// a high-QPS evaluation oracle for outer search loops.
//
// Its failure behavior is designed, not accidental:
//
//   - Admission control. Every model endpoint sits behind a bounded work
//     queue with a per-endpoint concurrency limit and an admission
//     deadline. When the waiting room is full or the deadline passes
//     without a slot, the request is shed with 429 + Retry-After instead
//     of queueing unboundedly (serve.shed_total counts them). A negative
//     Config.QueueDepth leaves no waiting room: requests shed as soon as
//     every slot is busy.
//
//   - Deadline propagation. Per-request deadlines (30 s, tightened per
//     request via ?timeout_ms=, never loosened) ride the request context
//     into the simulations and a study's enumeration and run; expiry
//     surfaces as guard.ErrTimeout → 504 and a client disconnect as
//     guard.ErrCanceled → 499, with the kind= taxonomy in the response
//     body.
//
//   - Crash safety. Panic-recovery middleware (guard.RecoverTo) converts a
//     poisoned request into a 500 and a counter increment — never a dead
//     process. A watchdog trips /readyz into a degraded 503 after 5
//     consecutive 5xx responses and un-trips on the next success. Study
//     rows persist through the result store (Config.Results): posting
//     again a study that ran out of time, to the same server or a
//     restarted one sharing the store, reruns it byte-identically,
//     simulating only the candidates not yet stored.
//
//   - Bounded studies. POST /v1/dse/study runs dse.NewStudy and Study.Run
//     inside the request, behind the dse.study limiter (Config.StudyLimit
//     slots). The request deadline is the study's only deadline. The body
//     is checked (dse.StudySpec.Check) before the study waits for a slot,
//     so a design space of more than 4096 (X, N, grid) points, a repeated
//     X or N choice or an unknown model is refused with 400 however busy
//     the route is, and is never enumerated.
//
//   - Prepared workloads. The simulate routes read dse.BundledWorkloads,
//     the process's one memo of prepared bundled workloads, which studies
//     share, so no request rebuilds or re-prepares a graph. The
//     simulate-batch route simulates its candidates in turn on one pooled
//     perfsim.Binding into one Result, under one perfsim.simulate_batch
//     span; a candidate's failure (a config that does not build, a chip
//     without tensor units, an injected fault, a panic) costs its entry
//     only, while a negative batch or a canceled or expired request
//     fails the whole call.
//
//   - Inline config memo. Each Server maps the exact bytes of an inline
//     ChipRequest.Config to the chip apicfg.Resolve and chip.BuildCached
//     built from them, so all three model routes skip the config's JSON
//     parse and fingerprint when a client posts a config again
//     (serve.config_memo_hits / serve.config_memo_misses). Equal bytes
//     always give the same chip, because the parse is pure and a Chip is
//     immutable. Only built chips are stored; presets, parse errors and
//     build errors take the unmemoized path. It holds at most 1024
//     entries and 1 MiB of key bytes, and an insert that would pass either
//     empties it. While a guard fault is armed it is neither read nor
//     written, so injected faults reach chip.build.
//
//   - Graceful shutdown. Shutdown sequences listener close → drain of
//     in-flight requests, studies included, within the deadline → final
//     metrics snapshot.
//
// Error mapping is HTTPStatus: invalid-config 400, infeasible 422,
// timeout 504, canceled 499, non-finite/panic/other 500. See DESIGN.md §10
// and the README's Serving section for the wire contract.
package serve

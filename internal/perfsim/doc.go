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
// stream MACs, epilogue — once per class, on the class's first layer.
// It then walks the layers in graph order and adds each layer's class
// values to the running sums, in the same order a per-layer loop would,
// so every Result and LayerStat is bit-identical to evaluating each layer
// (pinned against a per-layer reference simulator by
// TestClassedMatchesOracle). The deadline check, the perfsim.layer
// injection site, and in detail mode the LayerStat and perfsim.layer span
// stay per layer. The counter perfsim.layers_simulated counts layers
// walked, perfsim.layer_evals class evaluations.
//
// # Batch evaluation
//
// The design-space engine asks one question many times: "this workload,
// this batch size, these N candidate chips". Prepare validates a graph once
// and precomputes every chip-independent quantity once per shape class,
// keeping of the graph only its name; SimulateBatch (and the lower-level
// (*Prepared).SimulateInto) then run the same closed forms over each
// candidate into pooled result scratch, so the steady state allocates
// nothing per candidate. Headline metrics are bit-identical to
// per-candidate SimulateCtx calls; per-layer LayerStat detail is a
// single-candidate feature — use SimulateCtx when Layers matter.
// BatchResults come from a sync.Pool: Release them when done and copy out
// anything that must outlive the batch. LatencyLimitedSearch runs the
// latency-limited batch search over any simulation probe, such as
// SimulateInto into caller-owned Results. See PERFORMANCE.md for the
// measured profile and the benchmark trajectory.
//
// # Error contract
//
// Simulate returns errors classified under the guard taxonomy:
// guard.ErrInvalidConfig for malformed graphs or options,
// guard.ErrInfeasible for layers the chip cannot map, guard.ErrNonFinite
// if any derived quantity leaves the finite range, and the classified
// context error (guard.ErrCanceled / guard.ErrTimeout) when SimulateCtx's
// context expires — checked between layers, so cancellation latency is one
// layer's closed-form evaluation.
package perfsim

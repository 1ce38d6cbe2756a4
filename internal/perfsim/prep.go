package perfsim

import (
	"math"

	"neurometer/internal/graph"
	"neurometer/internal/guard"
)

// Graph preparation: everything about a layer that does not depend on the
// chip being evaluated — MAC/vector-op counts, im2col GEMM dimensions,
// activation footprints, the depthwise kernel packing factor — is a pure
// function of the graph, yet the historical SimulateCtx recomputed it from
// the layer table on every call (§"where time goes" in PERFORMANCE.md: ~15%
// of a simulation). Prepare hoists that work into a read-only table computed
// once per workload, which every Binding and Ladder simulation amortizes
// across the candidates sharing the graph.
//
// Shape classes: real networks repeat layer shapes (ResNet-50's bottleneck
// blocks, NASNet-A's stacked cells), and every per-layer closed form is a
// function of the layer's layerVals alone, never of its name or position.
// Prepare therefore groups layers whose layerVals are == into one shape
// class, and a simulation evaluates the closed forms once per class, then
// walks the layers in graph order accumulating each class's values. The
// walk adds the same values in the same order as a per-layer evaluation
// would, so results are bit-identical. The class key is the whole
// layerVals, which holds no name (SimulateCtx's LayerStats take their names
// from the caller's graph): a field added to layerVals joins the key without
// further change. Every layerVals field is an exact float64 image of an
// integer (or a flag, or a kind), never NaN or -0, so float equality in the
// key is bit equality.

// layerVals is the chip-independent precomputation for one layer. All
// quantities are stored as float64 exactly as the simulator's closed forms
// consume them, so a prepared simulation performs bit-identical arithmetic
// to the unprepared path.
type layerVals struct {
	kind     graph.OpKind
	isMatrix bool
	macs     float64 // per-frame MACs
	vops     float64 // per-frame vector ops
	m0       float64 // im2col GEMM M per frame (matrix ops only)
	k0       float64 // im2col GEMM K
	n0       float64 // im2col GEMM N
	inBytes  float64 // per-frame input activation bytes
	outBytes float64 // per-frame output activation bytes
	kk       float64 // depthwise/pool effective kernel footprint
}

// Prepared is a validated workload graph reduced to what a simulation
// reads: the workload's name and weight count, each layer's shape class,
// and one layerVals row per class. It keeps no reference to the graph, so
// a long-lived holder (neurometerd keeps one per bundled workload) holds
// 138 rows for the three Fig. 10 models, not 725 layers. It is immutable
// after Prepare and safe for concurrent use by any number of goroutines —
// the dse sweep engine shares one Prepared per workload across its whole
// worker pool.
type Prepared struct {
	name   string
	params float64 // float64(g.Params()), for the weights-residency test

	// class[i] is layer i's shape class and vals[k] class k's layerVals.
	// Classes are numbered in order of first appearance, so a walk over
	// the layers in graph order first reaches class k after exactly k
	// other classes.
	class []int32
	vals  []layerVals
}

// Prepare validates g once and precomputes the quantities every simulation
// of g needs. Callers that evaluate many chips or batches against one
// workload should Prepare once and reuse it, through a Binding or a
// Ladder; SimulateCtx re-prepares on every call.
//
// Layers are classified as they are prepared, in an open-addressed hash
// table of class numbers over the layers' shape hashes, sized at least
// twice the layer count; candidates are compared as whole layerVals, so the
// hash may leave fields out but the equality never does. SimulateCtx
// prepares on every call, so this cost matters: a map keyed by layerVals
// made its ResNet-50 call about 12 µs slower than this table does
// (BenchmarkSimulateSingle).
func Prepare(g *graph.Graph) (*Prepared, error) {
	if g == nil {
		return nil, guard.Invalid("perfsim: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, guard.Invalid("perfsim: %v", err)
	}
	n := len(g.Layers)
	p := &Prepared{
		name:   g.Name,
		params: float64(g.Params()),
		class:  make([]int32, n),
		// Every bundled workload has at most 54 classes: one allocation.
		vals: make([]layerVals, 0, min(n, stackClasses)),
	}
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	table := make([]int32, 1<<bits) // class number + 1; 0 is an empty slot
	mask := len(table) - 1
	for i := range g.Layers {
		lv := prepareLayer(&g.Layers[i])
		slot := int(shapeHash(&lv) >> (64 - bits))
		for {
			k := table[slot] - 1
			if k < 0 {
				k = int32(len(p.vals))
				table[slot] = k + 1
				p.vals = append(p.vals, lv)
			} else if p.vals[k] != lv {
				slot = (slot + 1) & mask
				continue
			}
			p.class[i] = k
			break
		}
	}
	return p, nil
}

// prepareLayer computes one layer's layerVals.
func prepareLayer(l *graph.Layer) layerVals {
	lv := layerVals{
		kind:     l.Kind,
		isMatrix: l.Kind.IsMatrixOp(),
		macs:     float64(l.MACs()),
		vops:     float64(l.VectorOps()),
		inBytes:  float64(l.InBytes()),
		outBytes: float64(l.OutBytes()),
		kk:       math.Max(1, float64(l.KH*l.KW)),
	}
	if lv.isMatrix {
		m0, k0, n0 := l.GEMM()
		lv.m0, lv.k0, lv.n0 = float64(m0), float64(k0), float64(n0)
	}
	if l.Kind == graph.GlobalPool {
		lv.kk = math.Min(float64(l.InH*l.InW), 64)
	}
	return lv
}

// Name returns the prepared workload's name (its graph's Name).
func (p *Prepared) Name() string { return p.name }

// shapeHash mixes a layer's numeric shape fields, multiplicatively, into
// the high bits of the result (Prepare indexes its table by them).
func shapeHash(lv *layerVals) uint64 {
	h := uint64(lv.kind) + 1
	for _, v := range [...]float64{lv.macs, lv.vops, lv.m0, lv.k0, lv.n0, lv.inBytes, lv.outBytes, lv.kk} {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
	}
	return h
}

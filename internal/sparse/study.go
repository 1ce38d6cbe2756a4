package sparse

import (
	"fmt"
	"math"

	"neurometer/internal/chip"
	"neurometer/internal/guard"
	"neurometer/internal/maclib"
	"neurometer/internal/periph"
)

// Arch names one of the four §IV architectures: the Fig. 10(b) power
// optimum with 32x32 TUs (TU32), the utilization optimum with 8x8 TUs
// (TU8), and the reduction-tree twins with the same OPS per compute unit
// (RT1024 and RT64).
type Arch int

const (
	TU32 Arch = iota
	TU8
	RT1024
	RT64
)

func (a Arch) String() string {
	switch a {
	case TU32:
		return "TU32"
	case TU8:
		return "TU8"
	case RT1024:
		return "RT1024"
	case RT64:
		return "RT64"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// SkipGranularity returns the zero-skip granularity: TUs skip aligned
// array-sized blocks, RTs skip vector-sized row segments.
func (a Arch) SkipGranularity() int {
	switch a {
	case TU32:
		return 32 // 32x32 blocks
	case TU8:
		return 8 // 8x8 blocks
	case RT1024:
		return 1024 // 1024-wide vectors
	default:
		return 64 // 64-wide vectors
	}
}

// BuildArch constructs the chip model for one architecture under the
// Table-I-style environment (28nm, 700MHz, 700GB/s HBM). The RT designs
// match the OPS per compute unit of the corresponding TUs (1024-to-1 RT vs
// 32x32 TU; 64-to-1 RT vs 8x8 TU) with identical unit counts.
func BuildArch(a Arch) (*chip.Chip, error) {
	cfg := chip.Config{
		TechNM: 28, ClockHz: 700e6,
		NoCBisectionGBps: 256,
		OffChip:          []chip.OffChipPort{{Kind: periph.HBMPort, GBps: 700}},
	}
	switch a {
	case TU32:
		// The Fig. 10(b) power-efficient optimum with 32x32 TUs.
		cfg.Name, cfg.Tx, cfg.Ty = "tu32", 2, 4
		cfg.Core = chip.CoreConfig{
			NumTUs: 4, TURows: 32, TUCols: 32, TUDataType: maclib.Int8, HasSU: true,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 4 << 20}},
		}
	case TU8:
		// The utilization optimum (8,4,4,8).
		cfg.Name, cfg.Tx, cfg.Ty = "tu8", 4, 8
		cfg.Core = chip.CoreConfig{
			NumTUs: 4, TURows: 8, TUCols: 8, TUDataType: maclib.Int8, HasSU: true,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 1 << 20}},
		}
	case RT1024:
		cfg.Name, cfg.Tx, cfg.Ty = "rt1024", 2, 4
		cfg.Core = chip.CoreConfig{
			NumRTs: 4, RTInputs: 1024, TUDataType: maclib.Int8, HasSU: true,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 4 << 20}},
		}
	case RT64:
		cfg.Name, cfg.Tx, cfg.Ty = "rt64", 4, 8
		cfg.Core = chip.CoreConfig{
			NumRTs: 4, RTInputs: 64, TUDataType: maclib.Int8, HasSU: true,
			Mem: []chip.MemSegment{{Name: "spad", CapacityBytes: 1 << 20}},
		}
	default:
		return nil, fmt.Errorf("sparse: unknown arch %v", a)
	}
	return chip.Build(cfg)
}

// Workload is the SpMV microbenchmark: a weight matrix of M x N multiplied
// by batched dense vectors of N x K (§IV: M, N >= 1024, K >= 32).
type Workload struct {
	M, N, K int
}

// DefaultWorkload returns the paper's minimum configuration.
func DefaultWorkload() Workload { return Workload{M: 2048, N: 2048, K: 32} }

// Result is one point of the Fig. 11 curves.
type Result struct {
	Arch     Arch
	Sparsity float64 // target element-wise sparsity (zero fraction)

	Beta     float64 // CSR storage overhead
	SkipFrac float64 // zero-skipped block/vector fraction
	Y        float64 // compute reduction factor (1 = no reduction)

	DenseTimeSec  float64
	SparseTimeSec float64
	DensePowerW   float64
	SparsePowerW  float64

	// Gain is the sparse-over-dense energy-efficiency ratio
	// (Power_d * t_d) / (Power_s * t_s); > 1 means improvement.
	Gain float64
}

// Study evaluates one architecture at one sparsity level: it builds the
// chip, generates the synthetic matrix and evaluates the one on the other.
func Study(a Arch, w Workload, sparsity float64, seed uint64) (Result, error) {
	if err := w.validate(); err != nil {
		return Result{}, err
	}
	c, err := BuildArch(a)
	if err != nil {
		return Result{}, err
	}
	m, err := Generate(w.M, w.N, GenOptions{Sparsity: sparsity, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	return evaluate(a, c, w, sparsity, m, m.zeros()), nil
}

func (w Workload) validate() error {
	if w.M <= 0 || w.N <= 0 || w.K <= 0 {
		return guard.Invalid("sparse: workload dims must be positive, got M=%d N=%d K=%d", w.M, w.N, w.K)
	}
	return nil
}

// tileSize is the side of the paper's CSR submatrices.
const tileSize = 256

// csrBeta returns the storage overhead factor beta of a rows x cols Int8
// matrix with nnz non-zeros in the paper's tiled CSR layout (§IV), relative
// to the non-zero payload: the matrix is tiled into 256x256 submatrices;
// each non-zero costs its value byte plus one byte of intra-tile column
// index, each tiled row one byte of row indexing, and each submatrix two
// bytes of tile index. It lands between 2.0 and 2.5 for the paper's
// configurations, and is 0 for an all-zero matrix.
func csrBeta(rows, cols, nnz int) float64 {
	if nnz == 0 {
		return 0
	}
	tilesR := (rows + tileSize - 1) / tileSize
	tilesC := (cols + tileSize - 1) / tileSize
	return float64(2*nnz+tilesC*rows+2*tilesR*tilesC) / float64(nnz)
}

// evaluate combines the modified roofline with NeuroMeter's runtime power
// model for architecture a, built as c, on the generated matrix m, which
// holds zeros zero elements.
func evaluate(a Arch, c *chip.Chip, w Workload, sparsity float64, m *Matrix, zeros int) Result {
	res := Result{Arch: a, Sparsity: sparsity}
	res.Beta = csrBeta(m.Rows, m.Cols, len(m.Data)-zeros)
	x := 1 - float64(zeros)/float64(len(m.Data)) // non-zero ratio
	g := a.SkipGranularity()
	switch a {
	case TU32, TU8:
		res.SkipFrac = m.BlockSkipFraction(g)
	default:
		res.SkipFrac = m.VectorSkipFraction(g)
	}
	res.Y = 1 - res.SkipFrac

	// ---- Modified roofline (§IV equations) --------------------------------
	C := 2 * float64(w.M) * float64(w.N) * float64(w.K) // OPs
	sV := float64(w.N+w.M) * float64(w.K)               // batched in+out vectors
	sW := float64(w.M) * float64(w.N)
	F := c.PeakTOPS() * 1e12
	B := offChipBps(c)
	const alpha = 1.0

	tD := math.Max(C/F, (sV+sW)/B)
	tS := math.Max(alpha*res.Y*C/F, (sV+res.Beta*x*sW)/B)
	res.DenseTimeSec = tD
	res.SparseTimeSec = tS

	// ---- Runtime power via NeuroMeter --------------------------------------
	res.DensePowerW = runtimePower(c, C/2/tD, (sV+sW)/tD, 1.0)
	// Sparse: surviving blocks still stream zeros at reduced switching; the
	// CSR decompression path adds vector work.
	nzInBlocks := math.Min(1, x/math.Max(res.Y, 1e-9))
	res.SparsePowerW = runtimePower(c, res.Y*C/2/tS, (sV+res.Beta*x*sW)/tS,
		0.35+0.65*nzInBlocks)
	res.Gain = (res.DensePowerW * tD) / (res.SparsePowerW * tS)
	return res
}

// runtimePower assembles the activity factors for the SpMV kernel.
func runtimePower(c *chip.Chip, macsPerSec, offChipBps float64, switching float64) float64 {
	act := chip.Activity{
		VUOpsPerSec:         macsPerSec * 0.02, // merge/epilogue sliver
		SUInstrPerSec:       float64(c.Tiles()) * c.ClockHz() * 0.05,
		MemReadBytesPerSec:  macsPerSec * 1.2, // act + weight stream bytes/MAC
		MemWriteBytesPerSec: macsPerSec * 0.1,
		NoCBytesPerSec:      offChipBps * 0.5,
		OffChipBytesPerSec:  offChipBps,
		ClockGateIdleFrac:   0.5,
	}
	if c.Core.RT != nil {
		act.RTMACsPerSec = macsPerSec * switching
	} else {
		act.TUMACsPerSec = macsPerSec * switching
	}
	w, _ := c.RuntimePower(act)
	return w
}

func offChipBps(c *chip.Chip) float64 {
	var total float64
	for _, p := range c.Periph {
		switch p.Cfg.Kind {
		case periph.HBMPort, periph.DDRPort:
			total += p.Cfg.GBps * 1e9
		}
	}
	return total
}

// Sweep evaluates all four architectures across the sparsity levels,
// producing the Fig. 11 dataset. Each architecture is built once and each
// sparsity's matrix generated once; the four architectures share it.
func Sweep(w Workload, sparsities []float64, seed uint64) (map[Arch][]Result, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	archs := []Arch{TU32, TU8, RT1024, RT64}
	chips := make([]*chip.Chip, len(archs))
	for i, a := range archs {
		c, err := BuildArch(a)
		if err != nil {
			return nil, err
		}
		chips[i] = c
	}
	out := map[Arch][]Result{}
	for _, s := range sparsities {
		m, err := Generate(w.M, w.N, GenOptions{Sparsity: s, Seed: seed})
		if err != nil {
			return nil, err
		}
		zeros := m.zeros()
		for i, a := range archs {
			out[a] = append(out[a], evaluate(a, chips[i], w, s, m, zeros))
		}
	}
	return out, nil
}

// DefaultSparsities is the Fig. 11 x-axis.
func DefaultSparsities() []float64 {
	return []float64{0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
}

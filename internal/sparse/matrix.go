// Package sparse implements the paper's §IV mini-case study: the synthetic
// SpMV microbenchmark, the storage overhead factor beta of the paper's
// 256x256-tiled CSR layout in closed form (it lands in [2.0, 2.5]),
// block/vector zero-skip measurement on the generated matrices, the
// modified roofline model, and the energy-efficiency-gain computation for
// TU- and RT-based accelerators.
package sparse

import (
	"math"

	"neurometer/internal/guard"
)

// rng is a small deterministic PRNG (xorshift64*) so the microbenchmark is
// reproducible without package math/rand seeds leaking into results.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Matrix is a dense Int8 weight matrix with explicit zero structure.
type Matrix struct {
	Rows, Cols int
	// Data is row-major; zero bytes are zeros.
	Data []int8
}

// Distribution selects how zeros are placed — the paper notes the compute
// reduction y "is determined by the non-zero ratio x and the distribution
// of zero elements", and the two modes demonstrate exactly that
// sensitivity.
type Distribution int

const (
	// Clustered mimics magnitude-pruned weights: zeros form runs aligned
	// across small row groups, so block/vector skipping engages early.
	Clustered Distribution = iota
	// Random places zeros i.i.d.: an aligned b-element block is all-zero
	// with probability s^b, so coarse-grained skipping is hopeless below
	// extreme sparsity.
	Random
)

func (d Distribution) String() string {
	if d == Random {
		return "random"
	}
	return "clustered"
}

// GenOptions controls the synthetic sparsity structure.
type GenOptions struct {
	// Sparsity is the zero fraction in [0,1).
	Sparsity float64
	// Distribution selects clustered (default) or i.i.d. zeros.
	Distribution Distribution
	// RowGroup aligns the zero runs across groups of adjacent rows
	// (structured pruning removes small row-blocks together); default 8.
	// Clustered mode only.
	RowGroup int
	// MeanNZRun is the mean length of non-zero runs; the zero-run length
	// follows from the sparsity target. Default 16. Clustered mode only.
	MeanNZRun int
	// Seed makes generation reproducible.
	Seed uint64
}

// Generate builds a rows x cols Int8 matrix with run-structured, row-group
// aligned sparsity: along each row group, alternating non-zero runs (mean
// MeanNZRun) and zero runs whose mean length grows with the sparsity level,
// mimicking magnitude-pruned CNN/MLP weights where zeros cluster. The
// element-wise sparsity converges to opt.Sparsity.
func Generate(rows, cols int, opt GenOptions) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, guard.Invalid("sparse: matrix dims must be positive, got %dx%d", rows, cols)
	}
	if !(opt.Sparsity >= 0 && opt.Sparsity < 1) { // NaN fails too
		return nil, guard.Invalid("sparse: sparsity must be in [0,1), got %g", opt.Sparsity)
	}
	group := opt.RowGroup
	if group <= 0 {
		group = 8
	}
	nzRun := opt.MeanNZRun
	if nzRun <= 0 {
		nzRun = 16
	}
	r := newRNG(opt.Seed)
	m := &Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}

	if opt.Distribution == Random {
		for i := range m.Data {
			if r.float() >= opt.Sparsity {
				v := int8(r.intn(255) - 127)
				if v == 0 {
					v = 1
				}
				m.Data[i] = v
			}
		}
		return m, nil
	}

	s := opt.Sparsity
	// Mean zero-run length so that zRun/(zRun+nzRun) == s.
	zRun := 0.0
	if s > 0 {
		zRun = s / (1 - s) * float64(nzRun)
	}

	geo := func(mean float64) int {
		if mean <= 0 {
			return 0
		}
		// Geometric with the given mean, at least 1.
		u := r.float()
		l := int(math.Ceil(math.Log(1-u) / math.Log(1-1/mean)))
		if l < 1 {
			l = 1
		}
		return l
	}

	for g0 := 0; g0 < rows; g0 += group {
		g1 := g0 + group
		if g1 > rows {
			g1 = rows
		}
		col := 0
		zero := r.float() < s // start state
		for col < cols {
			var run int
			if zero {
				run = geo(zRun)
			} else {
				run = geo(float64(nzRun))
			}
			if col+run > cols {
				run = cols - col
			}
			if !zero {
				for row := g0; row < g1; row++ {
					base := row*cols + col
					for i := 0; i < run; i++ {
						v := int8(r.intn(255) - 127)
						if v == 0 {
							v = 1
						}
						m.Data[base+i] = v
					}
				}
			}
			col += run
			if zRun == 0 {
				zero = false
			} else {
				zero = !zero
			}
		}
	}
	return m, nil
}

// Sparsity returns the measured zero fraction.
func (m *Matrix) Sparsity() float64 {
	return float64(m.zeros()) / float64(len(m.Data))
}

// zeros counts the zero elements.
func (m *Matrix) zeros() int {
	n := 0
	for _, v := range m.Data {
		if v == 0 {
			n++
		}
	}
	return n
}

// BlockSkipFraction returns the fraction of aligned b x b blocks that are
// entirely zero — the paper's systolic-array block-wise zero-skipping: "if
// the zero elements form a block of the size of TU's systolic array and
// align on the systolic array loading boundary, this all-zero block can be
// skipped".
func (m *Matrix) BlockSkipFraction(b int) float64 {
	if b <= 0 || b > m.Rows || b > m.Cols {
		return 0
	}
	blocksR, blocksC := m.Rows/b, m.Cols/b
	if blocksR == 0 || blocksC == 0 {
		return 0
	}
	zero := 0
	for br := 0; br < blocksR; br++ {
		for bc := 0; bc < blocksC; bc++ {
			if m.blockZero(br*b, bc*b, b, b) {
				zero++
			}
		}
	}
	return float64(zero) / float64(blocksR*blocksC)
}

// VectorSkipFraction returns the fraction of aligned 1 x v row segments that
// are entirely zero — the reduction tree's vector-size zero-skipping.
func (m *Matrix) VectorSkipFraction(v int) float64 {
	if v <= 0 || v > m.Cols {
		return 0
	}
	segs := m.Cols / v
	if segs == 0 {
		return 0
	}
	zero := 0
	for row := 0; row < m.Rows; row++ {
		for sc := 0; sc < segs; sc++ {
			if m.blockZero(row, sc*v, 1, v) {
				zero++
			}
		}
	}
	return float64(zero) / float64(m.Rows*segs)
}

func (m *Matrix) blockZero(r0, c0, h, w int) bool {
	for r := r0; r < r0+h; r++ {
		base := r * m.Cols
		for c := c0; c < c0+w; c++ {
			if m.Data[base+c] != 0 {
				return false
			}
		}
	}
	return true
}

package sparse

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"neurometer/internal/guard"
)

// csr is a reference encoder for the paper's tiled CSR layout, kept in the
// tests to check the closed-form csrBeta against: the matrix is tiled into
// 256x256 submatrices; values holds the non-zeros in tile-major order,
// colIdx their one-byte intra-tile column indices, rowNZ the per-tiled-row
// non-zero counts (one byte each), and tiles the submatrix count (two
// bytes each).
type csr struct {
	rows, cols int
	values     []int8
	colIdx     []uint8
	rowNZ      []uint32
	tiles      int
}

func encodeCSR(m *Matrix) *csr {
	c := &csr{rows: m.Rows, cols: m.Cols}
	tilesR := (m.Rows + tileSize - 1) / tileSize
	tilesC := (m.Cols + tileSize - 1) / tileSize
	c.tiles = tilesR * tilesC
	for tr := 0; tr < tilesR; tr++ {
		for tc := 0; tc < tilesC; tc++ {
			r1 := min((tr+1)*tileSize, m.Rows)
			c1 := min((tc+1)*tileSize, m.Cols)
			for r := tr * tileSize; r < r1; r++ {
				base := r * m.Cols
				nz := uint32(0)
				for col := tc * tileSize; col < c1; col++ {
					if v := m.Data[base+col]; v != 0 {
						c.values = append(c.values, v)
						c.colIdx = append(c.colIdx, uint8(col-tc*tileSize))
						nz++
					}
				}
				c.rowNZ = append(c.rowNZ, nz)
			}
		}
	}
	return c
}

// encodedBytes is the total storage under the paper's accounting.
func (c *csr) encodedBytes() int {
	return len(c.values) + len(c.colIdx) + len(c.rowNZ) + 2*c.tiles
}

func (c *csr) decode() *Matrix {
	m := &Matrix{Rows: c.rows, Cols: c.cols, Data: make([]int8, c.rows*c.cols)}
	tilesC := (c.cols + tileSize - 1) / tileSize
	idx, row := 0, 0
	for tr := 0; tr*tileSize < c.rows; tr++ {
		for tc := 0; tc < tilesC; tc++ {
			r1 := min((tr+1)*tileSize, c.rows)
			for r := tr * tileSize; r < r1; r++ {
				nz := int(c.rowNZ[row])
				row++
				for i := 0; i < nz; i++ {
					col := tc*tileSize + int(c.colIdx[idx])
					m.Data[r*c.cols+col] = c.values[idx]
					idx++
				}
			}
		}
	}
	return m
}

// matrixBeta is the production beta of m: one zero count, the closed form.
func matrixBeta(m *Matrix) float64 {
	return csrBeta(m.Rows, m.Cols, len(m.Data)-m.zeros())
}

func TestGenerateValidation(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		s          float64
	}{{0, 8, 0}, {8, 0, 0}, {8, 8, 1.0}, {8, 8, -0.1}, {8, 8, math.NaN()}} {
		if _, err := Generate(tc.rows, tc.cols, GenOptions{Sparsity: tc.s}); !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("%dx%d at sparsity %g: error %v, want ErrInvalidConfig", tc.rows, tc.cols, tc.s, err)
		}
	}
}

// TestInvalidWorkloadIsInvalidConfig: every invalid workload parameter is
// guard.ErrInvalidConfig (cmd/sparsity's exit 2) from Study and Sweep
// alike.
func TestInvalidWorkloadIsInvalidConfig(t *testing.T) {
	small := Workload{M: 64, N: 64, K: 8}
	for _, tc := range []struct {
		name string
		w    Workload
		s    float64
	}{
		{"M=0", Workload{M: 0, N: 64, K: 8}, 0.5},
		{"N=0", Workload{M: 64, N: 0, K: 8}, 0.5},
		{"K=0", Workload{M: 64, N: 64, K: 0}, 0.5},
		{"K<0", Workload{M: 64, N: 64, K: -5}, 0.5},
		{"sparsity 1.0", small, 1.0},
		{"sparsity -0.1", small, -0.1},
	} {
		if _, err := Study(TU8, tc.w, tc.s, 42); !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("%s: Study error %v, want ErrInvalidConfig", tc.name, err)
		}
		if _, err := Sweep(tc.w, []float64{tc.s}, 42); !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("%s: Sweep error %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestGenerateHitsSparsityTarget(t *testing.T) {
	for _, s := range []float64{0, 0.3, 0.5, 0.8, 0.9, 0.99} {
		m, err := Generate(1024, 1024, GenOptions{Sparsity: s, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Sparsity()
		if math.Abs(got-s) > 0.05 {
			t.Errorf("target %g, measured %g", s, got)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(256, 256, GenOptions{Sparsity: 0.7, Seed: 3})
	b, _ := Generate(256, 256, GenOptions{Sparsity: 0.7, Seed: 3})
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("same seed must reproduce the matrix")
		}
	}
	c, _ := Generate(256, 256, GenOptions{Sparsity: 0.7, Seed: 4})
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should differ")
	}
}

func TestSkipFractionsOrdering(t *testing.T) {
	m, err := Generate(2048, 2048, GenOptions{Sparsity: 0.9, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Finer granularities always skip at least as much as coarser ones.
	b8, b32 := m.BlockSkipFraction(8), m.BlockSkipFraction(32)
	v64, v1024 := m.VectorSkipFraction(64), m.VectorSkipFraction(1024)
	if b8 < b32 {
		t.Errorf("8x8 skip (%.3f) must be >= 32x32 skip (%.3f)", b8, b32)
	}
	if v64 < v1024 {
		t.Errorf("64-vector skip (%.3f) must be >= 1024-vector skip (%.3f)", v64, v1024)
	}
	if b8 <= 0 {
		t.Errorf("at 90%% clustered sparsity the fine blocks must skip, got %.3f", b8)
	}
	// Degenerate granularities.
	if m.BlockSkipFraction(0) != 0 || m.BlockSkipFraction(4096) != 0 {
		t.Errorf("invalid block sizes must report 0")
	}
	if m.VectorSkipFraction(0) != 0 || m.VectorSkipFraction(4096) != 0 {
		t.Errorf("invalid vector sizes must report 0")
	}
}

func TestSkipGrowsWithSparsity(t *testing.T) {
	prev := -1.0
	for _, s := range []float64{0.5, 0.7, 0.9, 0.99} {
		m, err := Generate(1024, 1024, GenOptions{Sparsity: s, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		skip := m.BlockSkipFraction(8)
		if skip <= prev {
			t.Errorf("skip fraction must grow with sparsity: %.3f at %g (prev %.3f)", skip, s, prev)
		}
		prev = skip
	}
}

func TestCSRRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.95} {
		m, err := Generate(512, 700, GenOptions{Sparsity: s, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := encodeCSR(m).decode()
		if got.Rows != m.Rows || got.Cols != m.Cols {
			t.Fatalf("shape mismatch")
		}
		for i := range m.Data {
			if m.Data[i] != got.Data[i] {
				t.Fatalf("s=%g: roundtrip mismatch at %d", s, i)
			}
		}
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed uint16, sRaw uint8) bool {
		s := float64(sRaw%95) / 100
		m, err := Generate(300, 300, GenOptions{Sparsity: s, Seed: uint64(seed) + 1})
		if err != nil {
			return false
		}
		got := encodeCSR(m).decode()
		for i := range m.Data {
			if m.Data[i] != got.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBetaInPaperRange(t *testing.T) {
	// §IV: "beta is a value between 2.0 and 2.5 in this case study".
	for _, s := range []float64{0.5, 0.7, 0.9, 0.99} {
		m, err := Generate(2048, 2048, GenOptions{Sparsity: s, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		beta := matrixBeta(m)
		if beta < 2.0 || beta > 2.5 {
			t.Errorf("s=%g: beta %.2f outside [2.0, 2.5]", s, beta)
		}
	}
}

func TestArchitecturesBuild(t *testing.T) {
	for _, a := range []Arch{TU32, TU8, RT1024, RT64} {
		c, err := BuildArch(a)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if c.PeakTOPS() <= 0 {
			t.Errorf("%v: zero peak", a)
		}
		if a.String() == "" {
			t.Errorf("empty arch name")
		}
	}
	// TU/RT twins have identical peak throughput ("the same OPS per
	// compute unit as the corresponding systolic arrays").
	tu32, _ := BuildArch(TU32)
	rt1024, _ := BuildArch(RT1024)
	if math.Abs(tu32.PeakTOPS()-rt1024.PeakTOPS()) > 1e-9 {
		t.Errorf("TU32 (%.2f) and RT1024 (%.2f) must match peak", tu32.PeakTOPS(), rt1024.PeakTOPS())
	}
	tu8, _ := BuildArch(TU8)
	rt64, _ := BuildArch(RT64)
	if math.Abs(tu8.PeakTOPS()-rt64.PeakTOPS()) > 1e-9 {
		t.Errorf("TU8 and RT64 must match peak")
	}
}

// TestFig11Shape verifies the paper's §IV findings on the full sweep:
// gains below one at low sparsity, crossover near 0.5, monotone growth,
// and wimpier architectures benefiting more.
func TestFig11Shape(t *testing.T) {
	out, err := Sweep(DefaultWorkload(), []float64{0.0, 0.5, 0.9, 0.99}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for a, rows := range out {
		if rows[0].Gain >= 1.0 {
			t.Errorf("%v: dense-equivalent workload must not gain (%.2f)", a, rows[0].Gain)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Gain < rows[i-1].Gain {
				t.Errorf("%v: gain must grow with sparsity (%.2f -> %.2f)",
					a, rows[i-1].Gain, rows[i].Gain)
			}
		}
		last := rows[len(rows)-1]
		if last.Gain <= 1.0 {
			t.Errorf("%v: 99%% sparsity must gain, got %.2f", a, last.Gain)
		}
	}
	// Wimpier architectures benefit more readily (the paper's conclusion).
	at := func(a Arch, i int) float64 { return out[a][i].Gain }
	for i := 2; i < 4; i++ { // 0.9 and 0.99
		if at(TU8, i) <= at(TU32, i) {
			t.Errorf("TU8 must out-gain TU32 at high sparsity: %.2f vs %.2f", at(TU8, i), at(TU32, i))
		}
		if at(RT64, i) <= at(RT1024, i) {
			t.Errorf("RT64 must out-gain RT1024 at high sparsity: %.2f vs %.2f", at(RT64, i), at(RT1024, i))
		}
	}
	// The coarse-grained designs improve in a visibly lower slope.
	tu32Slope := at(TU32, 3) - at(TU32, 1)
	tu8Slope := at(TU8, 3) - at(TU8, 1)
	if tu8Slope <= tu32Slope {
		t.Errorf("fine-grained slope must exceed coarse-grained: %.2f vs %.2f", tu8Slope, tu32Slope)
	}
}

func TestStudyFieldsPopulated(t *testing.T) {
	r, err := Study(TU8, DefaultWorkload(), 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Beta < 2 || r.Y <= 0 || r.Y > 1 || r.SkipFrac <= 0 {
		t.Errorf("suspicious study fields: %+v", r)
	}
	if r.DenseTimeSec <= 0 || r.SparseTimeSec <= 0 ||
		r.DensePowerW <= 0 || r.SparsePowerW <= 0 {
		t.Errorf("times/powers must be positive: %+v", r)
	}
	if r.SparseTimeSec >= r.DenseTimeSec {
		t.Errorf("90%% sparse SpMV should be faster than dense")
	}
}

func TestNonZerosConsistent(t *testing.T) {
	m, err := Generate(512, 512, GenOptions{Sparsity: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := encodeCSR(m)
	if nnz := len(m.Data) - m.zeros(); len(c.values) != nnz {
		t.Errorf("CSR values %d != matrix non-zeros %d", len(c.values), nnz)
	}
	if c.encodedBytes() <= len(c.values) {
		t.Errorf("encoding must carry index overhead")
	}
}

// TestBetaClosedFormMatchesEncoder: the closed-form beta equals the
// reference encoder's bytes per non-zero bit for bit, on square, ragged
// (not a multiple of the 256 tile) and degenerate shapes, and an all-zero
// matrix reports 0.
func TestBetaClosedFormMatchesEncoder(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {255, 257}, {300, 700}, {512, 512}} {
		for _, s := range []float64{0, 0.5, 0.9, 0.99} {
			for _, d := range []Distribution{Clustered, Random} {
				m, err := Generate(dims[0], dims[1], GenOptions{Sparsity: s, Seed: 3, Distribution: d})
				if err != nil {
					t.Fatal(err)
				}
				c := encodeCSR(m)
				want := 0.0
				if len(c.values) > 0 {
					want = float64(c.encodedBytes()) / float64(len(c.values))
				}
				if got := matrixBeta(m); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%dx%d %v s=%g: closed-form beta %v, encoder %v", dims[0], dims[1], d, s, got, want)
				}
			}
		}
	}
	empty := &Matrix{Rows: 300, Cols: 700, Data: make([]int8, 300*700)}
	if got := matrixBeta(empty); got != 0 {
		t.Errorf("all-zero matrix beta %v, want 0", got)
	}
}

// TestStudyMatchesSweep: the shared-matrix Sweep reproduces per-point
// Study calls bit for bit on every field, on a workload whose sides are
// not multiples of the CSR tile.
func TestStudyMatchesSweep(t *testing.T) {
	w := Workload{M: 300, N: 700, K: 32}
	out, err := Sweep(w, DefaultSparsities(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Arch{TU32, TU8, RT1024, RT64} {
		if len(out[a]) != len(DefaultSparsities()) {
			t.Fatalf("%v: %d sweep rows, want %d", a, len(out[a]), len(DefaultSparsities()))
		}
		for i, s := range DefaultSparsities() {
			want, err := Study(a, w, s, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got := out[a][i]; !sameResult(got, want) {
				t.Errorf("%v s=%g: Sweep %+v, Study %+v", a, s, got, want)
			}
		}
	}
}

// sameResult compares every Result field bit for bit.
func sameResult(a, b Result) bool {
	fields := func(r Result) []float64 {
		return []float64{r.Sparsity, r.Beta, r.SkipFrac, r.Y, r.DenseTimeSec,
			r.SparseTimeSec, r.DensePowerW, r.SparsePowerW, r.Gain}
	}
	fa, fb := fields(a), fields(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Arch == b.Arch
}

// TestRooflineIdentities checks the §IV equations directly on a computed
// study point: t_d = max(C/F, (S_V+S_W)/B) and the sparse counterpart with
// the measured y and beta.
func TestRooflineIdentities(t *testing.T) {
	w := DefaultWorkload()
	r, err := Study(TU32, w, 0.8, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildArch(TU32)
	if err != nil {
		t.Fatal(err)
	}
	C := 2 * float64(w.M) * float64(w.N) * float64(w.K)
	sV := float64(w.N+w.M) * float64(w.K)
	sW := float64(w.M) * float64(w.N)
	F := c.PeakTOPS() * 1e12
	B := 700e9
	tD := math.Max(C/F, (sV+sW)/B)
	if math.Abs(r.DenseTimeSec-tD)/tD > 1e-9 {
		t.Errorf("dense roofline mismatch: %g vs %g", r.DenseTimeSec, tD)
	}
	// Recompute with the study's own y/beta and the measured sparsity.
	m, err := Generate(w.M, w.N, GenOptions{Sparsity: 0.8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	xm := 1 - m.Sparsity()
	tS := math.Max(r.Y*C/F, (sV+r.Beta*xm*sW)/B)
	if math.Abs(r.SparseTimeSec-tS)/tS > 1e-9 {
		t.Errorf("sparse roofline mismatch: %g vs %g", r.SparseTimeSec, tS)
	}
}

// TestLowSparsityCSRPenalty: below the beta crossover (x > 1/beta) the CSR
// encoding moves MORE bytes than the dense matrix, so the memory-bound
// sparse run cannot be faster.
func TestLowSparsityCSRPenalty(t *testing.T) {
	r, err := Study(TU32, DefaultWorkload(), 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.SparseTimeSec < r.DenseTimeSec {
		t.Errorf("30%% sparsity should not beat dense on a bandwidth-bound MV: %g vs %g",
			r.SparseTimeSec, r.DenseTimeSec)
	}
	if r.Gain >= 1 {
		t.Errorf("30%% sparsity must not gain: %.2f", r.Gain)
	}
}

// TestDistributionSensitivity demonstrates the §IV point that the compute
// reduction depends on the *distribution* of zeros, not just the ratio:
// at 90% sparsity, clustered zeros let 8x8 blocks skip massively while
// i.i.d. zeros leave essentially nothing skippable (P = 0.9^64 ~ 0.001).
func TestDistributionSensitivity(t *testing.T) {
	clustered, err := Generate(1024, 1024, GenOptions{Sparsity: 0.9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Generate(1024, 1024, GenOptions{Sparsity: 0.9, Seed: 21, Distribution: Random})
	if err != nil {
		t.Fatal(err)
	}
	// Both hit the same element-wise sparsity...
	if math.Abs(clustered.Sparsity()-random.Sparsity()) > 0.03 {
		t.Errorf("sparsities diverge: %.3f vs %.3f", clustered.Sparsity(), random.Sparsity())
	}
	// ...but only the clustered one skips at block granularity.
	cs, rs := clustered.BlockSkipFraction(8), random.BlockSkipFraction(8)
	if cs < 0.3 {
		t.Errorf("clustered 8x8 skip too low: %.3f", cs)
	}
	if rs > 0.02 {
		t.Errorf("random 8x8 skip should be negligible at 0.9: %.3f", rs)
	}
	if Clustered.String() != "clustered" || Random.String() != "random" {
		t.Errorf("distribution strings")
	}
	// CSR round-trips regardless of distribution.
	got := encodeCSR(random).decode()
	for i := range random.Data {
		if random.Data[i] != got.Data[i] {
			t.Fatalf("random-distribution CSR roundtrip mismatch")
		}
	}
}

package sparse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"
)

// Pinned Fig. 11 digests, taken on the per-call Study path: a rework of
// Sweep or Generate (one matrix per sparsity, skip fractions in one pass,
// β in closed form) must leave both alone, bit for bit.
const (
	// fig11Digest hashes every Result field of the cmd/sparsity sweep
	// (DefaultWorkload, DefaultSparsities, seed 42) at full precision.
	fig11Digest = "329165082a6e9b99"
	// distDigest hashes the block- and vector-skip fractions behind
	// cmd/sparsity's -dist random lines (2048x2048 at 0.9 sparsity, seed
	// 42, clustered then random zeros) at full precision.
	distDigest = "362a377a8cac0fe5"
)

func full(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestFig11Digest(t *testing.T) {
	out, err := Sweep(DefaultWorkload(), DefaultSparsities(), 42)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, a := range []Arch{TU32, TU8, RT1024, RT64} {
		for _, r := range out[a] {
			fmt.Fprintln(h, r.Arch, full(r.Sparsity), full(r.Beta), full(r.SkipFrac), full(r.Y),
				full(r.DenseTimeSec), full(r.SparseTimeSec), full(r.DensePowerW), full(r.SparsePowerW), full(r.Gain))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != fig11Digest {
		t.Errorf("Fig. 11 digest %s, want %s", got, fig11Digest)
	}
}

func TestDistributionDigest(t *testing.T) {
	h := sha256.New()
	for _, d := range []Distribution{Clustered, Random} {
		m, err := Generate(2048, 2048, GenOptions{Sparsity: 0.9, Seed: 42, Distribution: d})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, d, full(m.BlockSkipFraction(8)), full(m.BlockSkipFraction(32)), full(m.VectorSkipFraction(64)))
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != distDigest {
		t.Errorf("-dist random digest %s, want %s", got, distDigest)
	}
}

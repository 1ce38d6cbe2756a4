package memarray

import (
	"fmt"
	"testing"
	"testing/quick"

	"neurometer/internal/tech"
	"neurometer/internal/tech/techtest"
)

const cycle700MHz = 1e12 / 700e6

func cfg28(capBytes int64, block int) Config {
	return Config{
		Node:          techtest.MustByNode(28),
		Cell:          tech.CellSRAM,
		CapacityBytes: capBytes,
		BlockBytes:    block,
		CyclePS:       cycle700MHz,
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(cfg28(0, 64)); err == nil {
		t.Errorf("zero capacity must fail")
	}
	if _, err := Build(cfg28(1024, 0)); err == nil {
		t.Errorf("zero block must fail")
	}
	if _, err := Build(cfg28(64, 128)); err == nil {
		t.Errorf("block>capacity must fail")
	}
	c := cfg28(1<<20, 64)
	c.CyclePS = 0
	if _, err := Build(c); err == nil {
		t.Errorf("zero cycle must fail")
	}
}

func TestBasicArraySane(t *testing.T) {
	a, err := Build(cfg28(1<<20, 64)) // 1MiB, 64B blocks
	if err != nil {
		t.Fatal(err)
	}
	if a.AreaUM2() <= 0 || a.ReadEnergyPJ() <= 0 || a.WriteEnergyPJ() <= 0 ||
		a.LeakUW() <= 0 || a.AccessDelayPS() <= 0 {
		t.Fatalf("degenerate result: %v", a)
	}
	// 1MiB at 28nm: raw cells are ~1.07mm2; the full array must be bigger
	// but within ~6x (peripheral overhead bound).
	raw := float64(1<<20) * 8 * a.Cfg.Node.SRAMCellUM2
	if a.AreaUM2() < raw {
		t.Errorf("array smaller than its own cells: %g < %g", a.AreaUM2(), raw)
	}
	if a.AreaUM2() > raw*6 {
		t.Errorf("peripheral overhead above 6x: %g vs raw %g", a.AreaUM2(), raw)
	}
	if !a.Result().Valid() {
		t.Errorf("invalid result")
	}
}

func TestAreaMonotonicInCapacity(t *testing.T) {
	prev := 0.0
	for _, mb := range []int64{1, 2, 4, 8, 16} {
		a, err := Build(cfg28(mb<<20, 64))
		if err != nil {
			t.Fatalf("%dMiB: %v", mb, err)
		}
		if a.AreaUM2() <= prev {
			t.Errorf("%dMiB not bigger than previous: %g <= %g", mb, a.AreaUM2(), prev)
		}
		prev = a.AreaUM2()
	}
}

func TestEnergyGrowsWithCapacity(t *testing.T) {
	small, err := Build(cfg28(256<<10, 64))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(cfg28(16<<20, 64))
	if err != nil {
		t.Fatal(err)
	}
	if big.ReadEnergyPJ() <= small.ReadEnergyPJ() {
		t.Errorf("16MiB read (%gpJ) should cost more than 256KiB read (%gpJ)",
			big.ReadEnergyPJ(), small.ReadEnergyPJ())
	}
	if big.AccessDelayPS() <= small.AccessDelayPS() {
		t.Errorf("bigger array should be slower")
	}
}

func TestThroughputForcesBanking(t *testing.T) {
	base := cfg28(4<<20, 32)
	lo, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	hi := base
	hi.ReadBytesPerCycle = 2048
	hi.WriteBytesPerCycle = 1024
	hiA, err := Build(hi)
	if err != nil {
		t.Fatal(err)
	}
	needBanksPorts := float64(hiA.Org.Banks*hiA.Org.ReadPorts) * float64(hi.BlockBytes)
	if needBanksPorts < 2048 {
		t.Errorf("optimizer under-provisioned reads: banks=%d rp=%d block=%d",
			hiA.Org.Banks, hiA.Org.ReadPorts, hi.BlockBytes)
	}
	if hiA.Org.Banks <= lo.Org.Banks && hiA.Org.ReadPorts <= lo.Org.ReadPorts {
		t.Errorf("high-throughput config should use more banks or ports: %+v vs %+v", hiA.Org, lo.Org)
	}
}

func TestPortSearchTPUv2Style(t *testing.T) {
	// The paper highlights that NeuroMeter automatically finds 2R1W for
	// TPU-v2's VMem given the throughput requirement. Reproduce the shape:
	// an 8MiB quad-bank memory that must serve 2 blocks read + 1 written
	// per cycle needs 2 read ports and 1 write port when banks are fixed=4.
	n := techtest.MustByNode(16)
	cfg := Config{
		Node: n, Cell: tech.CellSRAM,
		CapacityBytes: 8 << 20, BlockBytes: 256,
		Banks:   4,
		CyclePS: cycle700MHz,
		// 2 reads + 1 write of 256B per cycle per bank group.
		ReadBytesPerCycle:  2 * 4 * 256,
		WriteBytesPerCycle: 1 * 4 * 256,
	}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Org.ReadPorts != 2 || a.Org.WritePorts != 1 {
		t.Errorf("expected 2R1W, got %dR%dW", a.Org.ReadPorts, a.Org.WritePorts)
	}
}

func TestMorePortsCostArea(t *testing.T) {
	base := cfg28(1<<20, 64)
	base.Banks = 4
	base.ReadPorts, base.WritePorts = 1, 1
	a1, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	base.ReadPorts = 3
	a3, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if a3.AreaUM2() <= a1.AreaUM2()*1.3 {
		t.Errorf("3R1W should cost much more than 1R1W: %g vs %g", a3.AreaUM2(), a1.AreaUM2())
	}
}

func TestPortDominance(t *testing.T) {
	// Without a latency target Build scores only the smallest throughput-
	// feasible port pair of each bank count. Score every pair here and
	// check that none is cheaper, and that none fits when the smallest
	// does not.
	compared := 0
	for _, nm := range []int{7, 28, 65} {
		for _, cell := range []tech.MemCell{tech.CellSRAM, tech.CellDFF, tech.CellEDRAM} {
			for _, capBytes := range []int64{1 << 10, 64 << 10, 4 << 20} {
				for _, tp := range [][2]float64{{1, 1}, {2, 1}, {4, 2}, {8, 8}} {
					const block = 64
					cfg := Config{
						Node: techtest.MustByNode(nm), Cell: cell,
						CapacityBytes: capBytes, BlockBytes: block,
						CyclePS:            cycle700MHz,
						ReadBytesPerCycle:  tp[0] * block,
						WriteBytesPerCycle: tp[1] * block,
					}
					name := fmt.Sprintf("%dnm %s %dB %gR%gW/cycle", nm, cell, capBytes, cfg.ReadBytesPerCycle, cfg.WriteBytesPerCycle)
					o := optimizer{cfg: &cfg}
					o.init()
					for _, banks := range searchBanks {
						if int64(banks*block) > capBytes {
							break
						}
						first := true
						var smallest orgPAT
						var smallestOK bool
						for _, rp := range searchPorts {
							for _, wp := range searchPorts {
								if !meetsThroughput(&cfg, banks, rp, wp) {
									continue
								}
								p, _, ok := o.evaluate(banks, rp, wp)
								if first {
									smallest, smallestOK, first = p, ok, false
									continue
								}
								compared++
								if !ok {
									continue
								}
								if !smallestOK {
									t.Errorf("%s: banks=%d %dR%dW fits but the smallest pair does not", name, banks, rp, wp)
								} else if p.cost() < smallest.cost() {
									t.Errorf("%s: banks=%d %dR%dW costs %g, less than the smallest pair's %g",
										name, banks, rp, wp, p.cost(), smallest.cost())
								}
							}
						}
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no bank count had more than one throughput-feasible port pair")
	}
}

func TestLatencyTargetRespected(t *testing.T) {
	cfg := cfg28(8<<20, 64)
	cfg.TargetLatencyPS = 2000
	a, err := Build(cfg)
	if err != nil {
		t.Skipf("no organization meets 2ns on 8MiB: %v", err)
	}
	if a.AccessDelayPS() > cfg.TargetLatencyPS {
		t.Errorf("latency target violated: %g > %g", a.AccessDelayPS(), cfg.TargetLatencyPS)
	}
}

func TestCellFamilies(t *testing.T) {
	sram, err := Build(cfg28(2<<20, 64))
	if err != nil {
		t.Fatal(err)
	}
	ec := cfg28(2<<20, 64)
	ec.Cell = tech.CellEDRAM
	edram, err := Build(ec)
	if err != nil {
		t.Fatal(err)
	}
	if edram.AreaUM2() >= sram.AreaUM2() {
		t.Errorf("eDRAM must be denser than SRAM: %g vs %g", edram.AreaUM2(), sram.AreaUM2())
	}
	dc := cfg28(64<<10, 64)
	dc.Cell = tech.CellDFF
	dff, err := Build(dc)
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg28(64<<10, 64)
	sramSmall, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if dff.AreaUM2() <= sramSmall.AreaUM2() {
		t.Errorf("DFF array must be bigger than SRAM of same capacity")
	}
}

func TestNodeScaling(t *testing.T) {
	c16 := cfg28(4<<20, 64)
	c16.Node = techtest.MustByNode(16)
	a16, err := Build(c16)
	if err != nil {
		t.Fatal(err)
	}
	a28, err := Build(cfg28(4<<20, 64))
	if err != nil {
		t.Fatal(err)
	}
	if a16.AreaUM2() >= a28.AreaUM2() {
		t.Errorf("16nm array must be smaller than 28nm")
	}
	if a16.ReadEnergyPJ() >= a28.ReadEnergyPJ() {
		t.Errorf("16nm read must be cheaper")
	}
}

func TestPropertyValidAcrossSizes(t *testing.T) {
	f := func(kb uint16, blkSel uint8) bool {
		capBytes := int64(kb%1024+1) << 10 // 1KiB..1MiB
		blocks := []int{8, 16, 32, 64, 128}
		blk := blocks[int(blkSel)%len(blocks)]
		if int64(blk) > capBytes {
			blk = int(capBytes)
		}
		cfg := cfg28(capBytes, blk)
		a, err := Build(cfg)
		if err != nil {
			return false
		}
		return a.Result().Valid() && a.AreaUM2() > 0 && a.CycleDelayPS() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringIncludesOrg(t *testing.T) {
	a, err := Build(cfg28(1<<20, 64))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == "" {
		t.Errorf("empty String()")
	}
}

// searched8MiB is an 8 MiB SRAM whose banks and ports the optimizer picks:
// the full bank x port x subarray search.
func searched8MiB() Config { return cfg28(8<<20, 64) }

func TestBuildAllocations(t *testing.T) {
	// The search scores candidate organizations as values; only the
	// winning Array is allocated.
	cfg := searched8MiB()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Build allocates %.0f objects per call, want <= 8", allocs)
	}
}

func BenchmarkBuild(b *testing.B) {
	cfg := searched8MiB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

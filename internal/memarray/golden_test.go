package memarray

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"neurometer/internal/tech"
	"neurometer/internal/tech/techtest"
)

const goldenPath = "testdata/build_golden.txt"

// goldenConfigs is the grid the optimizer golden file covers: tabulated,
// interpolated and voltage-scaled nodes, every cell family, capacities
// from 64 B to 24 MiB and blocks from 4 B to 1 KiB. Each base point is
// paired with one of six search variants (all searched, fixed banks,
// fixed ports, a latency target, a throughput target, everything fixed),
// and a handful of deliberately infeasible configs close the list.
func goldenConfigs() []Config {
	nodes := []tech.Node{
		techtest.MustByNode(7),
		techtest.MustByNode(16),
		techtest.MustByNode(22),
		techtest.MustByNode(28),
		techtest.MustByNode(65),
		techtest.MustByNode(28).WithVdd(0.75),
	}
	cells := []tech.MemCell{tech.CellSRAM, tech.CellDFF, tech.CellEDRAM}
	caps := []int64{64, 1 << 10, 16 << 10, 256 << 10, 4 << 20, 24 << 20}
	blocks := []int{4, 32, 256, 1024}

	var out []Config
	i := 0
	for _, n := range nodes {
		for _, cell := range cells {
			for _, capBytes := range caps {
				for _, blk := range blocks {
					if int64(blk) > capBytes {
						continue
					}
					cfg := Config{
						Node: n, Cell: cell,
						CapacityBytes: capBytes, BlockBytes: blk,
						CyclePS: 1e12 / 700e6,
					}
					if i%2 == 1 {
						cfg.CyclePS = 1e12 / 1e9
					}
					switch i % 6 {
					case 1:
						cfg.Banks = 4
					case 2:
						cfg.ReadPorts, cfg.WritePorts = 2, 1
					case 3:
						cfg.TargetLatencyPS = 1500
					case 4:
						cfg.ReadBytesPerCycle = 4 * float64(blk)
						cfg.WriteBytesPerCycle = 2 * float64(blk)
					case 5:
						cfg.Banks, cfg.ReadPorts, cfg.WritePorts = 2, 1, 1
					}
					out = append(out, cfg)
					i++
				}
			}
		}
	}

	n28 := techtest.MustByNode(28)
	bad := func(c Config) Config { c.Node = n28; c.Cell = tech.CellSRAM; return c }
	out = append(out,
		bad(Config{CapacityBytes: 0, BlockBytes: 64, CyclePS: 1000}),
		bad(Config{CapacityBytes: 1 << 20, BlockBytes: 0, CyclePS: 1000}),
		bad(Config{CapacityBytes: 64, BlockBytes: 128, CyclePS: 1000}),
		bad(Config{CapacityBytes: 1 << 20, BlockBytes: 64}),
		bad(Config{CapacityBytes: 1 << 20, BlockBytes: 64, CyclePS: 1000, TargetLatencyPS: 1}),
		bad(Config{CapacityBytes: 1 << 20, BlockBytes: 64, CyclePS: 1000, ReadBytesPerCycle: 1e9}),
		bad(Config{CapacityBytes: 8 << 20, BlockBytes: 64, CyclePS: 10}),
		bad(Config{CapacityBytes: 1 << 10, BlockBytes: 64, CyclePS: 1000, Banks: 64}),
		bad(Config{CapacityBytes: 1 << 20, BlockBytes: 1024, CyclePS: 1000, Banks: 4096, ReadPorts: 1, WritePorts: 1}),
	)
	return out
}

// goldenLine renders one Build outcome: the config, then either the
// chosen organization and all six metrics at full precision, or the error.
func goldenLine(cfg Config) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	key := fmt.Sprintf("%s %s cap=%d blk=%d banks=%d rp=%d wp=%d cyc=%s lat=%s rd=%s wr=%s",
		cfg.Node, cfg.Cell, cfg.CapacityBytes, cfg.BlockBytes, cfg.Banks,
		cfg.ReadPorts, cfg.WritePorts, g(cfg.CyclePS), g(cfg.TargetLatencyPS),
		g(cfg.ReadBytesPerCycle), g(cfg.WriteBytesPerCycle))
	a, err := Build(cfg)
	if err != nil {
		return key + " | err: " + err.Error()
	}
	o := a.Org
	return fmt.Sprintf("%s | org=%d/%dR%dW/%dx%d/%d area=%s rd=%s wr=%s leak=%s acc=%s cyc=%s",
		key, o.Banks, o.ReadPorts, o.WritePorts, o.SubarrayRows, o.SubarrayCols,
		o.SubarraysPerBank, g(a.AreaUM2()), g(a.ReadEnergyPJ()), g(a.WriteEnergyPJ()),
		g(a.LeakUW()), g(a.AccessDelayPS()), g(a.CycleDelayPS()))
}

// TestBuildGolden pins the optimizer's choice and every metric, bit for
// bit, over goldenConfigs. A deliberate model change regenerates the file:
// on a mismatch the test writes the current output next to the golden file
// as build_golden.txt.got, which can be reviewed and moved over it.
func TestBuildGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range goldenConfigs() {
		b.WriteString(goldenLine(cfg))
		b.WriteByte('\n')
	}
	got := b.String()
	want, err := os.ReadFile(goldenPath)
	if err == nil && string(want) == got {
		return
	}
	gotPath := filepath.Join("testdata", "build_golden.txt.got")
	if werr := os.WriteFile(gotPath, []byte(got), 0o644); werr != nil {
		t.Logf("writing %s: %v", gotPath, werr)
	}
	if err != nil {
		t.Fatalf("reading golden file: %v (current output written to %s)", err, gotPath)
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("golden mismatch at line %d (current output in %s):\nwant %s\ngot  %s", i+1, gotPath, w, g)
		}
	}
}

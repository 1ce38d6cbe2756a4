package dse

import (
	"fmt"
	"strings"

	"neurometer/internal/chip"
	"neurometer/internal/maclib"
	"neurometer/internal/tech"
	"neurometer/internal/tensorunit"
)

// This file contains the ablation studies for the design choices DESIGN.md
// calls out: NoC topology, memory cell technology, inner-TU interconnect,
// VReg port sharing, dataflow, and operand data type. Each ablation takes a
// reference design point and varies exactly one axis, reporting the chip-
// level consequences — the kind of what-if a NeuroMeter user runs before
// committing to an architecture.

// AblationRow is one variant of an ablation study.
type AblationRow struct {
	Variant  string
	AreaMM2  float64
	TDPW     float64
	PeakTOPS float64
	// TOPSPerW is peak TOPS per TDP watt.
	TOPSPerW float64
	// Note carries a study-specific observation (e.g. NoC share).
	Note string
}

// FormatAblation renders an ablation table.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== ablation: %s ==\n", title)
	fmt.Fprintf(&sb, "%-22s %9s %8s %9s %9s  %s\n", "variant", "area-mm2", "TDP-W", "peakTOPS", "TOPS/W", "note")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %9.1f %8.1f %9.2f %9.3f  %s\n",
			r.Variant, r.AreaMM2, r.TDPW, r.PeakTOPS, r.TOPSPerW, r.Note)
	}
	return sb.String()
}

// ablation is one study: a reference design point, and variants that each
// change one axis of its config. note reports the study's observation on
// each variant's chip.
type ablation struct {
	title    string
	name     string // config-name prefix of the variants
	point    Point
	variants []variant
	note     func(c *chip.Chip) string
}

// variant names one setting of an ablation's axis and applies it.
type variant struct {
	name string
	set  func(cfg *chip.Config)
}

// run builds every variant and returns one row each. Budget constraints
// are lifted: an ablation is a what-if, and some variants (e.g. a 256GB/s
// bus spanning 16 tiles) exist precisely to show how badly they blow a
// budget.
func (a ablation) run(cs Constraints) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(a.variants))
	for _, v := range a.variants {
		cfg := cs.Config(a.point)
		cfg.AreaBudgetMM2 = 0
		cfg.PowerBudgetW = 0
		cfg.Name = a.name + "-" + v.name
		v.set(&cfg)
		c, err := chip.BuildCached(cfg)
		if err != nil {
			return nil, fmt.Errorf("dse: ablation %s: %w", cfg.Name, err)
		}
		rows = append(rows, AblationRow{
			Variant: v.name, AreaMM2: c.AreaMM2(), TDPW: c.TDPW(),
			PeakTOPS: c.PeakTOPS(), TOPSPerW: c.PeakTOPSPerWatt(), Note: a.note(c),
		})
	}
	return rows, nil
}

// ablations lists the studies AllAblations runs, in report order.
var ablations = []ablation{
	{
		// The four NoC shapes on a 16-core design at the Table-I bisection
		// bandwidth.
		title: "NoC topology (32x32 TUs, 16 cores)", name: "noc",
		point: Point{X: 32, N: 4, Tx: 4, Ty: 4},
		variants: []variant{
			{"mesh2d", func(cfg *chip.Config) { cfg.NoCTopology = chip.NoCMesh }},
			{"ring", func(cfg *chip.Config) { cfg.NoCTopology = chip.NoCRing }},
			{"bus", func(cfg *chip.Config) { cfg.NoCTopology = chip.NoCBus }},
			{"htree", func(cfg *chip.Config) { cfg.NoCTopology = chip.NoCHTree }},
		},
		note: func(c *chip.Chip) string {
			noc := c.AreaBreakdown().Find("noc")
			return fmt.Sprintf("noc=%.1fmm2/%.1fW", noc.AreaMM2, noc.PowerW)
		},
	},
	{
		// SRAM against eDRAM for the distributed on-chip memory (§II-A:
		// "the cell type of Mem can be selected from DFF, SRAM, and eDRAM").
		title: "memory cell technology (64x64 TUs, 8 cores)", name: "mem",
		point: Point{X: 64, N: 2, Tx: 2, Ty: 4},
		variants: []variant{
			{"sram", func(cfg *chip.Config) { cfg.Core.MemCell = tech.CellSRAM }},
			{"edram", func(cfg *chip.Config) { cfg.Core.MemCell = tech.CellEDRAM }},
		},
		note: func(c *chip.Chip) string {
			mem := c.AreaBreakdown().Find("mem")
			return fmt.Sprintf("mem=%.1fmm2/%.1fW", mem.AreaMM2, mem.PowerW)
		},
	},
	{
		// Unicast (TPU-style) against multicast (Eyeriss-style) inner-TU
		// interconnect on a mid-size array.
		title: "inner-TU interconnect (32x32 TUs)", name: "ic",
		point: Point{X: 32, N: 2, Tx: 2, Ty: 2},
		variants: []variant{
			{"unicast", func(cfg *chip.Config) { cfg.Core.TUInterconnect = tensorunit.Unicast }},
			{"multicast", func(cfg *chip.Config) { cfg.Core.TUInterconnect = tensorunit.Multicast }},
		},
		note: func(c *chip.Chip) string {
			return fmt.Sprintf("tu-crit=%.0fps", c.Core.TU.CritPathPS())
		},
	},
	{
		// The §III-A VReg port-explosion tradeoff: private 2R1W port
		// groups per functional unit versus one shared group.
		title: "VReg port sharing (N=4 TUs per core)", name: "vreg",
		point: Point{X: 16, N: 4, Tx: 2, Ty: 2},
		variants: []variant{
			{"private-ports", func(cfg *chip.Config) { cfg.Core.SharedVRegPorts = false }},
			{"shared-ports", func(cfg *chip.Config) { cfg.Core.SharedVRegPorts = true }},
		},
		note: func(c *chip.Chip) string {
			return fmt.Sprintf("vu=%.2fmm2 (%dR%dW)", c.Core.VU.AreaUM2()/1e6,
				c.Core.VU.Cfg.VRegReadPorts, c.Core.VU.Cfg.VRegWritePorts)
		},
	},
	{
		// Weight-stationary against output-stationary systolic cells
		// (§II-A: both supported for unicast TUs).
		title: "systolic dataflow (64x64 TUs)", name: "df",
		point: Point{X: 64, N: 2, Tx: 2, Ty: 4},
		variants: []variant{
			{"weight-stationary", func(cfg *chip.Config) { cfg.Core.TUDataflow = tensorunit.WeightStationary }},
			{"output-stationary", func(cfg *chip.Config) { cfg.Core.TUDataflow = tensorunit.OutputStationary }},
		},
		note: func(c *chip.Chip) string {
			return fmt.Sprintf("tu=%.1fmm2", c.AreaBreakdown().Find("tu").AreaMM2)
		},
	},
	{
		// Int8 inference arithmetic against a BF16 variant of the same
		// design point — the training-accelerator direction the paper
		// leaves to future work (§III: "NeuroMeter models both training
		// and inference accelerators").
		title: "operand data type (64x64 TUs)", name: "dt",
		point: Point{X: 64, N: 2, Tx: 2, Ty: 4},
		variants: []variant{
			{"int8-inference", func(cfg *chip.Config) { cfg.Core.TUDataType = maclib.Int8 }},
			{"bf16-training", func(cfg *chip.Config) { cfg.Core.TUDataType = maclib.BF16 }},
		},
		note: func(c *chip.Chip) string {
			return fmt.Sprintf("%.2fpJ/MAC", c.Core.TU.PerMACPJ())
		},
	},
}

// AblateNoCTopology compares the four NoC shapes on a 16-core design.
func AblateNoCTopology(cs Constraints) ([]AblationRow, error) { return ablations[0].run(cs) }

// AblateMemoryCell compares SRAM against eDRAM on-chip memory.
func AblateMemoryCell(cs Constraints) ([]AblationRow, error) { return ablations[1].run(cs) }

// AblateInterconnect compares unicast against multicast inner-TU
// interconnect.
func AblateInterconnect(cs Constraints) ([]AblationRow, error) { return ablations[2].run(cs) }

// AblateVRegSharing compares private against shared VReg port groups.
func AblateVRegSharing(cs Constraints) ([]AblationRow, error) { return ablations[3].run(cs) }

// AblateDataflow compares weight- against output-stationary systolic cells.
func AblateDataflow(cs Constraints) ([]AblationRow, error) { return ablations[4].run(cs) }

// AblateDataType compares Int8 against BF16 operands.
func AblateDataType(cs Constraints) ([]AblationRow, error) { return ablations[5].run(cs) }

// AllAblations runs every ablation study and returns the rendered report.
func AllAblations(cs Constraints) (string, error) {
	var sb strings.Builder
	for _, a := range ablations {
		rows, err := a.run(cs)
		if err != nil {
			return "", err
		}
		sb.WriteString(FormatAblation(a.title, rows))
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

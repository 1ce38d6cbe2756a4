package chip

import (
	"fmt"

	"neurometer/internal/pat"
	"neurometer/internal/periph"
)

// patBreakdown aliases pat.Breakdown so report.go stays terse.
type patBreakdown = pat.Breakdown

func newBD(name string, area, power float64) *patBreakdown {
	return pat.NewBreakdown(name, area, power)
}

// Activity carries the runtime statistics a performance simulator feeds
// back into NeuroMeter (Fig. 1 "Runtime Statistics" input): utilizations
// and traffic rates of the microarchitecture components. All rates are
// chip-wide (summed over cores).
type Activity struct {
	// TUMACsPerSec / RTMACsPerSec: MAC operations actually executed.
	TUMACsPerSec float64
	RTMACsPerSec float64
	// VUOpsPerSec: vector lane operations.
	VUOpsPerSec float64
	// SUInstrPerSec: scalar instructions.
	SUInstrPerSec float64
	// MemReadBytesPerSec / MemWriteBytesPerSec: on-chip memory traffic.
	MemReadBytesPerSec  float64
	MemWriteBytesPerSec float64
	// NoCBytesPerSec: bytes injected into the NoC (average-hop routing is
	// applied internally).
	NoCBytesPerSec float64
	// OffChipBytesPerSec: DRAM traffic (DDR, HBM and LPDDR ports).
	OffChipBytesPerSec float64
	// HostBytesPerSec: PCIe traffic.
	HostBytesPerSec float64
	// ICIBytesPerSec: inter-chip traffic.
	ICIBytesPerSec float64
	// CDBBytesPerSec: intra-core bus traffic; zero lets the model derive
	// it from the memory traffic.
	CDBBytesPerSec float64
	// ClockGateIdleFrac is the fraction of idle sequential power removed
	// by clock gating (0 = no gating; the TU/VU idle clock load burns).
	ClockGateIdleFrac float64
}

// RuntimePower returns the chip's runtime power (watts) under the given
// activity, with a per-component breakdown. Unlike TDP, no guardband is
// applied: this is the average power of the running workload.
func (c *Chip) RuntimePower(a Activity) (float64, *pat.Breakdown) {
	bd := pat.NewBreakdown(c.Cfg.Name+"/runtime", 0, 0)
	c.runtimeTerms(a, func(name string, w float64) {
		bd.AddChild(pat.NewBreakdown(name, 0, w))
	})
	return bd.PowerW, bd
}

// runtimeIOKinds are the peripheral kinds the runtime power reports,
// indexed by periph.Kind, in breakdown order.
var runtimeIOKinds = [...]string{
	periph.DDRPort: "ddr", periph.HBMPort: "hbm", periph.PCIePort: "pcie",
	periph.ICILink: "ici", periph.DMAEngine: "dma", periph.LPDDRPort: "lpddr",
}

// runtimeTerms passes each component's runtime power (watts, clamped at
// zero) to term, in breakdown order. RuntimePower builds its breakdown
// from the terms and Efficiency only sums them, in the same order, so the
// two totals are bit-identical.
func (c *Chip) runtimeTerms(a Activity, term func(name string, w float64)) {
	core := c.Core
	tiles := float64(c.tiles)
	add := func(name string, w float64) {
		if w < 0 {
			w = 0
		}
		term(name, w)
	}

	// Idle sequential power: units that are not computing still burn clock
	// unless gated. Modeled as a fraction of the unit's full-rate dynamic
	// power proportional to its idleness.
	idleBurn := func(fullW, usedW float64) float64 {
		idle := fullW*0.30 - usedW*0.30 // clock tree + latches ~30% of dynamic
		if idle < 0 {
			idle = 0
		}
		return idle * (1 - a.ClockGateIdleFrac)
	}

	if core.TU != nil {
		full := core.TU.PerMACPJ() * 1e-12 * float64(core.TU.MACs()) *
			float64(core.Cfg.NumTUs) * tiles * c.clockHz
		used := core.TU.PerMACPJ() * 1e-12 * a.TUMACsPerSec
		leak := core.TU.LeakUW() * float64(core.Cfg.NumTUs) * tiles * 1e-6
		add("tu", used+idleBurn(full, used)+leak)
	}
	if core.RT != nil {
		full := core.RT.PerMACPJ() * 1e-12 * float64(core.RT.MACs()) *
			float64(core.Cfg.NumRTs) * tiles * c.clockHz
		used := core.RT.PerMACPJ() * 1e-12 * a.RTMACsPerSec
		leak := core.RT.LeakUW() * float64(core.Cfg.NumRTs) * tiles * 1e-6
		add("rt", used+idleBurn(full, used)+leak)
	}
	{
		full := core.VU.PerOpPJ() * 1e-12 * float64(core.Cfg.VULanes) * tiles * c.clockHz
		used := core.VU.PerOpPJ() * 1e-12 * a.VUOpsPerSec
		add("vu", used+idleBurn(full, used)+core.VU.LeakUW()*tiles*1e-6)
	}
	if core.SU != nil {
		used := core.SU.PerInstrPJ() * 1e-12 * a.SUInstrPerSec
		add("su", used+core.SU.LeakUW()*tiles*1e-6)
	}
	if core.Mem != nil {
		blk := float64(core.Mem.Segments[0].Spec.BlockBytes)
		rdW := core.Mem.ReadEnergyPJ("") / blk * 1e-12 * a.MemReadBytesPerSec
		wrW := core.Mem.WriteEnergyPJ("") / blk * 1e-12 * a.MemWriteBytesPerSec
		add("mem", rdW+wrW+core.Mem.LeakUW()*tiles*1e-6)
	}
	{
		ctrlW := (core.ifu.DynPJ+core.lsu.DynPJ)*1e-12*c.clockHz*tiles*0.7 +
			(core.ifu.LeakUW+core.lsu.LeakUW)*tiles*1e-6
		add("ctrl", ctrlW)
	}
	{
		cdbBps := a.CDBBytesPerSec
		if cdbBps == 0 {
			cdbBps = a.MemReadBytesPerSec + a.MemWriteBytesPerSec
		}
		add("cdb", core.CDB.EnergyPerBytePJ()*1e-12*cdbBps+core.CDB.LeakUW()*tiles*1e-6)
	}
	add("noc", c.NoC.EnergyPerBytePJ()*1e-12*a.NoCBytesPerSec+c.NoC.LeakUW()*1e-6)

	// Peripherals by traffic class: each reported kind's ports summed in
	// port order, the kinds in runtimeIOKinds order.
	var ioW [len(runtimeIOKinds)]float64
	var ioSeen [len(runtimeIOKinds)]bool
	for _, p := range c.Periph {
		k := p.Cfg.Kind
		if k < 0 || int(k) >= len(ioW) {
			continue
		}
		var bps float64
		switch k {
		case periph.HBMPort, periph.DDRPort, periph.LPDDRPort:
			bps = a.OffChipBytesPerSec
		case periph.PCIePort:
			bps = a.HostBytesPerSec
		case periph.ICILink:
			bps = a.ICIBytesPerSec
		}
		util := 0.0
		if p.Cfg.GBps > 0 {
			util = bps / (p.Cfg.GBps * 1e9)
		}
		ioW[k] += p.PowerW(util)
		ioSeen[k] = true
	}
	for k, name := range runtimeIOKinds {
		if ioSeen[k] {
			add(name, ioW[k])
		}
	}
	add("misc", c.misc.DynPJ*1e-12*c.clockHz*0.5+c.misc.LeakUW*1e-6)
}

// AchievedTOPS converts an op rate into TOPS.
func AchievedTOPS(opsPerSec float64) float64 { return opsPerSec / 1e12 }

// EfficiencySummary bundles the runtime efficiency metrics the case studies
// report for one workload run.
type EfficiencySummary struct {
	AchievedTOPS float64
	Utilization  float64 // achieved / peak
	PowerW       float64
	TOPSPerWatt  float64
	TOPSPerTCO   float64 // achieved TOPS / (area^2 * W)
}

// Efficiency computes the runtime efficiency metrics for an achieved op
// rate under the given activity.
func (c *Chip) Efficiency(opsPerSec float64, a Activity) EfficiencySummary {
	w := 0.0
	c.runtimeTerms(a, func(_ string, tw float64) { w += tw })
	tops := opsPerSec / 1e12
	area := c.AreaMM2()
	return EfficiencySummary{
		AchievedTOPS: tops,
		Utilization:  tops / c.PeakTOPS(),
		PowerW:       w,
		TOPSPerWatt:  tops / w,
		TOPSPerTCO:   tops / (area * area * w),
	}
}

func (e EfficiencySummary) String() string {
	return fmt.Sprintf("achieved=%.2fTOPS util=%.1f%% power=%.1fW %.3fTOPS/W",
		e.AchievedTOPS, e.Utilization*100, e.PowerW, e.TOPSPerWatt)
}

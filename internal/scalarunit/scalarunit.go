// Package scalarunit models NeuroMeter's Scalar Unit (SU): the control-flow
// helper core used for auxiliary operations such as address calculation.
//
// Following the paper, the SU defaults to a simplified "ARM Cortex-A9 core"
// in McPAT's configuration with only the instruction fetch unit (without
// branch prediction), the integer register file, the ALU, and the LSU —
// the rest of the core removed. Each block is a gate-count model plus a
// small register file from memarray; users can reconfigure block sizes.
package scalarunit

import (
	"fmt"

	"neurometer/internal/maclib"
	"neurometer/internal/memarray"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Config describes a scalar unit. Gate counts of zero select the defaults
// of the simplified Cortex-A9 configuration.
type Config struct {
	Node tech.Node
	// IFUGates, LSUGates: NAND2-equivalent complexity of the fetch and
	// load/store blocks.
	IFUGates float64
	LSUGates float64
	// IntRegEntries x 32-bit integer register file (default 32).
	IntRegEntries int
	// ICacheBytes: small instruction buffer (default 16 KiB).
	ICacheBytes int64
	// CyclePS is the target clock period.
	CyclePS float64
}

// Defaults for the simplified A9: the in-order front end without branch
// prediction plus fetch queues and sequencing (~90k gates), and the
// AGU/LSU with its store buffers and bus interface (~70k gates), per the
// McPAT-derived configuration the paper references.
const (
	defaultIFUGates = 90e3
	defaultLSUGates = 70e3
)

// Unit is an evaluated scalar unit.
type Unit struct {
	Cfg Config

	ifu, alu, lsu pat.Result
	regfile       *memarray.Array
	icache        *memarray.Array
	areaUM2       float64
	leakUW        float64
	perInstrPJ    float64
	critPS        float64
}

// Build evaluates a scalar unit.
func Build(cfg Config) (*Unit, error) {
	if cfg.CyclePS <= 0 {
		return nil, fmt.Errorf("scalarunit: CyclePS must be positive")
	}
	n := cfg.Node
	if cfg.IFUGates <= 0 {
		cfg.IFUGates = defaultIFUGates
	}
	if cfg.LSUGates <= 0 {
		cfg.LSUGates = defaultLSUGates
	}
	if cfg.IntRegEntries <= 0 {
		cfg.IntRegEntries = 32
	}
	if cfg.ICacheBytes <= 0 {
		cfg.ICacheBytes = 32 << 10
	}
	u := &Unit{Cfg: cfg}

	mk := func(gates, activity float64) pat.Result {
		a, d, l := n.LogicBlock(gates, activity)
		return pat.Result{AreaUM2: a, DynPJ: d, LeakUW: l, DelayPS: 14 * n.FO4PS}
	}
	u.ifu = mk(cfg.IFUGates, 0.15)
	u.lsu = mk(cfg.LSUGates, 0.12)
	u.alu = maclib.ALU(n, maclib.Int32)

	rf, err := memarray.BuildCached(memarray.Config{
		Node: n, Cell: tech.CellDFF,
		CapacityBytes: int64(cfg.IntRegEntries) * 4,
		BlockBytes:    4,
		Banks:         1, ReadPorts: 2, WritePorts: 1,
		CyclePS: cfg.CyclePS,
	})
	if err != nil {
		return nil, fmt.Errorf("scalarunit: regfile: %w", err)
	}
	u.regfile = rf

	ic, err := memarray.BuildCached(memarray.Config{
		Node: n, Cell: tech.CellSRAM,
		CapacityBytes: cfg.ICacheBytes,
		BlockBytes:    8,
		Banks:         1, ReadPorts: 1, WritePorts: 1,
		CyclePS: cfg.CyclePS,
	})
	if err != nil {
		return nil, fmt.Errorf("scalarunit: icache: %w", err)
	}
	u.icache = ic

	u.areaUM2 = (u.ifu.AreaUM2+u.alu.AreaUM2+u.lsu.AreaUM2)*1.2 +
		rf.AreaUM2() + ic.AreaUM2()
	u.leakUW = u.ifu.LeakUW + u.alu.LeakUW + u.lsu.LeakUW + rf.LeakUW() + ic.LeakUW()
	// Per instruction: fetch (icache read + IFU), 2 reg reads + 1 write,
	// ALU, and an LSU share.
	u.perInstrPJ = ic.ReadEnergyPJ() + u.ifu.DynPJ +
		2*rf.ReadEnergyPJ() + rf.WriteEnergyPJ() +
		u.alu.DynPJ + 0.3*u.lsu.DynPJ
	u.critPS = u.alu.DelayPS
	for _, d := range []float64{u.ifu.DelayPS, u.lsu.DelayPS, rf.AccessDelayPS()} {
		if d > u.critPS {
			u.critPS = d
		}
	}
	return u, nil
}

// AreaUM2 returns total SU area.
func (u *Unit) AreaUM2() float64 { return u.areaUM2 }

// PerInstrPJ returns dynamic energy per scalar instruction.
func (u *Unit) PerInstrPJ() float64 { return u.perInstrPJ }

// LeakUW returns total leakage.
func (u *Unit) LeakUW() float64 { return u.leakUW }

// CritPathPS returns the slowest stage delay.
func (u *Unit) CritPathPS() float64 { return u.critPS }

// MeetsTiming reports whether the SU fits its cycle.
func (u *Unit) MeetsTiming() bool { return u.critPS <= u.Cfg.CyclePS }

// Result summarizes the unit; DynPJ is per instruction.
func (u *Unit) Result() pat.Result {
	return pat.Result{AreaUM2: u.areaUM2, DynPJ: u.perInstrPJ, LeakUW: u.leakUW, DelayPS: u.critPS}
}

func (u *Unit) String() string {
	return fmt.Sprintf("su[a9-lite area=%.3fmm2 %.2fpJ/instr]", u.areaUM2/1e6, u.perInstrPJ)
}

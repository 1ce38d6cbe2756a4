// Package vectorunit models NeuroMeter's 1-D Vector Unit (VU) and the
// Vector Register file (VReg) that is the data-exchange hub of the core.
//
// The VU processes pooling, activation, normalization variants and merges
// partial sums when an operator must be tiled across TUs (§II-A). The VReg
// width and port count follow the paper's auto-scaling rules: lanes match
// the TU array length; each functional unit gets 2 read + 1 write private
// ports (4R2W for the classic single-TU dual-issue core); multiple TUs may
// share a port group.
package vectorunit

import (
	"fmt"
	"math"

	"neurometer/internal/circuit"
	"neurometer/internal/maclib"
	"neurometer/internal/memarray"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Config describes a vector unit with its register file.
type Config struct {
	Node tech.Node
	// Lanes is the number of parallel vector lanes (auto-scaled to the TU
	// array length by the chip builder).
	Lanes int
	// ElemType is the lane datapath format.
	ElemType maclib.DataType
	// HasMAC adds a multiplier per lane (for psum merging with scaling and
	// for VU-only accelerators such as EIE); otherwise lanes carry an ALU.
	HasMAC bool
	// VRegEntries is the number of architectural vector registers
	// (default 32).
	VRegEntries int
	// VRegReadPorts / VRegWritePorts: total port counts on the VReg.
	// Zero means the default dual-issue 4R2W.
	VRegReadPorts  int
	VRegWritePorts int
	// CyclePS is the target clock period.
	CyclePS float64
}

const clockOverhead = 1.35

// Unit is an evaluated vector unit + VReg.
type Unit struct {
	Cfg Config

	lane    pat.Result      // one lane datapath
	vreg    *memarray.Array // one per-lane slice
	lanes   float64
	perOpPJ float64 // per lane-op energy incl. VReg traffic
	areaUM2 float64
	leakUW  float64
	critPS  float64
}

// Build evaluates the vector unit.
func Build(cfg Config) (*Unit, error) {
	if cfg.Lanes <= 0 {
		return nil, fmt.Errorf("vectorunit: lanes must be positive, got %d", cfg.Lanes)
	}
	if cfg.CyclePS <= 0 {
		return nil, fmt.Errorf("vectorunit: CyclePS must be positive")
	}
	n := cfg.Node
	entries := cfg.VRegEntries
	if entries <= 0 {
		entries = 32
	}
	rp, wp := cfg.VRegReadPorts, cfg.VRegWritePorts
	if rp <= 0 {
		rp = 4
	}
	if wp <= 0 {
		wp = 2
	}
	u := &Unit{Cfg: cfg}
	u.Cfg.VRegEntries = entries
	u.Cfg.VRegReadPorts = rp
	u.Cfg.VRegWritePorts = wp

	// ---- Lane datapath -----------------------------------------------------
	alu := maclib.ALU(n, cfg.ElemType)
	lane := alu
	if cfg.HasMAC {
		lane = lane.Add(maclib.Mult(n, cfg.ElemType))
	}
	// Operand/result registers and a small LUT for activation functions.
	regs := circuit.Register{Node: n, Bits: 3 * cfg.ElemType.Bits()}.Eval()
	regs.DynPJ *= clockOverhead
	lutArea, lutDyn, lutLeak := n.LogicBlock(300, 0.2)
	lane = lane.Add(regs)
	lane.AreaUM2 += lutArea
	lane.DynPJ += lutDyn
	lane.LeakUW += lutLeak
	u.lane = lane

	// ---- VReg ---------------------------------------------------------------
	// One vector register = Lanes elements, but the file is physically
	// sliced per lane: each lane owns its (entries x elemBytes) slice next
	// to its datapath, so no global routing is needed and the port cost is
	// paid in the multi-ported cells. This is also where the paper's
	// "VReg overhead explosion" with many TUs per core comes from: every
	// extra port grows each slice's cells.
	elemBytes := cfg.ElemType.Bits() / 8
	slice, err := memarray.BuildCached(memarray.Config{
		Node: n, Cell: tech.CellDFF,
		CapacityBytes: int64(entries) * int64(elemBytes),
		BlockBytes:    elemBytes,
		Banks:         1,
		ReadPorts:     rp,
		WritePorts:    wp,
		CyclePS:       cfg.CyclePS,
	})
	if err != nil {
		return nil, fmt.Errorf("vectorunit: vreg slice: %w", err)
	}
	u.vreg = slice
	u.lanes = float64(cfg.Lanes)

	u.areaUM2 = (lane.AreaUM2 + slice.AreaUM2()) * float64(cfg.Lanes) * 1.25
	u.leakUW = (lane.LeakUW + slice.LeakUW()) * float64(cfg.Lanes)
	// Per lane-op: the lane itself plus a 2-read 1-write access pattern on
	// its own slice.
	u.perOpPJ = lane.DynPJ + 2*slice.ReadEnergyPJ() + slice.WriteEnergyPJ()
	u.critPS = math.Max(lane.DelayPS, slice.AccessDelayPS())
	return u, nil
}

// AreaUM2 returns total area (lanes + VReg).
func (u *Unit) AreaUM2() float64 { return u.areaUM2 }

// VRegAreaUM2 returns the register-file share of the area (all slices).
func (u *Unit) VRegAreaUM2() float64 { return u.vreg.AreaUM2() * u.lanes * 1.25 }

// PerOpPJ returns dynamic energy per lane operation including VReg traffic.
func (u *Unit) PerOpPJ() float64 { return u.perOpPJ }

// LeakUW returns total leakage.
func (u *Unit) LeakUW() float64 { return u.leakUW }

// CritPathPS returns the slowest stage delay.
func (u *Unit) CritPathPS() float64 { return u.critPS }

// MeetsTiming reports whether the unit fits its cycle. VReg accesses are
// allowed one full pipeline stage of their own.
func (u *Unit) MeetsTiming() bool { return u.critPS <= u.Cfg.CyclePS }

// VReg exposes the per-lane register-file slice model.
func (u *Unit) VReg() *memarray.Array { return u.vreg }

// PeakOpsPerCycle reports Lanes ops per cycle (2*Lanes when lanes have MACs).
func (u *Unit) PeakOpsPerCycle() float64 {
	if u.Cfg.HasMAC {
		return 2 * float64(u.Cfg.Lanes)
	}
	return float64(u.Cfg.Lanes)
}

// Result summarizes the unit; DynPJ is per lane-op.
func (u *Unit) Result() pat.Result {
	return pat.Result{AreaUM2: u.areaUM2, DynPJ: u.perOpPJ, LeakUW: u.leakUW, DelayPS: u.critPS}
}

func (u *Unit) String() string {
	return fmt.Sprintf("vu[%d lanes %s mac=%v vreg=%dx%dB %dR%dW area=%.3fmm2]",
		u.Cfg.Lanes, u.Cfg.ElemType, u.Cfg.HasMAC, u.Cfg.VRegEntries,
		u.Cfg.Lanes*u.Cfg.ElemType.Bits()/8, u.Cfg.VRegReadPorts, u.Cfg.VRegWritePorts,
		u.areaUM2/1e6)
}

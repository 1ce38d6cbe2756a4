package chip

import (
	"fmt"
	"math"
	"sort"

	"neurometer/internal/guard"
	"neurometer/internal/noc"
	"neurometer/internal/obs"
	"neurometer/internal/pat"
	"neurometer/internal/periph"
	"neurometer/internal/tech"
)

// Observability: PAT evaluations are counted in the obs default registry —
// chip.builds counts attempts, chip.build_failures the configurations
// rejected for validation, timing, or budget reasons.
var (
	mBuilds        = obs.NewCounter("chip.builds")
	mBuildFailures = obs.NewCounter("chip.build_failures")
)

// TDP assumptions: activity factors at thermal design conditions, and the
// guardband that chip vendors rate TDP above the modeled worst realistic
// power (voltage/temperature margin, power viruses).
const (
	tdpActTU     = 1.0
	tdpActVU     = 0.5
	tdpActMem    = 0.85
	tdpActNoC    = 0.5
	tdpActSU     = 0.7
	tdpActCDB    = 0.7
	tdpActIO     = 0.9
	tdpGuardband = 1.15
)

// Chip is a fully evaluated accelerator chip.
type Chip struct {
	Cfg  Config
	Node tech.Node

	Core   *Core
	NoC    *noc.Network
	Periph []*periph.Port

	clockHz float64
	cyclePS float64
	tiles   int

	// misc is the top-level control/config/clock-spine logic block.
	misc pat.Result

	// Fixed at Build, like everything else in a Chip: the die area, the
	// TDP, and the summed bandwidth of the DRAM ports.
	areaMM2, tdpW, offChipGBps float64
}

// Build constructs and evaluates a chip from the high-level configuration,
// performing the clock search, budget checks, and a finite-number guard
// over the headline report metrics (a chip whose area/TDP/peak evaluates
// to NaN or Inf is rejected with guard.ErrNonFinite rather than leaking
// into frontiers or CSV output). Panics from the model stack are converted
// to guard.ErrCandidatePanic errors at this boundary.
func Build(cfg Config) (c *Chip, err error) {
	mBuilds.Inc()
	defer func() {
		if err != nil {
			c = nil
			mBuildFailures.Inc()
		}
	}()
	defer guard.RecoverTo(&err)
	if err := guard.Inject(nil, "chip.build"); err != nil {
		return nil, err
	}
	c, err = build(cfg)
	if err != nil {
		return nil, err
	}
	if ferr := guard.CheckFinites(
		"peak_tops", c.PeakTOPS(), "area_mm2", c.AreaMM2(), "tdp_w", c.TDPW(),
		"tops_per_w", c.PeakTOPSPerWatt(), "tops_per_tco", c.PeakTOPSPerTCO(),
	); ferr != nil {
		return nil, fmt.Errorf("chip %q: %w", cfg.Name, ferr)
	}
	return c, nil
}

func build(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	node, err := tech.ByNode(cfg.TechNM)
	if err != nil {
		return nil, err
	}
	if cfg.Vdd > 0 {
		node = node.WithVdd(cfg.Vdd)
	}
	tiles := cfg.Tx * cfg.Ty

	// ---- Clock: fixed, or solved from the TOPS target -----------------------
	clockHz := cfg.ClockHz
	if clockHz <= 0 {
		// Peak ops/cycle depends only on the static configuration; solve
		// clock = TOPS / opsPerCycle, then verify timing below.
		probe, err := buildCore(cfg.Core, node, 1e6) // relaxed cycle probe
		if err != nil {
			return nil, err
		}
		opsPerCycle := probe.PeakOpsPerCycle() * float64(tiles)
		if opsPerCycle <= 0 {
			return nil, fmt.Errorf("chip: zero peak throughput")
		}
		clockHz = cfg.TargetTOPS * 1e12 / opsPerCycle
	}
	cyclePS := 1e12 / clockHz

	c := &Chip{Cfg: cfg, Node: node, clockHz: clockHz, cyclePS: cyclePS, tiles: tiles}

	// ---- Core ------------------------------------------------------------------
	core, err := buildCore(cfg.Core, node, cyclePS)
	if err != nil {
		return nil, err
	}
	c.Core = core
	if core.CritPathPS() > cyclePS {
		return nil, fmt.Errorf("chip: timing failure: core critical path %.0fps exceeds cycle %.0fps (%.0f MHz)",
			core.CritPathPS(), cyclePS, clockHz/1e6)
	}

	// ---- NoC --------------------------------------------------------------------
	tileMM := math.Sqrt(core.AreaUM2()*1.1) / 1000
	network, err := noc.Build(noc.Config{
		Node:     node,
		Topology: cfg.NoCTopology.resolve(tiles),
		Tx:       cfg.Tx, Ty: cfg.Ty,
		TileMM:        tileMM,
		BisectionGBps: cfg.NoCBisectionGBps,
		CyclePS:       cyclePS,
	})
	if err != nil {
		return nil, err
	}
	c.NoC = network

	// ---- Peripherals ---------------------------------------------------------------
	for _, op := range cfg.OffChip {
		count := op.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			p, err := periph.Build(periph.Config{Node: node, Kind: op.Kind, GBps: op.GBps})
			if err != nil {
				return nil, err
			}
			c.Periph = append(c.Periph, p)
		}
	}

	// ---- Top-level misc logic --------------------------------------------------------
	a, d, l := node.LogicBlock(150e3, 0.2)
	c.misc = pat.Result{AreaUM2: a, DynPJ: d, LeakUW: l}

	c.areaMM2 = c.areaWithWhiteSpaceMM2()
	c.tdpW = c.sumTDPW()
	c.offChipGBps = c.dramGBps()

	// ---- Budgets -----------------------------------------------------------------------
	if cfg.AreaBudgetMM2 > 0 && c.AreaMM2() > cfg.AreaBudgetMM2 {
		return nil, guard.Infeasible("chip: area %.1fmm2 exceeds budget %.1fmm2", c.AreaMM2(), cfg.AreaBudgetMM2)
	}
	if cfg.PowerBudgetW > 0 && c.TDPW() > cfg.PowerBudgetW {
		return nil, guard.Infeasible("chip: TDP %.1fW exceeds budget %.1fW", c.TDPW(), cfg.PowerBudgetW)
	}
	return c, nil
}

// ClockHz returns the resolved clock.
func (c *Chip) ClockHz() float64 { return c.clockHz }

// CyclePS returns the clock period in picoseconds.
func (c *Chip) CyclePS() float64 { return c.cyclePS }

// Tiles returns the core count.
func (c *Chip) Tiles() int { return c.tiles }

// PeakTOPS returns the chip's peak compute throughput in tera-ops/sec.
func (c *Chip) PeakTOPS() float64 {
	return c.Core.PeakOpsPerCycle() * float64(c.tiles) * c.clockHz / 1e12
}

// modeledAreaUM2 is the area of the modeled components (pre white space).
func (c *Chip) modeledAreaUM2() float64 {
	a := c.Core.AreaUM2()*float64(c.tiles) + c.NoC.AreaUM2() + c.misc.AreaUM2
	for _, p := range c.Periph {
		a += p.AreaUM2()
	}
	return a
}

// AreaMM2 returns the total die area including the configured white space.
func (c *Chip) AreaMM2() float64 { return c.areaMM2 }

// areaWithWhiteSpaceMM2 works out AreaMM2 once, at Build.
func (c *Chip) areaWithWhiteSpaceMM2() float64 {
	modeled := c.modeledAreaUM2() / 1e6
	ws := c.Cfg.WhiteSpaceFrac
	if ws <= 0 || ws >= 1 {
		return modeled
	}
	return modeled / (1 - ws)
}

// tdpPart numbers a TDP contribution: the core parts, then one per
// peripheral kind (tdpPeriph + the kind).
type tdpPart int

const (
	tdpTU tdpPart = iota
	tdpRT
	tdpVU
	tdpSU
	tdpMem
	tdpCtrl
	tdpCDB
	tdpNoC
	tdpMisc
	tdpPeriph
	numTDPParts = tdpPeriph + tdpPart(periph.LPDDRPort) + 1
)

var tdpCoreNames = [tdpPeriph]string{"tu", "rt", "vu", "su", "mem", "ctrl", "cdb", "noc", "misc"}

// String returns the part's tdpParts name.
func (p tdpPart) String() string {
	if p < tdpPeriph {
		return tdpCoreNames[p]
	}
	return periph.Kind(p - tdpPeriph).String()
}

// tdpOrder lists the parts sorted by name. sumTDPW adds them in this
// order, so the float additions always run in one order whatever parts a
// chip has.
var tdpOrder = func() (o [numTDPParts]tdpPart) {
	for i := range o {
		o[i] = tdpPart(i)
	}
	sort.Slice(o[:], func(i, j int) bool { return o[i].String() < o[j].String() })
	return o
}()

// tdpTerms are the TDP contributions in watts (pre guardband), by part;
// has marks the parts the chip has, and a part it lacks reads +0. A
// peripheral kind sums its ports in port order.
type tdpTerms struct {
	w   [numTDPParts]float64
	has [numTDPParts]bool
}

func (t *tdpTerms) set(p tdpPart, w float64) { t.w[p], t.has[p] = w, true }

// tdp works out the TDP contributions.
func (c *Chip) tdp() tdpTerms {
	var t tdpTerms
	hz := c.clockHz
	tiles := float64(c.tiles)
	core := c.Core

	if core.TU != nil {
		macs := float64(core.TU.MACs()) * float64(core.Cfg.NumTUs) * tiles
		t.set(tdpTU, core.TU.PerMACPJ()*1e-12*macs*hz*tdpActTU+
			core.TU.LeakUW()*float64(core.Cfg.NumTUs)*tiles*1e-6)
	}
	if core.RT != nil {
		macs := float64(core.RT.MACs()) * float64(core.Cfg.NumRTs) * tiles
		t.set(tdpRT, core.RT.PerMACPJ()*1e-12*macs*hz*tdpActTU+
			core.RT.LeakUW()*float64(core.Cfg.NumRTs)*tiles*1e-6)
	}
	lanes := float64(core.Cfg.VULanes)
	t.set(tdpVU, core.VU.PerOpPJ()*1e-12*lanes*hz*tdpActVU*tiles+
		core.VU.LeakUW()*tiles*1e-6)
	if core.SU != nil {
		t.set(tdpSU, core.SU.PerInstrPJ()*1e-12*hz*tdpActSU*tiles+
			core.SU.LeakUW()*tiles*1e-6)
	}
	if core.Mem != nil {
		perCycle := 0.0
		for _, seg := range core.Mem.Segments {
			blk := float64(seg.Spec.BlockBytes)
			perCycle += seg.Spec.ReadBytesPerCycle / blk * seg.Data.ReadEnergyPJ()
			perCycle += seg.Spec.WriteBytesPerCycle / blk * seg.Data.WriteEnergyPJ()
		}
		t.set(tdpMem, perCycle*1e-12*hz*tdpActMem*tiles+core.Mem.LeakUW()*tiles*1e-6)
	}
	t.set(tdpCtrl, (core.ifu.DynPJ+core.lsu.DynPJ)*1e-12*hz*tiles+
		(core.ifu.LeakUW+core.lsu.LeakUW)*tiles*1e-6)
	// CDB: the compute units' streaming traffic (operands in, results out).
	cdbBytesPerCycle := core.cdbBPC
	if cdbBytesPerCycle == 0 {
		cdbBytesPerCycle = core.memReadBPC + core.memWriteBPC
	}
	t.set(tdpCDB, c.Core.CDB.EnergyPerBytePJ()*cdbBytesPerCycle*1e-12*hz*tdpActCDB*tiles+
		core.CDB.LeakUW()*tiles*1e-6)
	// NoC at a fraction of peak injection bandwidth.
	flitsPerCycle := c.NoC.PeakBytesPerCycle() / (float64(c.NoC.FlitBits()) / 8)
	t.set(tdpNoC, c.NoC.EnergyPerFlitHopPJ()*c.NoC.AvgHops()*flitsPerCycle*1e-12*hz*tdpActNoC+
		c.NoC.LeakUW()*1e-6)
	for _, p := range c.Periph {
		k := tdpPeriph + tdpPart(p.Cfg.Kind)
		t.set(k, t.w[k]+p.PowerW(tdpActIO))
	}
	t.set(tdpMisc, c.misc.DynPJ*1e-12*hz+c.misc.LeakUW*1e-6)
	return t
}

// tdpParts returns the named TDP contributions in watts (pre guardband) of
// the parts the chip has.
func (c *Chip) tdpParts() map[string]float64 {
	t := c.tdp()
	parts := map[string]float64{}
	for p := range numTDPParts {
		if t.has[p] {
			parts[p.String()] = t.w[p]
		}
	}
	return parts
}

// TDPW returns the chip thermal design power in watts.
func (c *Chip) TDPW() float64 { return c.tdpW }

// sumTDPW works out TDPW once, at Build, adding the contributions in
// tdpOrder (TestStoredTDPAndArea recomputes the sum from the sorted
// tdpParts map). A part the chip lacks adds +0, which leaves the sum
// unchanged.
func (c *Chip) sumTDPW() float64 {
	t := c.tdp()
	var total float64
	for _, p := range tdpOrder {
		total += t.w[p]
	}
	return total * tdpGuardband
}

// OffChipGBps returns the summed bandwidth of the DRAM ports (DDR, HBM and
// LPDDR), in port order.
func (c *Chip) OffChipGBps() float64 { return c.offChipGBps }

func (c *Chip) dramGBps() float64 {
	var total float64
	for _, p := range c.Periph {
		switch p.Cfg.Kind {
		case periph.HBMPort, periph.DDRPort, periph.LPDDRPort:
			total += p.Cfg.GBps
		}
	}
	return total
}

// LeakageW returns the total static leakage.
func (c *Chip) LeakageW() float64 {
	l := c.Core.LeakUW()*float64(c.tiles) + c.NoC.LeakUW() + c.misc.LeakUW
	for _, p := range c.Periph {
		l += p.IdleW() * 1e6
	}
	return l * 1e-6
}

// PeakTOPSPerWatt returns peak TOPS per TDP watt.
func (c *Chip) PeakTOPSPerWatt() float64 { return c.PeakTOPS() / c.TDPW() }

// PeakTOPSPerTCO approximates peak cost efficiency as TOPS/mm^4/W: die cost
// grows roughly with area squared (§III-A.3).
func (c *Chip) PeakTOPSPerTCO() float64 {
	a := c.AreaMM2()
	return c.PeakTOPS() / (a * a * c.TDPW())
}

func (c *Chip) String() string {
	return fmt.Sprintf("chip[%s %dnm %dx%d cores @%.0fMHz peak=%.1fTOPS area=%.1fmm2 tdp=%.1fW]",
		c.Cfg.Name, c.Cfg.TechNM, c.Cfg.Tx, c.Cfg.Ty, c.clockHz/1e6,
		c.PeakTOPS(), c.AreaMM2(), c.TDPW())
}

// Package onchipmem models NeuroMeter's on-chip memory (Mem): the storage
// that holds weights and feature maps. It can be organized as a
// software-managed scratchpad (most ML ASICs) or as a cache (which adds tag
// arrays and comparators), and as a unified structure (weights and
// activations together, as in TPU-v1) or a dedicated structure where each
// segment has its own functionality (as in Eyeriss). Cell type is
// selectable among DFF, SRAM and eDRAM; banking is automatic via the
// memarray optimizer (§II-A).
package onchipmem

import (
	"fmt"

	"neurometer/internal/memarray"
	"neurometer/internal/pat"
	"neurometer/internal/tech"
)

// Style selects scratchpad or cache organization.
type Style int

const (
	Scratchpad Style = iota
	Cache
)

func (s Style) String() string {
	if s == Cache {
		return "cache"
	}
	return "scratchpad"
}

// Segment is one functional region of a dedicated memory structure.
type Segment struct {
	Name          string
	CapacityBytes int64
	BlockBytes    int
	// Banks / ReadPorts / WritePorts: 0 = let the optimizer search.
	Banks      int
	ReadPorts  int
	WritePorts int
	// ReadBytesPerCycle / WriteBytesPerCycle: sustained throughput targets.
	ReadBytesPerCycle  float64
	WriteBytesPerCycle float64
}

// Config describes an on-chip memory. A unified structure is a Config with
// a single segment.
type Config struct {
	Node     tech.Node
	Cell     tech.MemCell
	Style    Style
	Segments []Segment
	// CyclePS is the clock the memory must keep up with.
	CyclePS float64
	// TargetLatencyPS optionally bounds random-access latency.
	TargetLatencyPS float64
	// CacheLineBytes / CacheWays parameterize the tag overhead when
	// Style == Cache (defaults 64 B, 8 ways).
	CacheLineBytes int
	CacheWays      int
}

// BuiltSegment pairs a segment spec with its evaluated array (and tag array
// for caches).
type BuiltSegment struct {
	Spec Segment
	Data *memarray.Array
	Tags *memarray.Array // nil for scratchpads
}

// Mem is an evaluated on-chip memory.
type Mem struct {
	Cfg      Config
	Segments []BuiltSegment
}

// Build evaluates the memory.
func Build(cfg Config) (*Mem, error) {
	if len(cfg.Segments) == 0 {
		return nil, fmt.Errorf("onchipmem: at least one segment required")
	}
	if cfg.CyclePS <= 0 {
		return nil, fmt.Errorf("onchipmem: CyclePS must be positive")
	}
	m := &Mem{Cfg: cfg}
	for _, seg := range cfg.Segments {
		data, err := memarray.BuildCached(memarray.Config{
			Node: cfg.Node, Cell: cfg.Cell,
			CapacityBytes:      seg.CapacityBytes,
			BlockBytes:         seg.BlockBytes,
			Banks:              seg.Banks,
			ReadPorts:          seg.ReadPorts,
			WritePorts:         seg.WritePorts,
			CyclePS:            cfg.CyclePS,
			TargetLatencyPS:    cfg.TargetLatencyPS,
			ReadBytesPerCycle:  seg.ReadBytesPerCycle,
			WriteBytesPerCycle: seg.WriteBytesPerCycle,
		})
		if err != nil {
			return nil, fmt.Errorf("onchipmem: segment %q: %w", seg.Name, err)
		}
		built := BuiltSegment{Spec: seg, Data: data}
		if cfg.Style == Cache {
			line := cfg.CacheLineBytes
			if line <= 0 {
				line = 64
			}
			ways := cfg.CacheWays
			if ways <= 0 {
				ways = 8
			}
			lines := seg.CapacityBytes / int64(line)
			if lines < 1 {
				lines = 1
			}
			// ~4 B of tag+state per line.
			tags, err := memarray.BuildCached(memarray.Config{
				Node: cfg.Node, Cell: tech.CellSRAM,
				CapacityBytes: max64(lines*4, 64),
				BlockBytes:    4 * ways,
				Banks:         seg.Banks,
				ReadPorts:     seg.ReadPorts,
				WritePorts:    seg.WritePorts,
				CyclePS:       cfg.CyclePS,
			})
			if err != nil {
				return nil, fmt.Errorf("onchipmem: segment %q tags: %w", seg.Name, err)
			}
			built.Tags = tags
		}
		m.Segments = append(m.Segments, built)
	}
	return m, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CapacityBytes returns the total data capacity.
func (m *Mem) CapacityBytes() int64 {
	var total int64
	for _, s := range m.Segments {
		total += s.Spec.CapacityBytes
	}
	return total
}

// AreaUM2 returns total area including tags.
func (m *Mem) AreaUM2() float64 {
	var a float64
	for _, s := range m.Segments {
		a += s.Data.AreaUM2()
		if s.Tags != nil {
			a += s.Tags.AreaUM2()
		}
	}
	return a
}

// LeakUW returns total leakage.
func (m *Mem) LeakUW() float64 {
	var l float64
	for _, s := range m.Segments {
		l += s.Data.LeakUW()
		if s.Tags != nil {
			l += s.Tags.LeakUW()
		}
	}
	return l
}

// ReadEnergyPJ returns the energy of one block read of the named segment
// (or the first segment when name is empty), including the tag access for
// caches.
func (m *Mem) ReadEnergyPJ(name string) float64 {
	s := m.segment(name)
	if s == nil {
		return 0
	}
	e := s.Data.ReadEnergyPJ()
	if s.Tags != nil {
		e += s.Tags.ReadEnergyPJ()
	}
	return e
}

// WriteEnergyPJ is the write counterpart of ReadEnergyPJ.
func (m *Mem) WriteEnergyPJ(name string) float64 {
	s := m.segment(name)
	if s == nil {
		return 0
	}
	e := s.Data.WriteEnergyPJ()
	if s.Tags != nil {
		e += s.Tags.ReadEnergyPJ() // tag check precedes the data write
	}
	return e
}

// AccessDelayPS returns the worst random-access latency across segments.
func (m *Mem) AccessDelayPS() float64 {
	var d float64
	for _, s := range m.Segments {
		if s.Data.AccessDelayPS() > d {
			d = s.Data.AccessDelayPS()
		}
	}
	return d
}

func (m *Mem) segment(name string) *BuiltSegment {
	if name == "" {
		return &m.Segments[0]
	}
	for i := range m.Segments {
		if m.Segments[i].Spec.Name == name {
			return &m.Segments[i]
		}
	}
	return nil
}

// Segment returns the built segment with the given name, or nil.
func (m *Mem) Segment(name string) *BuiltSegment { return m.segment(name) }

// Result summarizes the memory; DynPJ is the average read+write energy of
// the first segment.
func (m *Mem) Result() pat.Result {
	return pat.Result{
		AreaUM2: m.AreaUM2(),
		DynPJ:   (m.ReadEnergyPJ("") + m.WriteEnergyPJ("")) / 2,
		LeakUW:  m.LeakUW(),
		DelayPS: m.AccessDelayPS(),
	}
}

func (m *Mem) String() string {
	return fmt.Sprintf("mem[%s %s %dB in %d segments area=%.2fmm2]",
		m.Cfg.Style, m.Cfg.Cell, m.CapacityBytes(), len(m.Segments), m.AreaUM2()/1e6)
}

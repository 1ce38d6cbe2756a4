package memarray

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"neurometer/internal/tech"
)

// Array memoization. A chip build asks for a handful of arrays, and a
// design-space sweep asks for the same few array geometries over and over
// with different bank/port demands: a cold Table I enumeration requests 240
// arrays that score 946 organizations, only 338 of them distinct. What
// evaluate returns depends only on the geometry (node, cell, capacity,
// block, clock) and the bank/port organization, never on the throughput
// or latency targets, so BuildCached keeps each scored organization per
// geometry and the search around it runs unchanged: its throughput and
// latency filters and cost comparison see the same values a fresh Build
// computes. An entry also keeps the *Array (or error) of each demand it
// answered, so the 60 chips of a Table I enumeration share the arrays of
// 65 distinct requests rather than hold 240.
//
// The memo holds at most arrayMemoCap geometries, and about orgMemoCap
// organizations and demandMemoCap demands. It is emptied when a new
// geometry would pass the first bound, or when a request finds either of
// the others reached (one request adds at most orgSlots organizations and
// one demand), as chip.BuildCached's is when full. Emptying it costs only
// re-scoring: Build is deterministic.
var (
	arrayMu   sync.Mutex
	arrayMemo = map[geometry]*geomEntry{}
	// memoOrgs and memoDemands count the organizations and demands stored
	// since the memo was last emptied (searches still running on a dropped
	// entry may add to them, so they never under-count what it holds).
	memoOrgs, memoDemands atomic.Int64
)

// Memo bounds. A 4,096-point study touches about a hundred geometries,
// 1,600 distinct organizations and 3,200 distinct demands. An entry takes
// about 1.4 KB with room for orgsPerGeometry organizations of 64 bytes,
// and a demand about 450 bytes with its Array; filled close to all three
// bounds at once the memo holds about 3 MB.
const (
	arrayMemoCap  = 1024
	orgMemoCap    = 16384
	demandMemoCap = 4096
)

// orgsPerGeometry sizes a new entry's organization list: room for the 13
// bank counts a search without a latency target scores at most, and a few
// more from other demands. A fuller list grows.
const orgsPerGeometry = 16

// geometry is what evaluate reads of a Config. Node fields compare with
// ==; the clock is keyed on its bits.
type geometry struct {
	node     tech.Node
	cell     tech.MemCell
	capacity int64
	block    int
	cycle    uint64
}

// demand is the rest of a Config: what the search filters organizations
// by. Floats are keyed on their bits, so a demand hit returns an Array
// whose Cfg is bit-identical to the request.
type demand struct {
	banks, rp, wp     int
	readBPC, writeBPC uint64
	latency           uint64
}

// orgSlots numbers the organizations of the optimizer's search space: the
// power-of-two bank counts up to maxBanks times 1 to 4 read and write
// ports.
const orgSlots = (maxBankLog + 1) * len(searchPorts) * len(searchPorts)

// orgSlot returns the number of a bank/port organization in the search
// space, or -1 for one outside it. searchPorts is 1 to 4, so a port count
// less one is its index there.
func orgSlot(banks, rp, wp int) int {
	const np = len(searchPorts)
	if banks < 1 || banks > maxBanks || banks&(banks-1) != 0 || rp < 1 || rp > np || wp < 1 || wp > np {
		return -1
	}
	return (bits.TrailingZeros(uint(banks))*np+rp-1)*np + wp - 1
}

// scoredOrg is evaluate's result for one organization, with the winning
// subarray shape in place of the whole Org.
type scoredOrg struct {
	p          orgPAT
	subs       int
	rows, cols uint16
	ok         bool
}

// result returns what evaluate(banks, rp, wp) returned.
func (s *scoredOrg) result(banks, rp, wp int) (orgPAT, Org, bool) {
	if !s.ok {
		return orgPAT{}, Org{}, false
	}
	return s.p, Org{
		Banks: banks, ReadPorts: rp, WritePorts: wp,
		SubarrayRows: int(s.rows), SubarrayCols: int(s.cols), SubarraysPerBank: s.subs,
	}, true
}

// builtArray is what BuildCached returned for one demand.
type builtArray struct {
	d   demand
	arr *Array
	err error
}

// geomEntry holds everything memoized for one geometry: the organizations
// scored, in orgs and numbered by index (index[orgSlot] is one past the
// organization's place in orgs, 0 for one not yet scored; orgs holds at
// most orgSlots, 208, so a byte suffices), and each demand's outcome,
// searched in turn. mu serializes the searches that share it.
type geomEntry struct {
	mu    sync.Mutex
	index [orgSlots]uint8
	orgs  []scoredOrg
	built []builtArray
}

// BuildCached is Build behind a process-wide memo. Within a geometry it
// scores each bank/port organization once and returns the same *Array (or
// error) for repeated demands; an Array is immutable once built, so
// sharing one across chips and goroutines is safe. Invalid configs are
// rejected before the memo is consulted. memarray.builds counts every
// request; memarray.evals only the organizations actually scored.
func BuildCached(cfg Config) (*Array, error) {
	mBuilds.Inc()
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	e := geometryEntry(geometry{
		node: cfg.Node, cell: cfg.Cell, capacity: cfg.CapacityBytes,
		block: cfg.BlockBytes, cycle: math.Float64bits(cfg.CyclePS),
	})
	d := demand{
		banks: cfg.Banks, rp: cfg.ReadPorts, wp: cfg.WritePorts,
		readBPC:  math.Float64bits(cfg.ReadBytesPerCycle),
		writeBPC: math.Float64bits(cfg.WriteBytesPerCycle),
		latency:  math.Float64bits(cfg.TargetLatencyPS),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.built {
		if b := &e.built[i]; b.d == d {
			return b.arr, b.err
		}
	}
	o := optimizer{cfg: &cfg}
	a, err := o.search(e)
	e.built = append(e.built, builtArray{d: d, arr: a, err: err})
	memoDemands.Add(1)
	return a, err
}

// geometryEntry returns the memo entry of g, adding an empty one when g
// is new. It first empties a memo that holds orgMemoCap organizations or
// demandMemoCap demands, or arrayMemoCap geometries when g is new.
func geometryEntry(g geometry) *geomEntry {
	arrayMu.Lock()
	defer arrayMu.Unlock()
	if memoOrgs.Load() >= orgMemoCap || memoDemands.Load() >= demandMemoCap {
		resetLocked()
	}
	e, ok := arrayMemo[g]
	if !ok {
		if len(arrayMemo) >= arrayMemoCap {
			resetLocked()
		}
		e = &geomEntry{orgs: make([]scoredOrg, 0, orgsPerGeometry)}
		arrayMemo[g] = e
	}
	return e
}

// ResetBuildCache drops every memoized geometry. chip.ResetBuildCache calls
// it, so a cold chip build also scores its arrays afresh.
func ResetBuildCache() {
	arrayMu.Lock()
	resetLocked()
	arrayMu.Unlock()
}

// resetLocked empties the memo; arrayMu is held.
func resetLocked() {
	clear(arrayMemo)
	memoOrgs.Store(0)
	memoDemands.Store(0)
}

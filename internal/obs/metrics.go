package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. All instrument operations are lock-free
// atomics, safe for concurrent sweeps; the registry lock is only taken on
// registration and snapshot. A nil *Registry is valid: registration on it
// returns nil instruments, whose methods are all no-ops — that is the
// "disabled registry" configuration.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// defaultRegistry backs the package-level constructors. Instrumented
// packages register their metrics at init and the CLIs render a snapshot
// under -metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that holds the last set value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds delta to the gauge (CAS loop). Nil-safe. Used for
// level-style gauges — in-flight evaluations, queue depth — that many
// goroutines raise and lower concurrently.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets are the default histogram bounds for durations in
// seconds: 1µs … 100s, decades.
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// Histogram is a fixed-bucket histogram with atomic cells. Observations
// above the last bound land in the overflow bucket.
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	cells  []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, cells: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Nil-safe, lock-free. Negative values are
// clamped to zero at record time: duration instruments can observe small
// negative samples under clock skew (time.Since across a step), and an
// unclamped negative min/max would poison the snapshot's summary stats
// (a histogram that only ever saw skewed samples must report max=0, not a
// negative duration).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.cells[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	casFloat(&h.min, v, func(cur, v float64) bool { return v < cur })
	casFloat(&h.max, v, func(cur, v float64) bool { return v > cur })
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func casFloat(bits *atomic.Uint64, v float64, better func(cur, v float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old), v) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Counter returns (registering if needed) the named counter. Nil-safe:
// a nil registry returns a nil, no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram with the
// given bucket bounds (LatencyBuckets when bounds is nil). Bounds are fixed
// at first registration. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		// Copy and sort: bucket order is part of the snapshot's determinism
		// contract, and the registry must not alias (or reorder) the
		// caller's slice.
		sorted := append([]float64(nil), bounds...)
		sort.Float64s(sorted)
		h = newHistogram(sorted)
		r.histograms[name] = h
	}
	return h
}

// NewCounter registers a counter in the default registry. Intended for
// package-level vars in instrumented packages.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1, last is overflow
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current metric values. Nil-safe (returns an empty
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
			Min:    math.Float64frombits(h.min.Load()),
			Max:    math.Float64frombits(h.max.Load()),
			Bounds: h.bounds,
		}
		if hs.Count == 0 {
			hs.Min, hs.Max = 0, 0
		}
		for i := range h.cells {
			hs.Buckets = append(hs.Buckets, h.cells[i].Load())
		}
		s.Histograms[name] = hs
	}
	return s
}

// Snapshot renderings are deterministic so CI can diff them byte-for-byte:
// JSON map keys come out sorted (encoding/json sorts map keys), Text sorts
// names explicitly, and histogram buckets are ascending by registration
// (bounds are sorted when the histogram is created).

// JSON renders the snapshot as indented JSON with sorted keys.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Text renders the snapshot as a sorted, human-readable table.
func (s Snapshot) Text() string {
	// Names pad to one column: the longest name, but never under 40, so a
	// snapshot of short names renders as it always has.
	w := widest(widest(widest(40, s.Counters), s.Gauges), s.Histograms)
	var sb strings.Builder
	sb.WriteString("== metrics ==\n")
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&sb, "%-*s %d\n", w, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&sb, "%-*s %g\n", w, name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&sb, "%-*s n=%d mean=%.3g min=%.3g max=%.3g\n",
			w, name, h.Count, h.Mean(), h.Min, h.Max)
	}
	return sb.String()
}

// widest returns the longer of w and m's longest name.
func widest[V any](w int, m map[string]V) int {
	for name := range m {
		w = max(w, len(name))
	}
	return w
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

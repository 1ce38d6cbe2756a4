package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	clients int // closed-loop client goroutines
	setup   func(ctx context.Context, cfg config) (instance, error)
}

// instance is a set-up workload, ready to run ops.
type instance interface {
	// op runs one operation for client and returns its host time, which
	// leaves out untimed housekeeping and output checks, and the route it
	// exercised ("" where a workload has one kind of op). A non-nil error
	// marks the op failed: it errored or its output was wrong.
	op(ctx context.Context, client int) (time.Duration, string, error)
	close() error
}

// digester is implemented by the study workloads, whose ops are checked
// against a Fig. 10 digest computed in set-up.
type digester interface{ reference() string }

var workloads = []workload{
	{name: "sweep-cold", clients: 1, setup: setupSweepCold},
	{name: "study-warm", clients: 1, setup: setupStudyWarm},
	{name: "store-warm", clients: 1, setup: setupStoreWarm},
	{name: "daemon-mix", clients: daemonClients, setup: setupDaemonMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// window is what one measured stretch of ops produced.
type window struct {
	attempted, failed int64
	ms                []float64            // host time of each successful op
	byRoute           map[string][]float64 // the same, split by route
	wall              time.Duration
	errs              []string // the first few failures
}

const keptErrors = 5

func (w *window) merge(o window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.ms = append(w.ms, o.ms...)
	for r, v := range o.byRoute {
		w.byRoute[r] = append(w.byRoute[r], v...)
	}
	for _, e := range o.errs {
		if len(w.errs) < keptErrors {
			w.errs = append(w.errs, e)
		}
	}
}

// measure runs a closed loop of ops on clients goroutines until d has
// passed; every client completes at least one op. With tr non-nil each op
// is traced.
func measure(inst instance, clients int, d time.Duration, tr *tracing) window {
	parts := make([]window, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := window{byRoute: map[string][]float64{}}
			for first := true; first || time.Since(start) < d; first = false {
				ctx, end := tr.begin("bench.op")
				dur, route, err := inst.op(ctx, c)
				end()
				part.attempted++
				if err != nil {
					part.failed++
					if len(part.errs) < keptErrors {
						part.errs = append(part.errs, err.Error())
					}
					continue
				}
				ms := float64(dur) / float64(time.Millisecond)
				part.ms = append(part.ms, ms)
				if route != "" {
					part.byRoute[route] = append(part.byRoute[route], ms)
				}
			}
			parts[c] = part
		}()
	}
	wg.Wait()
	win := window{byRoute: map[string][]float64{}, wall: time.Since(start)}
	for _, p := range parts {
		win.merge(p)
	}
	return win
}

// percentile interpolates linearly between order statistics; it is 0 for
// no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

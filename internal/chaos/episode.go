package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"neurometer/internal/chaos/invariants"
	"neurometer/internal/dse"
	"neurometer/internal/guard"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
)

// gPlanted is the gauge OpViolate bumps and never drains — the planted
// invariant violation the shrinker proves itself against.
var gPlanted = obs.NewGauge("chaos.planted_violations")

// Verdict is an episode's invariant outcome. It deliberately carries no
// timing, so two runs of the same schedule produce byte-identical
// verdict JSON — which is what lets CI diff them.
type Verdict struct {
	Scenario    string   `json:"scenario"`
	Seed        int64    `json:"seed"`
	Events      int      `json:"events"`
	OutputExact bool     `json:"output_exact"`
	Passed      bool     `json:"passed"`
	Violations  []string `json:"violations,omitempty"`
}

// Runner executes schedules as in-process episodes. A Runner caches the
// serial study reference across episodes (it never changes — same spec,
// no faults). Episodes arm process-global guard state, so a Runner must
// not run episodes concurrently.
type Runner struct {
	refOnce sync.Once
	refCSV  string
	refErr  error
}

// NewRunner returns a Runner.
func NewRunner() *Runner { return &Runner{} }

// episodeSpec is the study every episode evaluates: a few candidates of
// the paper's datacenter space over one workload — small enough for a
// sub-second serial run, large enough to keep two pool workers busy.
func episodeSpec() dse.StudySpec {
	c := dse.TableI()
	c.XChoices = []int{8, 32, 64}
	c.NChoices = []int{2, 4}
	c.MaxTiles = 64
	return dse.StudySpec{
		Constraints: c,
		Spec:        dse.BatchSpec{Fixed: 8},
		Models:      []string{"alexnet"},
	}
}

// Reference computes (once) the serial, fault-free study output every
// episode is compared against.
func (r *Runner) Reference(ctx context.Context) (string, error) {
	r.refOnce.Do(func() {
		if guard.Armed() {
			r.refErr = fmt.Errorf("chaos: reference requested with faults armed")
			return
		}
		study, err := dse.NewStudy(ctx, episodeSpec())
		if err != nil {
			r.refErr = err
			return
		}
		rows, err := study.Run(ctx, dse.Hardening{})
		if err != nil {
			r.refErr = err
			return
		}
		r.refCSV = dse.RuntimeRowsCSV(rows)
	})
	return r.refCSV, r.refErr
}

// buildPlan translates a schedule's fault events into a guard plan
// seeded by the schedule.
func buildPlan(sch *Schedule) guard.Plan {
	p := guard.Plan{Seed: sch.Seed}
	for _, e := range sch.Events {
		if e.Kind == KindFault {
			pf := guard.PlanFault{Site: e.Site, Prob: e.Prob}
			pf.Skip, pf.Count = e.Skip, e.Count
			switch e.Effect {
			case EffectErr:
				pf.Err = guard.ErrUnavailable
			case EffectDelay:
				pf.Delay = time.Duration(e.DelayMS) * time.Millisecond
			case EffectNaN:
				pf.NaN = true
			}
			p.Faults = append(p.Faults, pf)
		}
	}
	return p
}

// Run executes one episode of the schedule and returns its verdict. A
// non-nil error means the harness itself failed (setup, I/O), not that an
// invariant was violated — violations land in the verdict.
func (r *Runner) Run(ctx context.Context, sch *Schedule) (*Verdict, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	refCSV, err := r.Reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: serial reference: %w", err)
	}

	gPlanted.Set(0)
	baseline := invariants.GoroutineBaseline()
	before := obs.Default().Snapshot()
	var violations []string

	disarm := guard.ArmPlan(buildPlan(sch))
	csv, vio, err := r.drive(ctx, sch)
	disarm()
	guard.DisarmAll() // belt and braces: nothing may leak into the next episode
	if err != nil {
		return nil, err
	}
	violations = append(violations, vio...)

	// Output invariant: byte-identity against the serial reference, or —
	// when the schedule corrupts a metric to NaN — the relaxed contract
	// (every emitted row identical to a reference row, nothing
	// non-finite).
	if sch.OutputExact() {
		if csv != refCSV {
			violations = append(violations, fmt.Sprintf(
				"output: study CSV diverged from serial reference\n--- reference\n%s--- episode\n%s", refCSV, csv))
		}
	} else {
		violations = append(violations, relaxedOutputViolations(refCSV, csv)...)
	}

	// Quiescence invariants, after full teardown.
	if err := invariants.NoGoroutineLeak(baseline, 4, 5*time.Second); err != nil {
		violations = append(violations, err.Error())
	}
	after := obs.Default().Snapshot()
	if err := invariants.GaugesDrained(after, append(invariants.DrainedGauges(), "chaos.planted_violations")...); err != nil {
		violations = append(violations, err.Error())
	}
	if err := invariants.CountersMonotonic(before, after); err != nil {
		violations = append(violations, err.Error())
	}
	if err := invariants.FiniteGauges(after); err != nil {
		violations = append(violations, err.Error())
	}

	return &Verdict{
		Scenario:    sch.Scenario,
		Seed:        sch.Seed,
		Events:      len(sch.Events),
		OutputExact: sch.OutputExact(),
		Passed:      len(violations) == 0,
		Violations:  violations,
	}, nil
}

// relaxedOutputViolations checks the NaN-episode contract: got's header
// matches, every data row appears verbatim in the reference, and no
// non-finite value is rendered anywhere.
func relaxedOutputViolations(ref, got string) []string {
	var out []string
	refLines := strings.Split(strings.TrimRight(ref, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	known := map[string]bool{}
	for _, l := range refLines {
		known[l] = true
	}
	if len(gotLines) > 0 && len(refLines) > 0 && gotLines[0] != refLines[0] {
		out = append(out, fmt.Sprintf("output: CSV header diverged: %q vs %q", gotLines[0], refLines[0]))
	}
	for _, l := range gotLines {
		if l == "" {
			continue
		}
		if !known[l] {
			out = append(out, fmt.Sprintf("output: row not byte-identical to any reference row: %q", l))
		}
		if strings.Contains(l, "NaN") || strings.Contains(l, "Inf") {
			out = append(out, fmt.Sprintf("output: non-finite value escaped into CSV: %q", l))
		}
	}
	return out
}

// drive runs the schedule's study phase(s) and returns the episode CSV
// and any store-accounting violations.
func (r *Runner) drive(ctx context.Context, sch *Schedule) (string, []string, error) {
	if !sch.Store {
		for _, e := range sch.ops() {
			if err := applyOp("", e); err != nil {
				return "", nil, err
			}
		}
		csv, err := runStudy(ctx, sch, nil)
		return csv, nil, err
	}
	// Two-phase store episode: populate the store with a fault-free-path
	// run, mutate entries the way crashes and bad disks do, then recover
	// (OpenDisk scan) and replay — the episode output is the replayed
	// run, which must still match the reference because a damaged store
	// degrades to recomputation, never to wrong results.
	dir, err := os.MkdirTemp("", "chaos-store-*")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dir)

	ds, err := rstore.OpenDisk(dir)
	if err != nil {
		return "", nil, fmt.Errorf("chaos: store populate open: %w", err)
	}
	study, err := dse.NewStudy(ctx, episodeSpec())
	if err != nil {
		return "", nil, err
	}
	if _, err := study.Run(ctx, dse.Hardening{Results: rstore.NewCache(ds)}); err != nil && sch.OutputExact() {
		return "", nil, fmt.Errorf("chaos: store populate run: %w", err)
	}
	ds.Close()

	for _, e := range sch.ops() {
		if err := applyOp(dir, e); err != nil {
			return "", nil, err
		}
	}

	ds2, err := rstore.OpenDisk(dir) // recovery scan: quarantine + tmp cleanup
	if err != nil {
		return "", nil, fmt.Errorf("chaos: store recovery open: %w", err)
	}
	defer ds2.Close()
	csv, err := runStudy(ctx, sch, rstore.NewCache(ds2))
	if err != nil {
		return "", nil, err
	}
	var vio []string
	maxEntries, _ := rstore.QuarantineLimits()
	if qerr := invariants.QuarantineAccounting(dir, maxEntries); qerr != nil {
		vio = append(vio, qerr.Error())
	}
	return csv, vio, nil
}

// runStudy runs the episode study on a two-worker pool, reading through
// cache when it is non-nil, and returns its CSV.
func runStudy(ctx context.Context, sch *Schedule, cache *rstore.Cache) (string, error) {
	study, err := dse.NewStudy(ctx, episodeSpec())
	if err != nil {
		return "", err
	}
	rows, err := study.Run(ctx, dse.Hardening{Workers: 2, BlockSize: 2, Results: cache})
	if err != nil && sch.OutputExact() {
		return "", fmt.Errorf("chaos: episode study: %w", err)
	}
	return dse.RuntimeRowsCSV(rows), nil
}

// applyOp applies one op: violate plants the undrained gauge, and store
// ops damage the store directory between the populate and replay phases.
// Entry indices address the sorted entry list, so the same schedule
// always damages the same entry.
func applyOp(dir string, e Event) error {
	switch e.Op {
	case OpViolate:
		gPlanted.Add(1)
	case OpCorruptEntry, OpTruncateEntry:
		entries, err := listEntries(dir)
		if err != nil || len(entries) == 0 {
			return err
		}
		path := entries[e.Entry%len(entries)]
		if e.Op == OpTruncateEntry {
			info, err := os.Stat(path)
			if err != nil {
				return nil // already gone (mutated twice)
			}
			return os.Truncate(path, info.Size()/2)
		}
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			return nil
		}
		b[len(b)/2] ^= 0xFF
		return os.WriteFile(path, b, 0o644)
	case OpPlantTmp:
		sub := filepath.Join(dir, "objects", "00")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		name := strings.Repeat("0", 64) + ".res.tmp"
		return os.WriteFile(filepath.Join(sub, name), []byte("torn write"), 0o644)
	}
	return nil
}

// listEntries returns the store's entry files in sorted order.
func listEntries(dir string) ([]string, error) {
	var out []string
	objects := filepath.Join(dir, "objects")
	err := filepath.WalkDir(objects, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".res" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

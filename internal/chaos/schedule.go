// Package chaos is the deterministic chaos-schedule engine: it generates
// seeded failure schedules over the complete guard fault-site registry
// plus result-store damage ops, runs each schedule as an in-process
// episode — a small DSE study, optionally over a result store that is
// populated, damaged and recovered between phases — and checks the
// system-level invariants the codebase promises (episode.go). A failing
// seed feeds a greedy shrinker (shrink.go) that minimizes the schedule to
// the smallest still-failing event set and writes it as a replayable
// artifact.
//
// Determinism is the point. A Schedule is pure data, generated from a
// seed by a fixed procedure (gen.go), so the same seed always yields the
// same JSON. Faults target *logical* time — the Nth visit of a fault
// site, or a seeded per-hit coin flip — never wall-clock arming, and ops
// apply at fixed points between episode phases, so a replayed schedule
// drives the same recovery paths regardless of machine speed. Goroutine
// interleavings inside the study's worker pool still differ between
// runs, but every invariant the episode checks is closed under them:
// output byte-identity holds at any interleaving because the pool
// assembles rows by candidate index, and the remaining invariants are
// checked at quiescence. So "same schedule → same verdict" holds, which
// is what makes -replay and the shrinker trustworthy.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"neurometer/internal/guard"
)

// FormatVersion identifies the schedule JSON layout; bump on breaking
// changes so a stale committed reproduction fails loudly instead of
// silently replaying the wrong episode.
const FormatVersion = 2

// Event kinds.
const (
	// KindFault arms one guard fault. Fault events are armed before the
	// episode starts and target logical time (Skip/Count/Prob).
	KindFault = "fault"
	// KindOp is an episode operation. Ops apply in schedule order at a
	// fixed point of the episode: store ops between the populate and
	// replay phases, a violate op before the study of a storeless
	// episode.
	KindOp = "op"
)

// Op names.
const (
	// OpViolate plants a deliberate invariant violation (an undrained
	// gauge) — the shrinker's self-test target.
	OpViolate = "violate"
	// OpCorruptEntry flips bytes in the Entry-th result-store entry
	// (sorted order) between episode phases.
	OpCorruptEntry = "corrupt_entry"
	// OpTruncateEntry truncates the Entry-th entry to half its size.
	OpTruncateEntry = "truncate_entry"
	// OpPlantTmp drops an orphaned *.tmp file into the object tree, as a
	// crash between write and rename would.
	OpPlantTmp = "plant_tmp"
)

// Fault effects.
const (
	// EffectErr makes the site return guard.ErrUnavailable.
	EffectErr = "err"
	// EffectDelay makes the site sleep DelayMS.
	EffectDelay = "delay"
	// EffectNaN corrupts the site's float to NaN. The only effect that
	// legitimately changes study output (a poisoned candidate is dropped
	// by the non-finite guards), so it flips the episode to the relaxed
	// output invariant — see Schedule.OutputExact.
	EffectNaN = "nan"
)

// Event is one element of a schedule.
type Event struct {
	Kind string `json:"kind"`
	// Op names the episode operation (KindOp only).
	Op string `json:"op,omitempty"`
	// Entry indexes the store entry a corrupt or truncate op damages
	// (sorted order, modulo the entry count).
	Entry int `json:"entry,omitempty"`

	// Site, Effect, Skip, Count, Prob, DelayMS describe a fault
	// (KindFault only); semantics match guard.PlanFault.
	Site    string  `json:"site,omitempty"`
	Effect  string  `json:"effect,omitempty"`
	Skip    int     `json:"skip,omitempty"`
	Count   int     `json:"count,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	DelayMS int     `json:"delay_ms,omitempty"`
}

// Schedule is a seeded, replayable chaos episode: episode shape plus an
// event sequence. It is the unit the generator emits, the runner
// executes, the shrinker minimizes, and CI commits as a reproduction.
type Schedule struct {
	FormatVersion int    `json:"format_version"`
	Scenario      string `json:"scenario"`
	Seed          int64  `json:"seed"`
	// Store runs the two-phase result-store episode: populate, mutate
	// (store ops), recover, replay.
	Store  bool    `json:"store,omitempty"`
	Events []Event `json:"events"`
}

// OutputExact reports whether the episode's study output must be
// byte-identical to the serial reference. Every fault the schedule can
// carry is output-transparent by construction (rstore faults degrade to
// recomputation; model-layer faults are delay-only) —
// except NaN corruption, which legitimately removes the poisoned
// candidate. A schedule carrying a NaN fault is therefore checked against
// the relaxed contract: every emitted row byte-identical to the matching
// reference row (subset), and nothing non-finite anywhere.
func (s *Schedule) OutputExact() bool {
	for _, e := range s.Events {
		if e.Kind == KindFault && e.Effect == EffectNaN {
			return false
		}
	}
	return true
}

// Validate checks internal consistency before an episode runs, so a
// hand-edited reproduction fails with a message instead of arming
// nonsense.
func (s *Schedule) Validate() error {
	if s.FormatVersion != FormatVersion {
		return fmt.Errorf("chaos: schedule format_version %d, this binary speaks %d", s.FormatVersion, FormatVersion)
	}
	known := map[string]bool{}
	for _, site := range guard.Sites() {
		known[site] = true
	}
	for i, e := range s.Events {
		switch e.Kind {
		case KindFault:
			if !known[e.Site] {
				return fmt.Errorf("chaos: event %d: unknown fault site %q", i, e.Site)
			}
			switch e.Effect {
			case EffectErr, EffectDelay, EffectNaN:
			default:
				return fmt.Errorf("chaos: event %d: unknown effect %q", i, e.Effect)
			}
		case KindOp:
			switch e.Op {
			case OpViolate:
			case OpCorruptEntry, OpTruncateEntry, OpPlantTmp:
				if !s.Store {
					return fmt.Errorf("chaos: event %d: store op %q in a storeless schedule", i, e.Op)
				}
			default:
				return fmt.Errorf("chaos: event %d: unknown op %q", i, e.Op)
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// MarshalIndent renders the schedule as canonical JSON (stable field
// order, trailing newline) — the byte-identical artifact format.
func (s *Schedule) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the schedule artifact to path, creating the parent
// directory if needed — an invariant violation must never fail to
// leave its reproduction behind because -out didn't exist yet.
func (s *Schedule) WriteFile(path string) error {
	b, err := s.MarshalIndent()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadSchedule loads and validates a schedule artifact.
func ReadSchedule(path string) (*Schedule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return &s, nil
}

// ops returns the schedule's op events in schedule order.
func (s *Schedule) ops() []Event {
	var ops []Event
	for _, e := range s.Events {
		if e.Kind == KindOp {
			ops = append(ops, e)
		}
	}
	return ops
}

package main

import (
	"errors"
	"testing"
	"time"

	"neurometer/internal/fleet"
	"neurometer/internal/guard"
)

// TestValidateFleetFlags pins the startup fail-fast contract: every bad
// fleet flag combination is an invalid-config error, which main maps to
// exit code 2 through guard.ExitCode.
func TestValidateFleetFlags(t *testing.T) {
	ok := fleet.DefaultLeaseTTL
	cases := []struct {
		name      string
		fleetList string
		join      string
		advertise string
		lease     time.Duration
		hedge     time.Duration
		attempts  int
		wantErr   bool
	}{
		{"no-fleet-no-join", "", "", "", 0, 0, 0, false},
		{"empty-fleet-list", " , ", "", "", ok, fleet.DefaultHedgeAfter, fleet.DefaultMaxAttempts, true},
		{"coordinator-defaults", "w1:8080", "", "", ok, fleet.DefaultHedgeAfter, fleet.DefaultMaxAttempts, false},
		{"worker-join", "", "http://c:8080", "http://me:8080", ok, fleet.DefaultHedgeAfter, fleet.DefaultMaxAttempts, false},
		{"join-and-fleet", "w1:8080", "http://c:8080", "http://me:8080", ok, fleet.DefaultHedgeAfter, 4, true},
		{"join-without-advertise", "", "http://c:8080", "", ok, fleet.DefaultHedgeAfter, 4, true},
		{"zero-lease", "w1:8080", "", "", 0, -1, 4, true},
		{"negative-lease", "w1:8080", "", "", -time.Second, -1, 4, true},
		{"hedge-at-lease", "w1:8080", "", "", time.Minute, time.Minute, 4, true},
		{"zero-attempts", "w1:8080", "", "", time.Minute, -1, 0, true},
		// Without -fleet the lease knobs are inert, so they do not gate.
		{"bad-knobs-no-fleet", "", "", "", 0, 0, 0, false},
	}
	for _, tc := range cases {
		err := validateFleetFlags(tc.fleetList, tc.join, tc.advertise, tc.lease, tc.hedge, tc.attempts)
		if !tc.wantErr {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want invalid-config", tc.name, err)
		}
		if code := guard.ExitCode(err); code != 2 {
			t.Errorf("%s: exit code = %d, want 2", tc.name, code)
		}
	}
}

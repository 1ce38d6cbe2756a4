package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// TestMain lets a test re-run this binary as the dse command itself, so
// the exit-code contract is checked on the real main.
func TestMain(m *testing.M) {
	if os.Getenv("DSE_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownFigureIsInvalid: an unknown -fig is an invalid-config error,
// returned before any chip is built.
func TestUnknownFigureIsInvalid(t *testing.T) {
	before := obs.Default().Snapshot().Counters["chip.builds"]
	for _, fig := range []int{11, 1, -2} {
		err := run(context.Background(), fig, hardenFlags{})
		if !errors.Is(err, guard.ErrInvalidConfig) {
			t.Errorf("-fig %d: err = %v, want invalid-config", fig, err)
		}
		if code := guard.ExitCode(err); code != 2 {
			t.Errorf("-fig %d: exit code = %d, want 2", fig, code)
		}
	}
	if after := obs.Default().Snapshot().Counters["chip.builds"]; after != before {
		t.Errorf("unknown figures built %d chips, want 0", after-before)
	}
}

// TestUnknownFigureExitsTwo runs the command with -fig 11 and requires
// exit code 2, an invalid-config message on stderr and nothing on stdout.
func TestUnknownFigureExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-fig", "11")
	cmd.Env = append(os.Environ(), "DSE_TEST_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("dse -fig 11: err = %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "invalid-config") || !strings.Contains(msg, "unknown figure 11") {
		t.Errorf("stderr = %q, want an invalid-config unknown-figure message", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want empty", stdout.String())
	}
}

package guard

import (
	"errors"
	"os"
)

// The process-facing projection of the error taxonomy. Every CLI
// classifies failures through the same errors.Is chains as Kind (and the
// serving layer's HTTP status mapping, serve.HTTPStatus), so a given
// failure always carries the same identity whether it surfaces as an exit
// code, an HTTP status, or a structured kind= log line. This package does
// not import net/http: every CLI links it, and only the daemon serves HTTP.

// ExitCode maps an error onto the process exit code shared by every
// NeuroMeter CLI:
//
//	nil                              0
//	ErrInvalidConfig, ErrInfeasible  2    (usage/config errors, sysexits-style)
//	ErrCanceled                      130  (128 + SIGINT, the shell convention)
//	anything else                    1
//
// Precedence follows Kind so the kind= log line, the HTTP status, and the
// exit code always tell the same story about one failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrInvalidConfig), errors.Is(err, ErrInfeasible):
		return 2
	case errors.Is(err, ErrCanceled):
		return 130
	}
	return 1
}

// Exit prints the structured one-line kind= diagnostic every CLI emits and
// exits with ExitCode(err). prog names the binary. A nil err is a no-op so
// callers can invoke it unconditionally on their run error.
func Exit(prog string, err error) {
	if err == nil {
		return
	}
	PrintErr(prog, err)
	os.Exit(ExitCode(err))
}

// PrintErr writes the structured one-line kind= diagnostic without exiting,
// for callers that have cleanup to sequence around the exit.
func PrintErr(prog string, err error) {
	if err == nil {
		return
	}
	os.Stderr.WriteString(prog + ": kind=" + Kind(err) + ": " + err.Error() + "\n")
}

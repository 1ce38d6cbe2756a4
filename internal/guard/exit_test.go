package guard

import (
	"errors"
	"fmt"
	"go/build"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("run: %w", ErrCanceled), 130},
		{Invalid("bad flag"), 2},
		{Infeasible("no feasible clock"), 2},
		{fmt.Errorf("eval: %w", ErrTimeout), 1},
		{fmt.Errorf("eval: %w", ErrCandidatePanic), 1},
		{errors.New("plain"), 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// An error wrapping both a cancel and a config failure maps by the first
// taxonomy match — invalid-config — in ExitCode and Kind alike (and in
// serve.HTTPStatus, which TestHTTPStatus there pins), so the projections
// can never disagree about a failure.
func TestProjectionsAgreeOnJoinedErrors(t *testing.T) {
	err := errors.Join(Invalid("x"), ErrCanceled)
	if k := Kind(err); k != "invalid-config" {
		t.Fatalf("Kind = %q", k)
	}
	if c := ExitCode(err); c != 2 {
		t.Fatalf("ExitCode = %d", c)
	}
}

// Every CLI links this package; only the daemon serves HTTP. Importing
// net/http here would link its TLS and HTTP/2 stacks into every binary.
func TestNoNetHTTPImport(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "net/http" {
			t.Fatalf("guard imports net/http (imports: %v)", pkg.Imports)
		}
	}
}

package obs

import (
	"strings"
	"testing"
)

// TestBuildInfoString: the -version line names the project first.
func TestBuildInfoString(t *testing.T) {
	if s := ReadBuildInfo().String(); !strings.HasPrefix(s, "neurometer ") {
		t.Fatalf("version string %q", s)
	}
}

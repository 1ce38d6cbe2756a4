package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Build identity, sourced from runtime/debug.ReadBuildInfo: the module
// version stamped by `go install`, plus the VCS revision and dirty flag
// embedded by `go build` inside a git checkout. It feeds the -version flag
// on every CLI.

// BuildInfo is the resolved build identity of the running binary.
type BuildInfo struct {
	Version   string // module version ("(devel)" for plain `go build`)
	Revision  string // VCS revision, "" when built outside a checkout
	Dirty     bool   // VCS working tree had local modifications
	GoVersion string // Go toolchain that built the binary
}

var buildInfoOnce = sync.OnceValue(func() BuildInfo {
	b := BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Version != "" {
		b.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		}
	}
	return b
})

// ReadBuildInfo returns the binary's build identity (cached after the
// first call).
func ReadBuildInfo() BuildInfo { return buildInfoOnce() }

// String renders the identity as the one-line -version output, e.g.
// "neurometer (devel) rev 1a2b3c4d (modified) go1.22.0".
func (b BuildInfo) String() string {
	s := "neurometer " + b.Version
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if b.Dirty {
			s += " (modified)"
		}
	}
	return s + " " + b.GoVersion
}

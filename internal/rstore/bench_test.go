package rstore

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
)

// BenchmarkOpenDisk times OpenDisk + Close over a store the size of the
// Fig. 10 study's: 141 entries, each a fingerprint of about 200 bytes
// (the length of a rendered rstore/v2 key) around a stored-row payload
// of 84 + 8n bytes for n = 3 workloads. It is the open scan alone, the
// rstore.open_ms layer of perfbench's store-warm op.
func BenchmarkOpenDisk(b *testing.B) {
	const entries, payloadBytes = 141, 84 + 8*3
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	b.Cleanup(func() { slog.SetDefault(prev) })
	dir := b.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("x", 190)
	for i := 0; i < entries; i++ {
		if err := s.Put(fmt.Sprintf("bench-%03d|%s", i, pad), make([]byte, payloadBytes)); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenDisk(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := s.Report().Entries; n != entries {
			b.Fatalf("open kept %d entries, want %d", n, entries)
		}
		s.Close()
	}
}

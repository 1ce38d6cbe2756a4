package serve

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a goroutine-safe log sink (handlers run on server goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogLines(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: slog.New(slog.NewJSONHandler(&buf, nil))})

	// A success, with a caller-provided request id that must thread through.
	req, err := http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader(`{"preset":"tpuv1"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-42" {
		t.Errorf("X-Request-Id echo = %q, want req-42", got)
	}

	// A failure, which must log its disposition kind.
	status, hdr, _ := doJSON(t, "POST", ts.URL+"/v1/chip/build", `{"preset":"no-such-chip"}`)
	if status != 400 {
		t.Fatalf("bad preset: status %d", status)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("generated X-Request-Id missing on error response")
	}

	// A 65-byte caller id is cut to its first 64 bytes, in the echo and
	// in the log line alike.
	long := strings.Repeat("a", 64) + "b"
	req, err = http.NewRequest("POST", ts.URL+"/v1/chip/build", strings.NewReader(`{"preset":"tpuv1"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", long)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != long[:64] {
		t.Errorf("X-Request-Id echo = %q, want the first 64 bytes %q", got, long[:64])
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	ok := lines[0]
	for _, want := range []string{`"msg":"request"`, `"request_id":"req-42"`,
		`"route":"chip.build"`, `"status":200`, `"duration_ms":`} {
		if !strings.Contains(ok, want) {
			t.Errorf("success line missing %s: %s", want, ok)
		}
	}
	if strings.Contains(ok, `"kind"`) || strings.Contains(ok, `"slow"`) {
		t.Errorf("success line has error/slow fields: %s", ok)
	}
	bad := lines[1]
	for _, want := range []string{`"status":400`, `"kind":"invalid-config"`} {
		if !strings.Contains(bad, want) {
			t.Errorf("failure line missing %s: %s", want, bad)
		}
	}
	if want := `"request_id":"` + long[:64] + `"`; !strings.Contains(lines[2], want) {
		t.Errorf("long-id line missing %s: %s", want, lines[2])
	}
}

// TestAccessLogSlowFlag: a request that took 1.5 s is flagged slow=true.
func TestAccessLogSlowFlag(t *testing.T) {
	var buf syncBuffer
	s := New(Config{AccessLog: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer s.Shutdown(context.Background())
	s.logAccess(httptest.NewRequest("POST", "/v1/chip/build", nil), "chip.build", "req-1", 200, "", 1.5)
	if !strings.Contains(buf.String(), `"slow":true`) {
		t.Fatalf("slow request not flagged: %s", buf.String())
	}
}

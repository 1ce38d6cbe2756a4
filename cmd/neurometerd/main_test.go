package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"neurometer/internal/serve"
)

// TestSigtermDrainsCleanly is the daemon smoke test: start run() on an
// ephemeral port, exercise /healthz and /v1/chip/build, send the process
// SIGTERM, and require a clean drain well inside the CI budget.
func TestSigtermDrainsCleanly(t *testing.T) {
	// Reserve an ephemeral port, release it, and hand it to run().
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(serve.Config{}, addr, 10*time.Second)
	}()

	base := "http://" + addr
	waitUp := func() error {
		var last error
		for i := 0; i < 100; i++ {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					return nil
				}
				last = fmt.Errorf("healthz: %d", resp.StatusCode)
			} else {
				last = err
			}
			time.Sleep(20 * time.Millisecond)
		}
		return last
	}
	if err := waitUp(); err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	resp, err := http.Post(base+"/v1/chip/build", "application/json",
		strings.NewReader(`{"preset":"tpuv1"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "tops") {
		t.Fatalf("build response looks wrong: %s", body)
	}

	// The SIGTERM path, exactly as an orchestrator would deliver it.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete within 10s")
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

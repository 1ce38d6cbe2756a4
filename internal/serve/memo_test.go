package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"neurometer/internal/guard"
	"neurometer/internal/obs"
)

// The chip memo maps an inline config's exact bytes to its built chip.
// These tests pin that a hit answers exactly what a miss would, that only
// built chips are stored, that armed faults bypass it, and that it stays
// inside its bounds.

// memoConfig is an inline config that builds; memoVariants are the same
// chip in other bytes: indented, and with its keys reordered.
const memoConfig = `{"name":"memo","tech_nm":28,"clock_hz":700e6,"tx":2,"ty":4,"core":{"num_tus":2,"tu_rows":64,"tu_cols":64,"tu_data_type":"int8","has_su":true,"mem":[{"name":"spad","capacity_bytes":4194304}]},"noc_bisection_gbps":256,"off_chip":[{"kind":"hbm","gbps":700}],"area_budget_mm2":500,"power_budget_w":300}`

var memoVariants = []string{
	memoConfig,
	`{"name": "memo", "tech_nm": 28, "clock_hz": 700e6, "tx": 2, "ty": 4, "core": {"num_tus": 2, "tu_rows": 64, "tu_cols": 64, "tu_data_type": "int8", "has_su": true, "mem": [{"name": "spad", "capacity_bytes": 4194304}]}, "noc_bisection_gbps": 256, "off_chip": [{"kind": "hbm", "gbps": 700}], "area_budget_mm2": 500, "power_budget_w": 300}`,
	`{"power_budget_w":300,"area_budget_mm2":500,"off_chip":[{"gbps":700,"kind":"hbm"}],"noc_bisection_gbps":256,"core":{"mem":[{"capacity_bytes":4194304,"name":"spad"}],"has_su":true,"tu_data_type":"int8","tu_cols":64,"tu_rows":64,"num_tus":2},"ty":4,"tx":2,"clock_hz":700e6,"tech_nm":28,"name":"memo"}`,
}

// memoRoutes are one request per model route, each carrying cfg inline.
func memoRoutes(cfg string) []struct{ path, body string } {
	return []struct{ path, body string }{
		{"/v1/chip/build", `{"config":` + cfg + `}`},
		{"/v1/perfsim/simulate", `{"config":` + cfg + `,"workload":"alexnet","batch":4}`},
		{"/v1/perfsim/simulate-batch", `{"workload":"alexnet","batch":4,"configs":[{"config":` + cfg + `},{"preset":"tpuv1"},{"config":` + cfg + `}]}`},
	}
}

// freshResponse is the body a new server gives for its first request.
func freshResponse(t *testing.T, path, body string) (int, []byte) {
	t.Helper()
	s := New(Config{})
	defer s.Shutdown(context.Background())
	return serveDirect(s.Handler(), "POST", path, body)
}

// memoCounts reads the memo's hit and miss counters.
func memoCounts() (hits, misses int64) {
	c := obs.Default().Snapshot().Counters
	return c["serve.config_memo_hits"], c["serve.config_memo_misses"]
}

// memoState reads the memo's entry count and key bytes.
func memoState(s *Server) (entries, keyBytes int) {
	s.chips.mu.Lock()
	defer s.chips.mu.Unlock()
	return len(s.chips.chips), s.chips.keyBytes
}

func TestChipMemoRepeatedBody(t *testing.T) {
	routes := memoRoutes(memoConfig)
	want := make([][]byte, len(routes))
	for i, r := range routes {
		status, body := freshResponse(t, r.path, r.body)
		if status != http.StatusOK {
			t.Fatalf("%s on a fresh server: status %d: %s", r.path, status, body)
		}
		want[i] = body
	}

	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	hits0, misses0 := memoCounts()
	for rep := 0; rep < 3; rep++ {
		for i, r := range routes {
			if status, got := serveDirect(h, "POST", r.path, r.body); status != http.StatusOK || !bytes.Equal(got, want[i]) {
				t.Fatalf("%s, repeat %d: status %d\n%s\nwant\n%s", r.path, rep, status, got, want[i])
			}
		}
	}
	// 3 rounds of 4 inline configs (build, simulate, two in the batch):
	// the first misses, every later one hits.
	hits, misses := memoCounts()
	if hits-hits0 != 11 || misses-misses0 != 1 {
		t.Errorf("memo hits %d, misses %d; want 11 and 1", hits-hits0, misses-misses0)
	}

	a, err := s.chips.resolve(ChipRequest{Config: json.RawMessage(memoConfig)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.chips.resolve(ChipRequest{Config: json.RawMessage(memoConfig)})
	if err != nil || a != b {
		t.Fatalf("a repeated config resolved to %p then %p (%v)", a, b, err)
	}
	if n, kb := memoState(s); n != 1 || kb != len(memoConfig) || s.chips.chips[memoConfig] != a {
		t.Errorf("memo holds %d entries, %d key bytes; want the one config's %d", n, kb, len(memoConfig))
	}
}

// Configs that differ only in whitespace or key order are separate
// entries, and every one of them answers as the compact config does.
func TestChipMemoKeysOnExactBytes(t *testing.T) {
	routes := memoRoutes(memoConfig)
	want := make([][]byte, len(routes))
	for i, r := range routes {
		_, want[i] = freshResponse(t, r.path, r.body)
	}

	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	_, misses0 := memoCounts()
	keyBytes := 0
	for _, v := range memoVariants {
		for i, r := range memoRoutes(v) {
			if status, got := serveDirect(s.Handler(), "POST", r.path, r.body); status != http.StatusOK || !bytes.Equal(got, want[i]) {
				t.Fatalf("%s with config %.40s: status %d\n%s\nwant\n%s", r.path, v, status, got, want[i])
			}
		}
		keyBytes += len(v)
	}
	if _, misses := memoCounts(); misses-misses0 != int64(len(memoVariants)) {
		t.Errorf("%d memo misses, want one per variant (%d)", misses-misses0, len(memoVariants))
	}
	if n, kb := memoState(s); n != len(memoVariants) || kb != keyBytes {
		t.Errorf("memo holds %d entries, %d key bytes; want %d and %d", n, kb, len(memoVariants), keyBytes)
	}
}

// A config that does not parse or does not build is never stored, and
// answers with the status and body of the unmemoized path every time.
func TestChipMemoSkipsFailures(t *testing.T) {
	cases := []struct {
		name, cfg  string
		wantStatus int
	}{
		{"unknown field", strings.Replace(memoConfig, `"tx":2`, `"tx":2,"clokc_hz":1`, 1), http.StatusBadRequest},
		{"unknown enum", strings.Replace(memoConfig, `"int8"`, `"int4"`, 1), http.StatusBadRequest},
		{"infeasible chip", strings.Replace(memoConfig, `"area_budget_mm2":500`, `"area_budget_mm2":1`, 1), http.StatusUnprocessableEntity},
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	for _, tc := range cases {
		_, err := ChipRequest{Config: json.RawMessage(tc.cfg)}.resolve()
		if err == nil {
			t.Fatalf("%s: config resolved", tc.name)
		}
		wantBody := wireBytes(t, apiError{Error: err.Error(), Kind: errKind(err)})
		wantEntry := SimulateBatchEntry{Kind: guard.Kind(err), Err: err.Error()}
		hits0, _ := memoCounts()
		for rep := 0; rep < 2; rep++ {
			for _, r := range memoRoutes(tc.cfg)[:2] {
				if status, got := serveDirect(h, "POST", r.path, r.body); status != tc.wantStatus || !bytes.Equal(got, wantBody) {
					t.Errorf("%s: %s, repeat %d: status %d %s; want %d %s", tc.name, r.path, rep, status, got, tc.wantStatus, wantBody)
				}
			}
			r := memoRoutes(tc.cfg)[2]
			status, got := serveDirect(h, "POST", r.path, r.body)
			var resp SimulateBatchResponse
			if err := json.Unmarshal(got, &resp); status != http.StatusOK || err != nil || resp.Failed != 2 ||
				resp.Results[0] != wantEntry || resp.Results[2] != wantEntry {
				t.Errorf("%s: simulate-batch, repeat %d: status %d %s; want entries %+v", tc.name, rep, status, got, wantEntry)
			}
		}
		if hits, _ := memoCounts(); hits != hits0 {
			t.Errorf("%s: %d memo hits", tc.name, hits-hits0)
		}
		if n, _ := memoState(s); n != 0 {
			t.Errorf("%s: memo holds %d entries", tc.name, n)
		}
	}
}

// While a guard fault is armed the memo is neither read nor written: a
// fault at chip.build fails a config the memo holds, and a config first
// built while armed is not stored.
func TestChipMemoBypassedWhileArmed(t *testing.T) {
	defer guard.DisarmAll()
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	build := func(cfg string) (int, []byte) {
		return serveDirect(h, "POST", "/v1/chip/build", `{"config":`+cfg+`}`)
	}
	_, want := build(memoConfig)

	hits0, misses0 := memoCounts()
	disarm := guard.Arm("chip.build", guard.Fault{Err: guard.NonFinite("peak_tops", 0)})
	if status, body := build(memoConfig); status != http.StatusInternalServerError || !strings.Contains(string(body), `"non-finite"`) {
		t.Errorf("memoized config under a chip.build fault: status %d %s, want the injected 500", status, body)
	}
	disarm()

	// A fault armed at a site the build route never reaches still
	// bypasses the memo.
	disarm = guard.Arm("dse.candidate", guard.Fault{Err: guard.Infeasible("injected")})
	for _, v := range memoVariants {
		if status, got := build(v); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("config %.40s while armed: status %d\n%s\nwant\n%s", v, status, got, want)
		}
	}
	if hits, misses := memoCounts(); hits != hits0 || misses != misses0 {
		t.Errorf("memo read while armed: %d hits, %d misses", hits-hits0, misses-misses0)
	}
	if n, _ := memoState(s); n != 1 {
		t.Errorf("memo holds %d entries after armed builds, want 1", n)
	}
	disarm()

	if status, got := build(memoConfig); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("after disarm: status %d\n%s", status, got)
	}
	if hits, _ := memoCounts(); hits != hits0+1 {
		t.Errorf("after disarm: %d memo hits, want 1", hits-hits0)
	}
}

// spaced returns memoConfig with pad bytes of whitespace after its opening
// brace, chosen by i: equal pads give equal bytes, different i different.
func spaced(i, pad int) string {
	ws := make([]byte, pad)
	for j := range ws {
		ws[j] = ' '
		if j < 32 && i>>j&1 == 1 {
			ws[j] = '\n'
		}
	}
	return "{" + string(ws) + memoConfig[1:]
}

// Passing either bound empties the memo, a key above the byte bound is
// never stored, and the server keeps answering correctly throughout.
func TestChipMemoBounds(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	_, want := freshResponse(t, "/v1/chip/build", `{"config":`+memoConfig+`}`)
	ref, err := s.chips.resolve(ChipRequest{Config: json.RawMessage(memoConfig)})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(cfg string) {
		t.Helper()
		if c, err := s.chips.resolve(ChipRequest{Config: json.RawMessage(cfg)}); err != nil || c.Cfg.Fingerprint() != ref.Cfg.Fingerprint() {
			t.Fatalf("config of %d bytes resolved to %v (%v)", len(cfg), c, err)
		}
	}
	// check serves memoConfig, then checks the memo's size.
	check := func(stage string, wantEntries, wantKeyBytes int) {
		t.Helper()
		if status, got := serveDirect(s.Handler(), "POST", "/v1/chip/build", `{"config":`+memoConfig+`}`); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: status %d\n%s", stage, status, got)
		}
		if n, kb := memoState(s); n != wantEntries || kb != wantKeyBytes {
			t.Fatalf("%s: memo holds %d entries, %d key bytes; want %d and %d", stage, n, kb, wantEntries, wantKeyBytes)
		}
	}

	// The entry bound: small keys, far below the byte bound.
	const pad = 12
	keyLen := len(spaced(0, pad))
	for i := 1; i < chipMemoEntries; i++ {
		resolve(spaced(i, pad))
	}
	check("full by entries", chipMemoEntries, len(memoConfig)+(chipMemoEntries-1)*keyLen)
	resolve(spaced(chipMemoEntries, pad))
	check("past the entry bound", 2, keyLen+len(memoConfig))

	// The byte bound: keys of a third of it each. Next to the two small
	// entries, the third passes the bound and empties the memo.
	big := chipMemoKeyBytes/3 - len(memoConfig)
	for i := 1; i <= 3; i++ {
		resolve(spaced(i, big))
	}
	if n, kb := memoState(s); n != 1 || kb != len(spaced(3, big)) {
		t.Fatalf("past the byte bound: memo holds %d entries, %d key bytes", n, kb)
	}

	// A key larger than the whole byte bound resolves but is not stored.
	resolve(spaced(0, chipMemoKeyBytes))
	if n, kb := memoState(s); n != 1 || kb != len(spaced(3, big)) {
		t.Fatalf("after an oversized key: memo holds %d entries, %d key bytes", n, kb)
	}
	check("after the byte bound", 2, len(spaced(3, big))+len(memoConfig))
}

// TestChipMemoConcurrent sends all three model routes, on shared inline
// configs, from many goroutines to one server whose memo starts empty:
// every body must equal a fresh server's, and each config ends up stored
// once. Run it under -race.
func TestChipMemoConcurrent(t *testing.T) {
	type call struct {
		path, body string
		want       []byte
	}
	var calls []call
	keyBytes := 0
	for _, v := range memoVariants {
		for _, r := range memoRoutes(v) {
			_, want := freshResponse(t, r.path, r.body)
			calls = append(calls, call{r.path, r.body, want})
		}
		keyBytes += len(v)
	}

	s := New(Config{BuildLimit: 64, SimulateLimit: 64, QueueDepth: 256, AdmissionTimeout: time.Minute})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds*len(calls); j++ {
				c := calls[(j+w*5)%len(calls)] // each goroutine starts elsewhere
				if status, got := serveDirect(h, "POST", c.path, c.body); status != http.StatusOK || !bytes.Equal(got, c.want) {
					t.Errorf("goroutine %d: %s: status %d\n%s", w, c.path, status, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, kb := memoState(s); n != len(memoVariants) || kb != keyBytes {
		t.Errorf("memo holds %d entries, %d key bytes; want %d and %d", n, kb, len(memoVariants), keyBytes)
	}
}

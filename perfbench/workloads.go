package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/dse"
	"neurometer/internal/graph"
	"neurometer/internal/obs"
	"neurometer/internal/rstore"
	"neurometer/internal/serve"
)

// The study workloads run the pipeline of dse -fig 10 -workers 1. Their
// input is the paper's fixed Table I design space, so the seed changes
// nothing in them; it drives daemon-mix's request sequence.

// frontier enumerates Table I and returns the Fig. 10 candidate set,
// ordered as cmd/dse orders it.
func frontier(ctx context.Context) []dse.Candidate {
	cs := dse.TableI()
	cands := dse.Frontier(enumerate(ctx, cs), cs.TOPSCap)
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.PeakTOPS != b.PeakTOPS {
			return a.PeakTOPS > b.PeakTOPS
		}
		return a.Point.X > b.Point.X
	})
	return dse.SecondRound(cands, cs.TOPSCap)
}

// enumerate builds every feasible point of cs.
func enumerate(ctx context.Context, cs dse.Constraints) []dse.Candidate {
	ctx, sp := obs.Start(ctx, "bench.enumerate")
	defer sp.End()
	return dse.EnumerateCtx(ctx, cs)
}

// fig10 runs the three-regime runtime study, reading through results when
// it is non-nil.
func fig10(ctx context.Context, cands []dse.Candidate, models []*graph.Graph, results *rstore.Cache) (map[string][]dse.RuntimeRow, error) {
	ctx, sp := obs.Start(ctx, "bench.fig10")
	defer sp.End()
	return dse.Fig10Hardened(ctx, cands, models, dse.Hardening{Workers: studyWorkers, Results: results}, "")
}

// digest hashes the three regimes' RuntimeRowsCSV output: equal digests
// mean byte-identical simulated numbers.
func digest(out map[string][]dse.RuntimeRow) string {
	h := sha256.New()
	for _, regime := range dse.Fig10Regimes {
		io.WriteString(h, regime+"\n")
		io.WriteString(h, dse.RuntimeRowsCSV(out[regime]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// study holds what the three study workloads share: the models, the
// frontier candidates and the reference digest.
type study struct {
	models []*graph.Graph
	cands  []dse.Candidate
	ref    string
}

func (s *study) reference() string { return s.ref }

// check fails an op whose output differs from the reference.
func (s *study) check(out map[string][]dse.RuntimeRow) error {
	if got := digest(out); got != s.ref {
		return fmt.Errorf("fig10 digest %s, want %s", got, s.ref)
	}
	return nil
}

// sweepCold: one op is a whole cold dse -fig 10, the wait a user sees.
type sweepCold struct{ study }

func setupSweepCold(ctx context.Context, _ config) (instance, error) {
	s := &sweepCold{study{models: dse.DefaultModels()}}
	// The first op is the reference, and it warms the process.
	out, err := fig10(ctx, frontier(ctx), s.models, nil)
	if err != nil {
		return nil, err
	}
	s.ref = digest(out)
	return s, nil
}

func (s *sweepCold) op(ctx context.Context, _ int) (time.Duration, string, error) {
	// Untimed: empty the chip build memo so every op builds cold, and
	// collect the previous op's garbage (ops are over a second each).
	chip.ResetBuildCache()
	runtime.GC()
	start := time.Now()
	out, err := fig10(ctx, frontier(ctx), s.models, nil)
	d := time.Since(start)
	if err != nil {
		return d, "", err
	}
	return d, "", s.check(out)
}

func (s *sweepCold) close() error { return nil }

// studyWarm: one op is the runtime study over candidates built in set-up,
// so no chip is constructed while timing.
type studyWarm struct{ study }

func setupStudyWarm(ctx context.Context, _ config) (instance, error) {
	s := &studyWarm{study{models: dse.DefaultModels(), cands: frontier(ctx)}}
	out, err := fig10(ctx, s.cands, s.models, nil)
	if err != nil {
		return nil, err
	}
	s.ref = digest(out)
	return s, nil
}

func (s *studyWarm) op(ctx context.Context, _ int) (time.Duration, string, error) {
	start := time.Now()
	out, err := fig10(ctx, s.cands, s.models, nil)
	d := time.Since(start)
	if err != nil {
		return d, "", err
	}
	return d, "", s.check(out)
}

func (s *studyWarm) close() error { return nil }

// storeWarm: one op opens the disk result store that set-up filled and
// reads the whole study back from it.
type storeWarm struct {
	study
	dir string
}

func setupStoreWarm(ctx context.Context, cfg config) (instance, error) {
	dir, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return nil, err
	}
	s := &storeWarm{study: study{models: dse.DefaultModels(), cands: frontier(ctx)}, dir: dir}
	st, err := rstore.OpenDisk(dir)
	if err != nil {
		s.close()
		return nil, err
	}
	// The store starts empty, so this run computes every row (the
	// reference) and writes it through rstore's write path.
	cache := rstore.NewCache(st)
	out, err := fig10(ctx, s.cands, s.models, cache)
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.ref = digest(out)
	return s, nil
}

func (s *storeWarm) op(ctx context.Context, _ int) (time.Duration, string, error) {
	start := time.Now()
	_, sp := obs.Start(ctx, "bench.rstore_open")
	st, err := rstore.OpenDisk(s.dir)
	sp.End()
	if err != nil {
		return time.Since(start), "", err
	}
	cache := rstore.NewCache(st)
	out, err := fig10(ctx, s.cands, s.models, cache)
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	d := time.Since(start)
	if err != nil {
		return d, "", err
	}
	return d, "", s.check(out)
}

func (s *storeWarm) close() error { return os.RemoveAll(s.dir) }

// daemonMix: two closed-loop clients call the neurometerd handler in
// process. Each client replays its own seeded request sequence over the
// Fig. 10 candidates, which set-up has already built through the daemon.
type daemonMix struct {
	srv  *serve.Server
	h    http.Handler
	reqs [][]request // per client, replayed cyclically
	next []int       // per client; each client touches only its own
}

type request struct {
	route, path string
	body        []byte
}

// The request mix replays the cells of the Fig. 10 study as daemon
// requests: a Fig. 10 candidate, one of dse.DefaultModels() and one of the
// three Fig. 10 batch regimes (batch 1; the model's 10 ms latency-limited
// batch on the (64,2,2,4) reference point, as dse -fig 9 reports it; batch
// 256). The study weighs every candidate, model and regime equally, and so
// does each client's sequence, exactly: it holds the route shares, every
// (model, regime) cell and every batch-request size equally often, and
// draws candidates from a shuffled deck. A seed changes only which
// candidate goes with which request and the order, so the timing medians
// do not depend on the seed's luck of the draw.
const (
	// One closed-loop client. On a 2-vCPU shared VM a second client runs
	// on the second vCPU, whose share of the host varies from run to run:
	// with two clients op_p90_ms spread 0.87 to 1.58 ms over six runs, with
	// one 0.96 to 1.19 ms in runs alternating with them.
	daemonClients     = 1
	requestsPerClient = 360 // 18 route cycles, 24 simulate and 10 batch requests per cell
	mixCycle          = 20  // per cycle: 12 simulate, 5 simulate-batch, 3 chip build
	simulatePerCycle  = 12
	batchPerCycle     = 5
	minBatchConfigs   = 8
	maxBatchConfigs   = 16
	regimeLargeBatch  = 256 // Fig. 10 regime c-large
)

// mixCell is one (model, batch) cell of the Fig. 10 study.
type mixCell struct {
	model string
	batch int
}

// fig10Cells lists the nine Fig. 10 cells, with the regime b-medium batch
// taken from the model itself.
func fig10Cells(models []*graph.Graph) ([]mixCell, error) {
	_, limits, err := dse.Fig9(dse.TableI(), models, nil)
	if err != nil {
		return nil, err
	}
	var cells []mixCell
	for _, g := range models {
		for _, b := range []int{1, limits[g.Name], regimeLargeBatch} {
			cells = append(cells, mixCell{g.Name, b})
		}
	}
	return cells, nil
}

func setupDaemonMix(ctx context.Context, cfg config) (instance, error) {
	cs := dse.TableI()
	var pool []json.RawMessage
	for _, c := range frontier(ctx) {
		raw, err := inlineConfig(cs.Config(c.Point))
		if err != nil {
			return nil, err
		}
		pool = append(pool, raw)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("daemon-mix: Table I has no Fig. 10 candidate")
	}
	cells, err := fig10Cells(dse.DefaultModels())
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	d := &daemonMix{srv: srv, h: srv.Handler(), next: make([]int, daemonClients)}
	// Build every pool config once through the daemon, so each build in the
	// timed window is a chip build memo hit on the daemon's own key.
	for i, raw := range pool {
		body, _ := json.Marshal(serve.ChipRequest{Config: raw})
		if err := d.do(ctx, request{"chip_build", "/v1/chip/build", body}); err != nil {
			d.close()
			return nil, fmt.Errorf("daemon-mix: warm build %d: %w", i, err)
		}
	}
	for c := 0; c < daemonClients; c++ {
		d.reqs = append(d.reqs, mixSequence(rand.New(rand.NewSource(cfg.seed*1000+int64(c))), pool, cells))
	}
	return d, nil
}

// mixSequence returns one client's request sequence. json.Marshal cannot
// fail on these request types, so its errors are dropped here and in
// set-up.
func mixSequence(rng *rand.Rand, pool []json.RawMessage, cells []mixCell) []request {
	var deck []json.RawMessage
	pick := func() json.RawMessage {
		if len(deck) == 0 {
			deck = append(deck, pool...)
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		c := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		return c
	}
	sizes := maxBatchConfigs - minBatchConfigs + 1
	seq := make([]request, 0, requestsPerClient)
	var sims, batches int
	for i := 0; i < requestsPerClient; i++ {
		var r request
		switch k := i % mixCycle; {
		case k < simulatePerCycle:
			cell := cells[sims%len(cells)]
			r = request{route: "simulate", path: "/v1/perfsim/simulate"}
			r.body, _ = json.Marshal(serve.SimulateRequest{
				ChipRequest: serve.ChipRequest{Config: pick()},
				Workload:    cell.model,
				Batch:       cell.batch,
			})
			sims++
		case k < simulatePerCycle+batchPerCycle:
			cell := cells[batches%len(cells)]
			req := serve.SimulateBatchRequest{Workload: cell.model, Batch: cell.batch}
			// Each round of len(cells) batch requests covers every size
			// once, shifted by one per round so sizes rotate across cells.
			n := minBatchConfigs + (batches+batches/len(cells))%sizes
			for j := 0; j < n; j++ {
				req.Configs = append(req.Configs, serve.ChipRequest{Config: pick()})
			}
			r = request{route: "simulate_batch", path: "/v1/perfsim/simulate-batch"}
			r.body, _ = json.Marshal(req)
			batches++
		default:
			r = request{route: "chip_build", path: "/v1/chip/build"}
			r.body, _ = json.Marshal(serve.ChipRequest{Config: pick()})
		}
		seq = append(seq, r)
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// inlineConfig renders a Table I chip configuration in the daemon's
// apicfg JSON schema. Table I chips are int8 with one HBM port.
func inlineConfig(c chip.Config) (json.RawMessage, error) {
	if len(c.Core.Mem) != 1 || len(c.OffChip) != 1 {
		return nil, fmt.Errorf("daemon-mix: %s is not a Table I chip", c.Name)
	}
	return json.Marshal(map[string]any{
		"name": c.Name, "tech_nm": c.TechNM, "clock_hz": c.ClockHz, "tx": c.Tx, "ty": c.Ty,
		"core": map[string]any{
			"num_tus": c.Core.NumTUs, "tu_rows": c.Core.TURows, "tu_cols": c.Core.TUCols,
			"tu_data_type": "int8", "has_su": c.Core.HasSU,
			"mem": []map[string]any{{"name": c.Core.Mem[0].Name, "capacity_bytes": c.Core.Mem[0].CapacityBytes}},
		},
		"noc_bisection_gbps": c.NoCBisectionGBps,
		"off_chip":           []map[string]any{{"kind": "hbm", "gbps": c.OffChip[0].GBps}},
		"area_budget_mm2":    c.AreaBudgetMM2,
		"power_budget_w":     c.PowerBudgetW,
	})
}

func (d *daemonMix) op(ctx context.Context, client int) (time.Duration, string, error) {
	seq := d.reqs[client]
	r := seq[d.next[client]%len(seq)]
	d.next[client]++
	hr, rec := newRequest(ctx, r)
	start := time.Now()
	d.h.ServeHTTP(rec, hr)
	dur := time.Since(start)
	return dur, r.route, checkResponse(r, rec)
}

// do sends one request outside any timing.
func (d *daemonMix) do(ctx context.Context, r request) error {
	hr, rec := newRequest(ctx, r)
	d.h.ServeHTTP(rec, hr)
	return checkResponse(r, rec)
}

func newRequest(ctx context.Context, r request) (*http.Request, *httptest.ResponseRecorder) {
	hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)).WithContext(ctx)
	hr.Header.Set("Content-Type", "application/json")
	return hr, httptest.NewRecorder()
}

// checkResponse fails anything but a 200 with a body; a simulate-batch
// response must also report no failed candidate.
func checkResponse(r request, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		return fmt.Errorf("%s: status %d, %d body bytes: %.200s", r.path, rec.Code, rec.Body.Len(), rec.Body.String())
	}
	if r.route == "simulate_batch" {
		var resp serve.SimulateBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if resp.Failed != 0 {
			return fmt.Errorf("%s: %d of %d candidates failed", r.path, resp.Failed, len(resp.Results))
		}
	}
	return nil
}

func (d *daemonMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

package dse

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"neurometer/internal/chip"
	"neurometer/internal/guard"
	"neurometer/internal/invariants"
	"neurometer/internal/obs"
	"neurometer/internal/perfsim"
	"neurometer/internal/rstore"
)

// The result-store byte-identity suite: a study run against a cold, warm,
// poisoned (bit-flipped / torn / wrong-row), write-failing, read-failing,
// or absent store must produce byte-identical CSV output to the serial
// no-store reference. The store may only ever change where a row comes
// from, never what it contains.

func openCache(t *testing.T, dir string) *rstore.Cache {
	t.Helper()
	st, err := rstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := rstore.NewCache(st)
	t.Cleanup(func() { c.Close() })
	return c
}

func storeCounter(name string) int64 {
	return obs.Default().Snapshot().Counters[name]
}

// studyCSV runs the fixture study under h and renders its CSV.
func studyCSV(t *testing.T, h Hardening) string {
	t.Helper()
	cands, spec, opt := studyFixture(t)
	rows, err := RuntimeStudyHardened(context.Background(), cands, alexnet(t), spec, opt, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cands) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cands))
	}
	return RuntimeRowsCSV(rows)
}

// storeEntryFiles lists the store's entry files.
func storeEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".res" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestStoreColdWarmByteIdentity(t *testing.T) {
	ref := studyCSV(t, Hardening{}) // serial, storeless reference
	dir := t.TempDir()

	// Cold store, parallel workers: every candidate misses and evaluates.
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 4}); got != ref {
		t.Fatalf("cold-store CSV differs from reference:\n%s\n---\n%s", got, ref)
	}
	if n := len(storeEntryFiles(t, dir)); n != 3 {
		t.Fatalf("store holds %d entries after cold run, want 3", n)
	}

	// Warm store, fresh process (fresh cache over the same dir): every
	// candidate is served from disk — and the bytes still match.
	hitsBefore := storeCounter("rstore.hits")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 4}); got != ref {
		t.Fatalf("warm-store CSV differs from reference")
	}
	if d := storeCounter("rstore.hits") - hitsBefore; d != 3 {
		t.Fatalf("warm run hit %d entries, want 3", d)
	}
}

func TestStorePoisonedBitFlipByteIdentity(t *testing.T) {
	ref := studyCSV(t, Hardening{})
	dir := t.TempDir()
	studyCSV(t, Hardening{Results: openCache(t, dir)}) // warm it

	// Flip one byte in every stored entry. Reads must detect, quarantine,
	// and silently re-evaluate.
	for _, f := range storeEntryFiles(t, dir) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x20
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	qBefore := storeCounter("rstore.corrupt_quarantined")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 2}); got != ref {
		t.Fatalf("poisoned-store CSV differs from reference")
	}
	if d := storeCounter("rstore.corrupt_quarantined") - qBefore; d != 3 {
		t.Fatalf("corrupt_quarantined delta = %d, want 3", d)
	}
	if q := quarantineCount(t, dir); q != 3 {
		t.Fatalf("quarantine holds %d entries, want 3", q)
	}
}

func TestStoreTornWriteByteIdentity(t *testing.T) {
	ref := studyCSV(t, Hardening{})
	dir := t.TempDir()
	studyCSV(t, Hardening{Results: openCache(t, dir)})

	// Tear one entry mid-payload and plant the *.tmp a SIGKILL between
	// write and rename would leave. OpenDisk's recovery scan must remove
	// the orphan and quarantine the torn entry without failing.
	files := storeEntryFiles(t, dir)
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1]+".tmp", raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := rstore.OpenDisk(dir)
	if err != nil {
		t.Fatalf("recovery scan over torn store failed: %v", err)
	}
	if r := st.Report(); r.Entries != 2 || r.Quarantined != 1 || r.TmpRemoved != 1 {
		t.Fatalf("scan report = %+v, want entries=2 quarantined=1 tmp_removed=1", r)
	}
	cache := rstore.NewCache(st)
	defer cache.Close()
	if got := studyCSV(t, Hardening{Results: cache}); got != ref {
		t.Fatalf("post-recovery CSV differs from reference")
	}
}

func TestStoreENOSPCByteIdentity(t *testing.T) {
	defer guard.DisarmAll()
	ref := studyCSV(t, Hardening{})
	dir := t.TempDir()

	// Every write fails with ENOSPC: the study must neither fail nor slow
	// down beyond the evaluations themselves, and nothing is persisted.
	disarm := guard.Arm("rstore.write", guard.Fault{Err: syscall.ENOSPC})
	wfBefore := storeCounter("rstore.write_failures")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 2}); got != ref {
		t.Fatalf("ENOSPC-store CSV differs from reference")
	}
	if d := storeCounter("rstore.write_failures") - wfBefore; d != 3 {
		t.Fatalf("write_failures delta = %d, want 3", d)
	}
	if n := len(storeEntryFiles(t, dir)); n != 0 {
		t.Fatalf("store holds %d entries despite ENOSPC, want 0", n)
	}
	disarm()

	// Disk recovered: the next run persists and still matches.
	if got := studyCSV(t, Hardening{Results: openCache(t, dir)}); got != ref {
		t.Fatalf("post-ENOSPC CSV differs from reference")
	}
	if n := len(storeEntryFiles(t, dir)); n != 3 {
		t.Fatalf("store holds %d entries after recovery, want 3", n)
	}
}

func TestStoreReadFaultByteIdentity(t *testing.T) {
	defer guard.DisarmAll()
	ref := studyCSV(t, Hardening{})
	dir := t.TempDir()
	studyCSV(t, Hardening{Results: openCache(t, dir)}) // warm

	// Every read fails (bad mount): all lookups degrade to evaluation.
	defer guard.Arm("rstore.read", guard.Fault{Err: guard.Unavailable("injected io error")})()
	degBefore := storeCounter("rstore.degraded")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 2}); got != ref {
		t.Fatalf("read-fault CSV differs from reference")
	}
	if d := storeCounter("rstore.degraded") - degBefore; d < 3 {
		t.Fatalf("degraded delta = %d, want >= 3", d)
	}
}

// TestCandidateFingerprintCraftedNames checks that chip names cannot alias
// two stored results: a one-tile and an eight-tile Table I chip with the
// same per-core memory, whose names carry each other's %+v field text
// (so Go's struct formatting renders them alike), get two content
// addresses.
func TestCandidateFingerprintCraftedNames(t *testing.T) {
	cs := TableI()
	a, b := cs.Config(Point{64, 2, 1, 1}), cs.Config(Point{64, 2, 2, 4})
	a.Core.Mem[0].CapacityBytes = b.Core.Mem[0].CapacityBytes
	between := func(c chip.Config) string {
		c.Name, c.Core.Mem[0].Name = "\x00", "\x01"
		s := fmt.Sprintf("%+v", c)
		return s[strings.IndexByte(s, 0)+1 : strings.IndexByte(s, 1)]
	}
	ra, rb := between(a), between(b)
	a.Name, a.Core.Mem[0].Name = "n", rb+"m"
	b.Name, b.Core.Mem[0].Name = "n"+ra, "m"
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("premise: the crafted pair must render alike under Go struct formatting")
	}
	names := []string{"resnet", "inception", "nasnet"}
	spec, opt := BatchSpec{Fixed: 1}, perfsim.DefaultOptions()
	if CandidateFingerprint(a, names, spec, opt) == CandidateFingerprint(b, names, spec, opt) {
		t.Fatal("a one-tile and an eight-tile chip share one result-store address")
	}
}

// TestCandidateFingerprintCoversSpecAndOptions changes every field of the
// batch spec and the simulator options in turn, and the model list, and
// checks that each change gives a content address of its own: a latency
// bound 0.2 ms away must not read another regime's stored row.
func TestCandidateFingerprintCoversSpecAndOptions(t *testing.T) {
	cfg := TableI().Config(Point{64, 2, 2, 4})
	models := []string{"resnet", "inception"}
	spec, opt := BatchSpec{LatencyBound: 10.1e-3}, perfsim.DefaultOptions()
	seen := map[string]string{}
	check := func(what string) {
		fp := CandidateFingerprint(cfg, models, spec, opt)
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s gives the content address of %s", what, prev)
			return
		}
		seen[fp] = what
	}
	check("the base candidate")
	for _, v := range []reflect.Value{reflect.ValueOf(&spec).Elem(), reflect.ValueOf(&opt).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			orig := reflect.New(f.Type()).Elem()
			orig.Set(f)
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() - 0.2e-3)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s.%s: kind %s has no mutation here", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
			check("changing " + v.Type().Field(i).Name)
			f.Set(orig)
		}
	}
	models = []string{"resnet,inception"}
	check("joining the model names")
}

func TestStoreWrongRowQuarantined(t *testing.T) {
	ref := studyCSV(t, Hardening{})
	cands, spec, opt := studyFixture(t)
	names := modelNames(alexnet(t))
	dir := t.TempDir()

	// Plant a checksum-valid entry whose payload is a well-formed row for a
	// different design point under candidate 0's fingerprint — the
	// identity check (not the checksum or the length) must catch it.
	st, err := rstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	wrongRow := RuntimeRow{Point: cands[1].Point, PeakTOPS: 1, AchievedTOPS: 1, Utilization: 1, PowerW: 1, TOPSPerWatt: 1, TOPSPerTCO: 1, Batches: []int{8}}
	wrong := appendStoredRow(nil, wrongRow)
	if _, err := decodeStoredRow(wrong, cands[1].Point); err != nil {
		t.Fatalf("planted row does not decode for its own point: %v", err)
	}
	fp0 := CandidateFingerprint(cands[0].Chip.Cfg, names, spec, opt)
	if err := st.Put(fp0, wrong); err != nil {
		t.Fatal(err)
	}
	// And an entry whose payload does not decode at all under candidate 1's.
	fp1 := CandidateFingerprint(cands[1].Chip.Cfg, names, spec, opt)
	if err := st.Put(fp1, []byte("not json {")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	qBefore := storeCounter("rstore.corrupt_quarantined")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir)}); got != ref {
		t.Fatalf("wrong-row store CSV differs from reference")
	}
	if d := storeCounter("rstore.corrupt_quarantined") - qBefore; d != 2 {
		t.Fatalf("corrupt_quarantined delta = %d, want 2", d)
	}
	if q := quarantineCount(t, dir); q != 2 {
		t.Fatalf("quarantine holds %d entries, want 2", q)
	}
}

func TestStoreConcurrentStudiesByteIdentity(t *testing.T) {
	ref := studyCSV(t, Hardening{})
	cache := openCache(t, t.TempDir())

	// Two studies over the same candidates race on a shared cache, each
	// looking up, computing and writing the same rows, and both outputs
	// match the reference exactly.
	var wg sync.WaitGroup
	out := make([]string, 2)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cands, spec, opt := studyFixture(t)
			rows, err := RuntimeStudyHardened(context.Background(), cands, alexnet(t), spec, opt,
				Hardening{Results: cache, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = RuntimeRowsCSV(rows)
		}(i)
	}
	wg.Wait()
	for i, got := range out {
		if got != ref {
			t.Fatalf("concurrent study %d CSV differs from reference", i)
		}
	}
}

// TestStoreKeepsRowsAcrossInterruptedReruns: rows a rerun serves from the
// store stay there. A study interrupted twice — once cold, once while
// resuming — keeps every row either attempt completed, and the third run
// serves all of them as hits, simulates only the last candidate, and
// matches the uninterrupted reference byte for byte.
func TestStoreKeepsRowsAcrossInterruptedReruns(t *testing.T) {
	defer guard.DisarmAll()
	ref := studyCSV(t, Hardening{})
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)
	dir := t.TempDir()

	// Each interrupted run completes exactly one evaluation, then the
	// second evaluation to start cancels it.
	for run, wantStored := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 1, OnHit: cancel})
		_, err := RuntimeStudyHardened(ctx, cands, models, spec, opt,
			Hardening{Results: openCache(t, dir), Workers: 1})
		disarm()
		cancel()
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("interrupted run %d: got %v, want ErrCanceled", run, err)
		}
		if n := len(storeEntryFiles(t, dir)); n != wantStored {
			t.Fatalf("after interrupted run %d the store holds %d rows, want %d", run, n, wantStored)
		}
	}

	hitsBefore := storeCounter("dse.candidates_from_store")
	simsBefore := storeCounter("perfsim.simulations")
	if got := studyCSV(t, Hardening{Results: openCache(t, dir), Workers: 1}); got != ref {
		t.Fatalf("resumed CSV differs from reference")
	}
	if d := storeCounter("dse.candidates_from_store") - hitsBefore; d != 2 {
		t.Fatalf("final run served %d candidates from the store, want 2", d)
	}
	if d := storeCounter("perfsim.simulations") - simsBefore; d != int64((len(cands)-2)*len(models)) {
		t.Fatalf("final run ran %d simulations, want %d", d, (len(cands)-2)*len(models))
	}
}

// TestStoreResumeAfterCancel pins what resuming a study means: rerun it on
// the same result store. A study canceled partway through has persisted
// every row it completed; the rerun serves exactly those rows as verified
// hits, simulates only the rest, and emits CSV byte-identical to an
// uninterrupted run. Two workers claiming one candidate at a time make the
// cancel point scheduling dependent, which the test tolerates by counting
// what was stored rather than assuming it.
func TestStoreResumeAfterCancel(t *testing.T) {
	defer guard.DisarmAll()
	ref := studyCSV(t, Hardening{})
	cands, spec, opt := studyFixture(t)
	models := alexnet(t)

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			h := Hardening{Workers: tc.workers}

			// The third candidate to start cancels the study.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			disarm := guard.Arm("dse.candidate", guard.Fault{Skip: 2, Count: 1, OnHit: cancel})
			h.Results = openCache(t, dir)
			partial, err := RuntimeStudyHardened(ctx, cands, models, spec, opt, h)
			disarm()
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("interrupted run: got %v, want ErrCanceled", err)
			}
			stored := len(storeEntryFiles(t, dir))
			if stored != len(partial) || stored == 0 || stored >= len(cands) {
				t.Fatalf("interrupted run stored %d rows and returned %d, want the same count in [1, %d)",
					stored, len(partial), len(cands))
			}

			// Rerun on the same store, as a restarted process would.
			hitsBefore := storeCounter("dse.candidates_from_store")
			simsBefore := storeCounter("perfsim.simulations")
			h.Results = openCache(t, dir)
			if got := studyCSV(t, h); got != ref {
				t.Fatalf("resumed CSV differs from uninterrupted run:\n got: %s\nwant: %s", got, ref)
			}
			if d := storeCounter("dse.candidates_from_store") - hitsBefore; d != int64(stored) {
				t.Fatalf("rerun served %d candidates from the store, want %d", d, stored)
			}
			wantSims := int64((len(cands) - stored) * len(models))
			if d := storeCounter("perfsim.simulations") - simsBefore; d != wantSims {
				t.Fatalf("rerun ran %d simulations, want %d (only the unfinished candidates)", d, wantSims)
			}
		})
	}
}

// A store holding one Fig. 10 regime serves it, and the one-pass study
// simulates only the other two: regime b's rows come back as 47 hits, and
// regimes a and c cost one simulation per (candidate, model) each. The
// output is byte-identical to a run with no store.
func TestFig10PartialStore(t *testing.T) {
	cs := TableI()
	cands := SecondRound(Frontier(sweep, cs.TOPSCap), cs.TOPSCap)
	models := DefaultModels()
	want, err := Fig10Hardened(context.Background(), cands, models, Hardening{}, "")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, err := RuntimeStudyHardened(context.Background(), cands, models, BatchSpec{LatencyBound: 10e-3},
		perfsim.DefaultOptions(), Hardening{Results: openCache(t, dir)}); err != nil {
		t.Fatal(err)
	}

	hitsBefore, simsBefore := storeCounter("dse.candidates_from_store"), storeCounter("perfsim.simulations")
	got, err := Fig10Hardened(context.Background(), cands, models, Hardening{Results: openCache(t, dir)}, "")
	if err != nil {
		t.Fatal(err)
	}
	if d := storeCounter("dse.candidates_from_store") - hitsBefore; d != 47 {
		t.Errorf("dse.candidates_from_store = %d, want 47 (regime b)", d)
	}
	if d := storeCounter("perfsim.simulations") - simsBefore; d != 282 {
		t.Errorf("perfsim.simulations = %d, want 282 (regimes a and c)", d)
	}
	for _, regime := range Fig10Regimes {
		if RuntimeRowsCSV(got[regime]) != RuntimeRowsCSV(want[regime]) {
			t.Errorf("%s: output with a partial store differs from the no-store run", regime)
		}
	}
}

// faultRow is one row of the store-damage fault table: the faults it arms
// and whether the replay must stay byte-identical (false: the relaxed NaN
// contract).
type faultRow struct {
	name   string
	faults map[string]guard.Fault
	exact  bool
}

// faultTable is one row per (site, effect) pair that keeps the output
// exact, one row arming all of them at once, and one NaN row, which may
// drop rows but must never change or emit a non-finite one.
func faultTable() []faultRow {
	ioErr := guard.Unavailable("injected io error")
	const d = 2 * time.Millisecond
	type sites = map[string]guard.Fault
	return []faultRow{
		{"rstore.read/err", sites{"rstore.read": {Skip: 1, Count: 1, Err: ioErr}}, true},
		{"rstore.read/delay", sites{"rstore.read": {Count: 1, Delay: d}}, true},
		{"rstore.write/err", sites{"rstore.write": {Count: 1, Err: ioErr}}, true},
		{"rstore.write/delay", sites{"rstore.write": {Skip: 1, Count: 1, Delay: d}}, true},
		// The scan visits entries in storeEntryFiles order, so its third
		// hit is the one entry damageStore left intact.
		{"rstore.scan/err", sites{"rstore.scan": {Skip: 2, Count: 1, Err: ioErr}}, true},
		{"chip.build/delay", sites{"chip.build": {Skip: 1, Count: 1, Delay: d}}, true},
		{"perfsim.simulate/delay", sites{"perfsim.simulate": {Count: 1, Delay: d}}, true},
		{"perfsim.layer/delay", sites{"perfsim.layer": {Skip: 3, Count: 1, Delay: d}}, true},
		{"dse.candidate/delay", sites{"dse.candidate": {Skip: 1, Count: 1, Delay: d}}, true},
		{"everything", sites{
			"rstore.read":      {Skip: 1, Count: 1, Delay: d, Err: ioErr},
			"rstore.write":     {Count: 1, Delay: d, Err: ioErr},
			"rstore.scan":      {Skip: 2, Count: 1, Err: ioErr},
			"chip.build":       {Count: 1, Delay: d},
			"perfsim.simulate": {Skip: 1, Count: 1, Delay: d},
			"perfsim.layer":    {Skip: 5, Count: 1, Delay: d},
			"dse.candidate":    {Count: 1, Delay: d},
		}, true},
		{"perfsim.achieved_tops/nan", sites{"perfsim.achieved_tops": {Count: 1, NaN: true}}, false},
	}
}

// TestFaultTableCoversEverySite fails when a registered production fault
// site has no row in the fault table, or a row arms a site that is not
// registered, so every site TestStoreDamageUnderFaults should exercise is.
func TestFaultTableCoversEverySite(t *testing.T) {
	covered := map[string]bool{}
	for _, r := range faultTable() {
		for site := range r.faults {
			covered[site] = true
		}
	}
	registered := map[string]bool{}
	for _, site := range guard.Sites() {
		registered[site] = true
		if !covered[site] {
			t.Errorf("fault site %q has no row in the fault table", site)
		}
	}
	for site := range covered {
		if !registered[site] {
			t.Errorf("fault table arms %q, which is not a registered fault site", site)
		}
	}
}

// TestStoreDamageUnderFaults is the result store's durability contract
// under every production fault site. Each faultTable row populates a
// store, damages it the three ways crashes and bad disks do (a flipped
// byte mid-entry, an entry torn to half its length, an orphaned *.tmp),
// arms its faults, reopens the store (so the recovery scan runs under
// them), rebuilds the fixture's chips (chip.build is on the replay path,
// as in a cmd/dse run) and replays the study on a two-worker pool. The
// output must be byte-identical to the storeless serial reference, every
// armed fault must fire, and the store and obs registry must pass the
// shared invariants.
func TestStoreDamageUnderFaults(t *testing.T) {
	defer guard.DisarmAll()
	rows := faultTable()

	ref := studyCSV(t, Hardening{})
	refLines := map[string]bool{}
	for _, l := range strings.SplitAfter(ref, "\n") {
		refLines[l] = true
	}
	_, spec, opt := studyFixture(t)
	maxQuarantined, _ := rstore.QuarantineLimits()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			defer guard.DisarmAll()
			dir := t.TempDir()
			studyCSV(t, Hardening{Results: openCache(t, dir)})
			files := storeEntryFiles(t, dir)
			if len(files) != 3 {
				t.Fatalf("populated store holds %d entries, want 3", len(files))
			}
			damageStore(t, dir, files)

			baseline := invariants.GoroutineBaseline()
			before := obs.Default().Snapshot()
			for site, f := range r.faults {
				guard.Arm(site, f)
			}
			st, err := rstore.OpenDisk(dir)
			if err != nil {
				t.Fatalf("recovery scan over the damaged store failed: %v", err)
			}
			if rep := st.Report(); rep.TmpRemoved != 1 || rep.Quarantined < 2 {
				t.Errorf("scan report = %+v, want the tmp removed and both damaged entries quarantined", rep)
			}
			cache := rstore.NewCache(st)
			cands, _, _ := studyFixture(t)
			for i := range cands {
				if cands[i].Chip, err = chip.BuildCached(TableI().Config(cands[i].Point)); err != nil {
					t.Fatal(err)
				}
			}
			out, err := RuntimeStudyHardened(context.Background(), cands, alexnet(t), spec, opt,
				Hardening{Workers: 2, Results: cache})
			cache.Close()
			guard.DisarmAll()
			if err != nil {
				t.Fatalf("replay failed: %v", err)
			}
			got := RuntimeRowsCSV(out)

			if r.exact && got != ref {
				t.Errorf("CSV differs from the storeless serial reference:\n%s\n---\n%s", got, ref)
			}
			for _, l := range strings.SplitAfter(got, "\n") {
				if l != "" && !refLines[l] {
					t.Errorf("row not byte-identical to any reference row: %q", l)
				}
				if strings.Contains(l, "NaN") || strings.Contains(l, "Inf") {
					t.Errorf("non-finite value reached the CSV: %q", l)
				}
			}

			after := obs.Default().Snapshot()
			fired := after.Counters["guard.faults_injected"] - before.Counters["guard.faults_injected"]
			if fired != int64(len(r.faults)) {
				t.Errorf("%d faults fired, want %d (one per armed site)", fired, len(r.faults))
			}
			if err := invariants.QuarantineAccounting(dir, maxQuarantined); err != nil {
				t.Error(err)
			}
			if err := invariants.GaugesDrained(after); err != nil {
				t.Error(err)
			}
			if err := invariants.NoGoroutineLeak(baseline, 4, 5*time.Second); err != nil {
				t.Error(err)
			}
			if err := invariants.CountersMonotonic(before, after); err != nil {
				t.Error(err)
			}
			if err := invariants.FiniteGauges(after); err != nil {
				t.Error(err)
			}
		})
	}
}

// damageStore applies the three store-damage ops: a byte flipped in the
// middle of files[0], files[1] truncated to half its length, and an
// orphaned tmp file planted under objects/.
func damageStore(t *testing.T, dir string, files []string) {
	t.Helper()
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "objects", strings.Repeat("0", 64)+".res.tmp")
	if err := os.WriteFile(tmp, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
}

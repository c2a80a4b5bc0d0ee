package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/mprt"
	"hfxmd/internal/scf"
	"hfxmd/internal/store"
)

// mustNew starts a server or fails the test. When the test ends the server
// is shut down (Shutdown is idempotent, so a test may drain it first) and
// the test fails if any goroutine outlives it: workers, builder pools and
// handlers must all be gone.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	before := runtime.NumGoroutine()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked: %d -> %d\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	})
	return s
}

// ---------------------------------------------------------------------------
// Queue unit tests.

func fakeJob(id string, rank float64, seq int64) *job {
	return &job{id: id, rank: rank, seq: seq, done: make(chan struct{}),
		ctx: context.Background(), cancel: func() {}}
}

func TestQueueShortestPredictedFirst(t *testing.T) {
	q := newQueue(8)
	for i, rank := range []float64{50, 10, 30, 20, 40} {
		if err := q.push(fakeJob(fmt.Sprintf("j%d", i), rank, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"j1", "j3", "j2", "j4", "j0"}
	for _, w := range want {
		j, ok := q.pop()
		if !ok || j.id != w {
			t.Fatalf("pop order wrong: got %v, want %s", j, w)
		}
	}
}

func TestQueueAgingBoundsStarvation(t *testing.T) {
	// rank = predicted + aging·t_enqueue. An expensive job admitted at
	// t=0 must NOT be overtaken by equally-late cheap jobs forever: a
	// cheap job arriving after predicted/aging seconds ranks behind it.
	const aging = 1e8 // ns per queued second
	expensive := fakeJob("expensive", 5e8+aging*0, 0)
	earlyCheap := fakeJob("early-cheap", 1e6+aging*1, 1) // 1s later: overtakes
	lateCheap := fakeJob("late-cheap", 1e6+aging*600, 2) // 10min later: does not
	q := newQueue(8)
	for _, j := range []*job{expensive, earlyCheap, lateCheap} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 3; i++ {
		j, _ := q.pop()
		order = append(order, j.id)
	}
	want := "early-cheap,expensive,late-cheap"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("aging order %s, want %s", got, want)
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	q := newQueue(4)
	for i := 0; i < 4; i++ {
		q.push(fakeJob(fmt.Sprintf("j%d", i), 7, int64(i)))
	}
	for i := 0; i < 4; i++ {
		j, _ := q.pop()
		if want := fmt.Sprintf("j%d", i); j.id != want {
			t.Fatalf("equal ranks must stay FIFO: got %s, want %s", j.id, want)
		}
	}
}

func TestQueueFullAndDrain(t *testing.T) {
	q := newQueue(2)
	if err := q.push(fakeJob("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(fakeJob("b", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(fakeJob("c", 3, 2)); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	q.drain()
	if err := q.push(fakeJob("d", 4, 3)); err != ErrDraining {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	// Drained queues still hand out the remaining jobs, then stop.
	if j, ok := q.pop(); !ok || j.id != "a" {
		t.Fatalf("drained pop 1: %v %v", j, ok)
	}
	if j, ok := q.pop(); !ok || j.id != "b" {
		t.Fatalf("drained pop 2: %v %v", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty drained queue must report exhaustion")
	}
}

// ---------------------------------------------------------------------------
// Cache unit tests.

// newTestCache builds a memory-only resultCache with the given hot-tier
// byte budget.
func newTestCache(t *testing.T, hotBytes int64) *resultCache {
	t.Helper()
	st, err := store.Open(store.Options{HotBytes: hotBytes})
	if err != nil {
		t.Fatal(err)
	}
	return &resultCache{st: st}
}

func TestCacheByteBudgetEviction(t *testing.T) {
	// Each JSON-encoded JobResult here is a few hundred bytes; a 1 KiB
	// budget holds roughly two, so inserting a third evicts the least
	// recently used one — "b", because the get refreshed "a".
	c := newTestCache(t, 1<<10)
	c.put("a", JobResult{ID: "a", Error: strings.Repeat("x", 200)})
	c.put("b", JobResult{ID: "b", Error: strings.Repeat("x", 200)})
	c.get("a") // refresh a: b is now least recently used
	c.put("c", JobResult{ID: "c", Error: strings.Repeat("x", 200)})
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if res, ok := c.get(k); !ok || res.ID != k {
			t.Fatalf("%s should be cached", k)
		}
	}
	if c.bytes() > 1<<10 {
		t.Fatalf("cache.bytes %d exceeds the 1 KiB budget", c.bytes())
	}
	// A single result bigger than the whole budget is never admitted.
	c.put("huge", JobResult{ID: "huge", Error: strings.Repeat("x", 4<<10)})
	if _, ok := c.get("huge"); ok {
		t.Fatal("over-budget result must not be admitted")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newTestCache(t, -1)
	c.put("a", JobResult{})
	if _, ok := c.get("a"); ok {
		t.Fatal("disabled cache must not store")
	}
	if c.contains("a") {
		t.Fatal("disabled cache must not report residency")
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(mutate func(*JobRequest)) string {
		r := JobRequest{Kind: KindSCF, System: "water"}
		if mutate != nil {
			mutate(&r)
		}
		r.normalize()
		mol, err := r.resolveMolecule()
		if err != nil {
			t.Fatal(err)
		}
		return r.cacheKey(mol)
	}
	base := key(nil)
	// Options that cannot change the numbers do not change the key.
	if k := key(func(r *JobRequest) { r.TimeoutMS = 5000 }); k != base {
		t.Fatal("timeout must not enter the cache key")
	}
	// Defaults are canonical: explicitly spelling them changes nothing.
	if k := key(func(r *JobRequest) { r.Basis = "STO-3G"; r.Functional = "hf"; r.Screen = 1e-8 }); k != base {
		t.Fatal("explicit defaults must hash like implied defaults")
	}
	// Numerics-affecting fields do.
	if k := key(func(r *JobRequest) { r.Screen = 1e-6 }); k == base {
		t.Fatal("screening threshold must enter the cache key")
	}
	if k := key(func(r *JobRequest) { r.Functional = "PBE0" }); k == base {
		t.Fatal("functional must enter the cache key")
	}
	if k := key(func(r *JobRequest) { r.System = "lih" }); k == base {
		t.Fatal("geometry must enter the cache key")
	}
	if k := key(func(r *JobRequest) { r.Charge = 2 }); k == base {
		t.Fatal("charge must enter the cache key")
	}
	f := false
	if k := key(func(r *JobRequest) { r.DensityWeighted = &f }); k == base {
		t.Fatal("density weighting must enter the cache key")
	}
	if k := key(func(r *JobRequest) { r.Kind = KindBuildJK }); k == base {
		t.Fatal("job kind must enter the cache key")
	}
}

// ---------------------------------------------------------------------------
// End-to-end server tests.

func submit(t *testing.T, ts *httptest.Server, req JobRequest) *JobResult {
	t.Helper()
	res, err := NewClient(ts.URL).Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counter(s *Server, name string) int64 { return s.Metrics().Counter(name).Value() }

// TestSystemsListMatchesResolver: /v1/systems lists exactly the names the
// job resolver accepts — every listed name resolves, once, and an unlisted
// one does not.
func TestSystemsListMatchesResolver(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Systems []string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Systems) == 0 {
		t.Fatal("no systems listed")
	}
	seen := map[string]bool{}
	for _, name := range body.Systems {
		if seen[name] {
			t.Errorf("%q listed twice", name)
		}
		seen[name] = true
		req := JobRequest{Kind: KindSCF, System: name, NWater: 2}
		if _, err := req.resolveMolecule(); err != nil {
			t.Errorf("listed system %q does not resolve: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "WATER", "h2o", ""} {
		req := JobRequest{Kind: KindSCF, System: name, NWater: 2}
		if _, err := req.resolveMolecule(); err == nil {
			t.Errorf("unlisted system %q resolves", name)
		}
	}
}

func TestServerSCFJobAndCacheHit(t *testing.T) {
	s := mustNew(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := submit(t, ts, JobRequest{Kind: KindSCF, System: "water"})
	if res.State != StateDone || res.CacheHit {
		t.Fatalf("first run: %+v", res)
	}
	if res.SCF == nil || !res.SCF.Converged {
		t.Fatalf("scf payload missing or unconverged: %+v", res.SCF)
	}
	if e := res.SCF.Energy; e > -74.9 || e < -75.1 {
		t.Fatalf("water energy %f out of range", e)
	}
	if res.PredictedCostNS <= 0 {
		t.Fatal("admission must price the job")
	}

	builds := counter(s, "hfx.fock_builds")
	if builds == 0 {
		t.Fatal("builder report was not merged into the server registry")
	}
	// The repeat is answered from the cache: no queueing, no execution,
	// no builder work.
	res2 := submit(t, ts, JobRequest{Kind: KindSCF, System: "water"})
	if !res2.CacheHit || res2.State != StateDone {
		t.Fatalf("second run must be a cache hit: %+v", res2)
	}
	if res2.SCF == nil || res2.SCF.Energy != res.SCF.Energy {
		t.Fatal("cache hit must return the stored payload")
	}
	if got := counter(s, "cache.hits"); got != 1 {
		t.Fatalf("cache.hits %d, want 1", got)
	}
	if got := counter(s, "jobs.executed"); got != 1 {
		t.Fatalf("jobs.executed %d, want 1 (cache hit must not execute)", got)
	}
	if got := counter(s, "hfx.fock_builds"); got != builds {
		t.Fatalf("cache hit did builder work: %d -> %d Fock builds", builds, got)
	}

	// The served run builds on the admission's pair list and task list;
	// its summary is that of an in-process run of the same request, bit
	// for bit.
	req := JobRequest{Kind: KindSCF, System: "water", CacheMB: 16}
	served := submit(t, ts, req)
	req.normalize()
	mol, err := req.resolveMolecule()
	if err != nil {
		t.Fatal(err)
	}
	in, err := scf.Run(mol, s.scfConfig(&req))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(served.SCF)
	want, _ := json.Marshal(SummarizeSCF(in))
	if !bytes.Equal(got, want) {
		t.Fatalf("served SCF summary differs from an in-process run:\n%s\n%s", got, want)
	}
}

// TestGaugesReadAtPublish: the queue and cache gauges of the JSON
// snapshot are the queue's depth and the store's own counts.
func TestGaugesReadAtPublish(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, sys := range []string{"water", "lih"} {
		if res := submit(t, ts, JobRequest{Kind: KindSCF, System: sys}); res.State != StateDone {
			t.Fatalf("%s: %+v", sys, res)
		}
	}
	g := s.snapshot().Gauges
	if g["jobs.queued"] != 0 || g["cache.entries"] != int64(s.cache.entries()) || g["cache.bytes"] != s.cache.bytes() {
		t.Fatalf("gauges queued=%d entries=%d bytes=%d, want 0, %d, %d",
			g["jobs.queued"], g["cache.entries"], g["cache.bytes"], s.cache.entries(), s.cache.bytes())
	}
	if s.cache.entries() == 0 || s.cache.bytes() == 0 {
		t.Fatal("two finished SCF jobs left the cache empty")
	}
}

// TestServedSCFComputesOverlapOnce: a served SCF job's solver and its
// summary (Mulliken charges) share the job's integral engine, so the job
// walks the S pass once.
func TestServedSCFComputesOverlapOnce(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := integrals.OverlapPasses()
	res := submit(t, ts, JobRequest{Kind: KindSCF, System: "water"})
	if res.State != StateDone || res.SCF == nil || len(res.SCF.Mulliken) == 0 {
		t.Fatalf("served SCF: %+v", res)
	}
	if n := integrals.OverlapPasses() - before; n != 1 {
		t.Fatalf("a served SCF job walked the S pass %d times, want 1", n)
	}
}

// TestServedBuilderTakesAdmissionTasks: the builder a buildjk job runs on
// schedules the task list its admission priced — the same slice, not a
// second pricing of it — and that list is the one a builder made with the
// served options prices for itself.
func TestServedBuilderTakesAdmissionTasks(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	req := JobRequest{Kind: KindBuildJK, System: "water"}
	req.normalize()
	prep, _, err := prepare(&req, s.cfg.BuilderThreads)
	if err != nil {
		t.Fatal(err)
	}
	var st workerState
	defer st.close(s)
	b, err := st.builderFor(&job{req: req, prep: prep}, s)
	if err != nil {
		t.Fatal(err)
	}
	tasks := b.Tasks()
	if len(tasks) == 0 || len(tasks) != len(prep.tasks) || &tasks[0] != &prep.tasks[0] {
		t.Fatalf("served builder schedules %d tasks at %p, admission priced %d at %p",
			len(tasks), tasks, len(prep.tasks), prep.tasks)
	}
	own := hfx.NewBuilder(prep.eng, prep.scr, hfxOptions(&req, s.cfg.BuilderThreads))
	defer own.Close()
	if !slices.Equal(own.Tasks(), tasks) {
		t.Fatal("admission priced the task list under other options than the served builder's")
	}
}

// TestServedPlacementsBuildOnAdmissionPricing: every served buildjk
// placement, one rank or two, direct or semi-direct, schedules admission's
// task slice itself, and a semi-direct one admits what a fresh builder of
// the same placement and options admits: the same SpillKey.
func TestServedPlacementsBuildOnAdmissionPricing(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	for _, c := range []struct{ ranks, cacheMB int }{{1, 1}, {2, 0}, {2, 1}} {
		req := JobRequest{Kind: KindBuildJK, System: "water", Ranks: c.ranks, CacheMB: c.cacheMB}
		req.normalize()
		prep, _, err := prepare(&req, s.cfg.BuilderThreads)
		if err != nil {
			t.Fatal(err)
		}
		var st workerState
		b, err := st.builderFor(&job{req: req, prep: prep}, s)
		if err != nil {
			t.Fatal(err)
		}
		if tasks := b.Tasks(); len(tasks) == 0 || len(tasks) != len(prep.tasks) || &tasks[0] != &prep.tasks[0] {
			t.Errorf("%+v: served builder schedules %d tasks at %p, admission priced %d at %p",
				c, len(tasks), tasks, len(prep.tasks), prep.tasks)
		}
		if c.cacheMB > 0 {
			fresh := hfx.NewBuilder(prep.eng, prep.scr, hfxOptions(&req, s.cfg.BuilderThreads))
			if c.ranks > 1 {
				d, err := hfx.NewDistBuilder(prep.eng, prep.scr, hfx.DistOptions{Ranks: c.ranks, Schedule: mprt.DimExchange, Opts: hfxOptions(&req, s.cfg.BuilderThreads)})
				if err != nil {
					t.Fatal(err)
				}
				fresh.Close()
				fresh = d.Builder
			}
			if got, want := b.SpillKey(), fresh.SpillKey(); got == "" || got != want {
				t.Errorf("%+v: served SpillKey %q, a fresh builder's %q", c, got, want)
			}
			fresh.Close()
		}
		st.close(s)
	}
}

// TestSCFJobCountsEveryBuild: a job adds each of its Fock builds to the
// hfx.* counters once. Under plain screening every build on one geometry
// computes the same quartets, so an scf job moves hfx.quartets_computed by
// its hfx.fock_builds × one buildjk's quartetsComputed, and a buildjk on
// the worker's reused builder by one build's.
func TestSCFJobCountsEveryBuild(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	plain := false
	req := JobRequest{Kind: KindBuildJK, System: "water", DensityWeighted: &plain}
	b := submit(t, ts, req)
	if b.State != StateDone || b.Build == nil {
		t.Fatalf("buildjk: %+v", b)
	}
	per := b.Build.QuartetsComputed
	if got := counter(s, "hfx.quartets_computed"); per == 0 || got != per {
		t.Fatalf("hfx.quartets_computed %d after one buildjk of %d quartets", got, per)
	}
	builds := counter(s, "hfx.fock_builds")
	r := submit(t, ts, JobRequest{Kind: KindSCF, System: "water", DensityWeighted: &plain})
	if r.State != StateDone {
		t.Fatalf("scf: %+v", r)
	}
	n := counter(s, "hfx.fock_builds") - builds
	if got, want := counter(s, "hfx.quartets_computed"), per+n*per; n < 2 || got != want {
		t.Fatalf("hfx.quartets_computed %d after an scf job of %d builds, want %d", got, n, want)
	}
	for i := 0; i < 2; i++ {
		before, builds := counter(s, "hfx.quartets_computed"), counter(s, "hfx.fock_builds")
		b := submit(t, ts, req)
		if got := counter(s, "hfx.quartets_computed") - before; b.State != StateDone || got != b.Build.QuartetsComputed {
			t.Fatalf("buildjk %d added %d quartets, its build computed %d", i, got, b.Build.QuartetsComputed)
		}
		if got := counter(s, "hfx.fock_builds") - builds; got != 1 {
			t.Fatalf("buildjk %d added %d Fock builds", i, got)
		}
	}
}

func TestServerScreenAndBuildJKWithBuilderReuse(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scr := submit(t, ts, JobRequest{Kind: KindScreen, System: "water"})
	if scr.State != StateDone || scr.Screen == nil {
		t.Fatalf("screen job: %+v", scr)
	}
	if scr.Screen.SchwarzSurvived <= 0 || scr.Screen.MakespanNS <= 0 {
		t.Fatalf("screen stats empty: %+v", scr.Screen)
	}

	b1 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"})
	if b1.State != StateDone || b1.Build == nil || b1.Build.KNorm <= 0 {
		t.Fatalf("buildjk job: %+v", b1)
	}
	if b1.Build.ExchangeEnergy >= 0 {
		t.Fatalf("exchange energy must be negative, got %g", b1.Build.ExchangeEnergy)
	}
	// Same geometry/method again (cache disabled): the single worker
	// must reuse its long-lived builder, not build a new one.
	b2 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"})
	if b2.State != StateDone {
		t.Fatalf("second buildjk: %+v", b2)
	}
	if created, reused := counter(s, "builders.created"), counter(s, "builders.reused"); created != 1 || reused != 1 {
		t.Fatalf("builder lifecycle: created=%d reused=%d, want 1/1", created, reused)
	}
	// Each job ran one build; the reused builder's lifetime count must not
	// be charged again.
	if got := counter(s, "hfx.fock_builds"); got != 2 {
		t.Fatalf("hfx.fock_builds %d after two buildjk jobs, want 2", got)
	}
	if b1.Build.KNorm != b2.Build.KNorm {
		t.Fatal("repeated build on the same density must be identical")
	}
}

func TestServerSemiDirectBuildJK(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// cacheMb=0 vs cacheMb=64 are different builders (distinct builder
	// keys) but must produce identical numbers.
	direct := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"})
	b1 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", CacheMB: 64})
	if b1.State != StateDone || b1.Build == nil {
		t.Fatalf("semi-direct buildjk: %+v", b1)
	}
	if b1.Build.EriCacheHits != 0 || b1.Build.EriCacheMisses == 0 {
		t.Fatalf("cold cache traffic: hits=%d misses=%d",
			b1.Build.EriCacheHits, b1.Build.EriCacheMisses)
	}
	b2 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", CacheMB: 64})
	if b2.Build.EriCacheHits == 0 || b2.Build.EriCacheMisses != 0 {
		t.Fatalf("warm cache traffic: hits=%d misses=%d",
			b2.Build.EriCacheHits, b2.Build.EriCacheMisses)
	}
	if b2.Build.KNorm != direct.Build.KNorm || b2.Build.JNorm != direct.Build.JNorm {
		t.Fatal("semi-direct replay must match the direct build")
	}
	if got := counter(s, "hfx.ericache.hits"); got != b2.Build.EriCacheHits {
		t.Fatalf("hfx.ericache.hits %d, want %d merged into /metrics", got, b2.Build.EriCacheHits)
	}
	// cacheMb participates in the builder key: direct + semi-direct on one
	// worker means two builders were created, plus one warm reuse.
	if created, reused := counter(s, "builders.created"), counter(s, "builders.reused"); created != 2 || reused != 1 {
		t.Fatalf("builder lifecycle: created=%d reused=%d, want 2/1", created, reused)
	}
}

func TestServerDistributedBuildJK(t *testing.T) {
	// BuilderThreads 4 makes the single-rank builder's global worker count
	// equal to the distributed build's 4 ranks × 1 thread — the
	// configuration the bitwise contract pins.
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1, BuilderThreads: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	single := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"})
	if single.State != StateDone || single.Build == nil || single.Build.Ranks != 0 {
		t.Fatalf("single-rank buildjk: %+v", single)
	}
	dist := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", Ranks: 4})
	if dist.State != StateDone || dist.Build == nil {
		t.Fatalf("distributed buildjk: %+v", dist)
	}
	if dist.Build.Ranks != 4 || dist.Build.CommBytes <= 0 || dist.Build.ReduceSteps <= 0 {
		t.Fatalf("distributed summary missing traffic: %+v", dist.Build)
	}
	// The bitwise contract holds through the service path: the ranks=4
	// build must reproduce the single-rank norms and exchange energy
	// exactly, not approximately.
	if dist.Build.JNorm != single.Build.JNorm || dist.Build.KNorm != single.Build.KNorm {
		t.Fatalf("distributed norms diverged: J %x vs %x, K %x vs %x",
			dist.Build.JNorm, single.Build.JNorm, dist.Build.KNorm, single.Build.KNorm)
	}
	if dist.Build.ExchangeEnergy != single.Build.ExchangeEnergy {
		t.Fatal("distributed exchange energy diverged")
	}

	// Same request again: the worker must reuse its cached DistBuilder.
	submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", Ranks: 4})
	if created, reused := counter(s, "builders.created"), counter(s, "builders.reused"); created != 2 || reused != 1 {
		t.Fatalf("builder lifecycle: created=%d reused=%d, want 2/1", created, reused)
	}

	// Per-rank phase walls and collective traffic land in /metrics.
	for r := 0; r < 4; r++ {
		if s.Metrics().Timer.Get(fmt.Sprintf("dist.rank%d.compute", r)) <= 0 {
			t.Fatalf("rank %d compute phase missing from registry", r)
		}
		if s.Metrics().Timer.Get(fmt.Sprintf("dist.rank%d.comm", r)) <= 0 {
			t.Fatalf("rank %d comm phase missing from registry", r)
		}
	}
	if counter(s, "mprt.comm_bytes") != 2*dist.Build.CommBytes {
		t.Fatalf("mprt.comm_bytes %d, want %d (two identical builds)",
			counter(s, "mprt.comm_bytes"), 2*dist.Build.CommBytes)
	}
	if counter(s, "mprt.reduce_steps") != 2*dist.Build.ReduceSteps {
		t.Fatalf("mprt.reduce_steps %d, want %d", counter(s, "mprt.reduce_steps"), 2*dist.Build.ReduceSteps)
	}

	// Validation: ranks is buildjk-only and bounded.
	for _, bad := range []JobRequest{
		{Kind: KindSCF, System: "water", Ranks: 4},
		{Kind: KindBuildJK, System: "water", Ranks: -1},
		{Kind: KindBuildJK, System: "water", Ranks: maxJobRanks + 1},
	} {
		bad.normalize()
		if err := bad.validate(); err == nil {
			t.Fatalf("request %+v must be rejected", bad)
		}
	}
}

func TestServerJobDeadline(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := submit(t, ts, JobRequest{Kind: KindSCF, System: "watercluster", NWater: 2, TimeoutMS: 5})
	if res.State != StateCancelled {
		t.Fatalf("deadline job state %q, want cancelled (err %q)", res.State, res.Error)
	}
	if !strings.Contains(res.Error, "deadline") {
		t.Fatalf("error should mention the deadline: %q", res.Error)
	}
}

func TestServerValidationAndMethods(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		res, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	for _, body := range []string{
		`{"kind":"nope"}`,
		`{"system":"unobtainium"}`,
		`{"functional":"B3LYP"}`,
		`{"kind":"solvent-scan","solvent":"H2O"}`,
		`{"system":"water","xyz":"1\n\nH 0 0 0\n"}`,
		`{"kind":"screen","system":"watercluster","nwater":-1}`,
		`{"kind":"screen","system":"watercluster","nwater":65}`,
		`{"kind":"solvent-scan","points":65}`,
		`{"kind":"trajectory","system":"h2","ref":"loose"}`,
		`{not json`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, code)
		}
	}
	res, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: %d, want 405", res.StatusCode)
	}

	// One executed job feeds the cost model's live error series.
	if r := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"}); r.State != StateDone {
		t.Fatalf("buildjk job: %+v", r)
	}

	// Metrics render in both formats.
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mres.Body)
	mres.Body.Close()
	if err != nil || !strings.Contains(string(text), "gauge") {
		t.Fatalf("text metrics unreadable: %v\n%s", err, text)
	}
	jres, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	err = json.NewDecoder(jres.Body).Decode(&m)
	jres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["counters"]; !ok {
		t.Fatalf("json metrics missing counters: %v", m)
	}
	h, _ := m["histograms"].(map[string]any)["job.run_over_predicted"].(map[string]any)
	if h == nil || h["total"] != 1.0 {
		t.Fatalf("job.run_over_predicted after one buildjk job: %v, want one observation", h)
	}
	if zero := h["counts"].([]any)[0]; zero != 0.0 {
		t.Fatalf("job.run_over_predicted observed a zero ratio: %v", h)
	}
}

// TestServerRejectsNonFiniteXYZ: an inline geometry with a NaN or Inf
// coordinate is a 400 at admission (it once panicked a Schwarz worker
// goroutine and took the process down), and the server keeps serving.
func TestServerRejectsNonFiniteXYZ(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, x := range []string{"NaN", "Inf", "-inf"} {
		xyz := "2\nh2\nH 0 0 0\nH 0 0 " + x + "\n"
		if _, _, err := PriceRequest(JobRequest{Kind: KindSCF, XYZ: xyz}, 1); err == nil {
			t.Fatalf("PriceRequest accepted a %s coordinate", x)
		}
		body, _ := json.Marshal(JobRequest{Kind: KindSCF, XYZ: xyz})
		res, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s coordinate: status %d, want 400", x, res.StatusCode)
		}
	}
	r := submit(t, ts, JobRequest{Kind: KindSCF, XYZ: "2\nh2\nH 0 0 0\nH 0 0 0.74\n"})
	if r.State != StateDone || r.SCF == nil || !r.SCF.Converged {
		t.Fatalf("valid job after the rejected ones: %+v", r)
	}
}

// TestServerLifecycle is the drain/backpressure/cancellation test of the
// issue: fill the queue to get a 429, cancel a queued job, then shut
// down and assert that in-flight work completes, every builder is
// closed, and (through mustNew) no goroutine leaks.
func TestServerLifecycle(t *testing.T) {
	block := make(chan struct{})
	running := make(chan string, 16)
	s := mustNew(t, Config{
		Workers:    1,
		QueueCap:   1,
		CacheBytes: -1,
		BeforeRun: func(kind string) {
			running <- kind
			<-block
		},
	})
	ts := httptest.NewServer(s.Handler())

	// Job A occupies the single worker (held inside BeforeRun).
	resA := make(chan *JobResult, 1)
	go func() {
		r, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindSCF, System: "water"})
		if err != nil {
			t.Errorf("job A: %v", err)
			r = &JobResult{}
		}
		resA <- r
	}()
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up job A")
	}

	// Job B fills the queue (capacity 1); its context will be cancelled
	// while it waits.
	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := NewClient(ts.URL).Submit(ctxB, JobRequest{Kind: KindSCF, System: "lih"})
		errB <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Job C finds the queue full: 429 with a Retry-After hint.
	_, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindSCF, System: "he"})
	busy, ok := err.(*BusyError)
	if !ok {
		t.Fatalf("job C should hit a full queue, got %v", err)
	}
	if busy.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v, want >= 1s", busy.RetryAfter)
	}
	if got := counter(s, "jobs.rejected_full"); got != 1 {
		t.Fatalf("jobs.rejected_full %d, want 1", got)
	}

	// Cancel queued job B, release the worker, and drain.
	cancelB()
	if err := <-errB; err == nil {
		t.Fatal("job B's client should observe its cancellation")
	}
	// The server notices the client going away asynchronously: release
	// the worker only once queued job B's context is cancelled, or B may
	// be popped and run before it is.
	s.q.mu.Lock()
	jobB := s.q.items[0]
	s.q.mu.Unlock()
	select {
	case <-jobB.ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw job B's client go away")
	}
	close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// In-flight job A completed despite the drain.
	select {
	case r := <-resA:
		if r.State != StateDone {
			t.Fatalf("in-flight job A must complete through the drain: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job A never finished")
	}
	if got := counter(s, "jobs.cancelled"); got != 1 {
		t.Fatalf("jobs.cancelled %d, want 1 (queued job B)", got)
	}
	// Submissions after the drain are refused.
	if _, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindSCF, System: "water"}); err == nil {
		t.Fatal("draining server must refuse new jobs")
	}
	// Every builder is closed.
	if open := s.Metrics().Gauge("builders.open").Value(); open != 0 {
		t.Fatalf("builders.open %d after shutdown, want 0", open)
	}
	ts.Close()
}

// TestServerConcurrentJobs drives 8 concurrent jobs of mixed kinds
// through a 4-worker server — the race-cleanliness criterion (run under
// -race by scripts/check.sh).
func TestServerConcurrentJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 4, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []JobRequest{
		{Kind: KindSCF, System: "water"},
		{Kind: KindSCF, System: "h2"},
		{Kind: KindSCF, System: "he"},
		{Kind: KindSCF, System: "lih"},
		{Kind: KindBuildJK, System: "water"},
		{Kind: KindBuildJK, System: "ch4"},
		{Kind: KindScreen, System: "lif"},
		{Kind: KindScreen, System: "watercluster", NWater: 2},
	}
	var wg sync.WaitGroup
	results := make([]*JobResult, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req JobRequest) {
			defer wg.Done()
			results[i], errs[i] = NewClient(ts.URL).Submit(context.Background(), req)
		}(i, req)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("job %d (%s %s): %v", i, reqs[i].Kind, reqs[i].System, errs[i])
		}
		if results[i].State != StateDone {
			t.Fatalf("job %d (%s %s): %+v", i, reqs[i].Kind, reqs[i].System, results[i])
		}
	}
	if got := counter(s, "jobs.executed"); got != int64(len(reqs)) {
		t.Fatalf("jobs.executed %d, want %d", got, len(reqs))
	}
}

func TestServerResultJSONRoundTrip(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := submit(t, ts, JobRequest{Kind: KindSCF, System: "h2"})
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back JobResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.SCF == nil || back.SCF.Energy != res.SCF.Energy || back.CacheKey != res.CacheKey {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, res)
	}
}

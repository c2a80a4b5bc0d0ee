package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"hfxmd/internal/server"
)

// --- decide(): routing is a pure function, so the rule is pinned
// against literal load snapshots.

func noneExcluded(int) bool { return false }

func allEligible(int) bool { return true }

func TestDecideCacheAffinity(t *testing.T) {
	key := "screen|h2|sto-3g"
	home := rendezvous(key, 3, allEligible)
	if home < 0 || home > 2 {
		t.Fatalf("rendezvous home %d out of range", home)
	}
	// Stable: same key, same home, every time.
	for k := 0; k < 4; k++ {
		if h := rendezvous(key, 3, allEligible); h != home {
			t.Fatalf("rendezvous unstable: %d then %d", home, h)
		}
	}

	// A resident key beats the rendezvous home, regardless of load.
	holder := (home + 1) % 3
	loads := make([]Load, 3)
	loads[holder].HoldsKey = true
	loads[holder].QueuedNS = 1e12
	if i := decide(loads, key, 2, noneExcluded); i != holder {
		t.Fatalf("affinity ignored holder: picked %d, want %d", i, holder)
	}

	// No holder: the rendezvous home, while it is not overloaded.
	cold := make([]Load, 3)
	if i := decide(cold, key, 2, noneExcluded); i != home {
		t.Fatalf("cold fleet routed to %d, want home %d", i, home)
	}

	// Overloaded home: falls back to the least outstanding predicted
	// work, which is not the lowest index here.
	cold[home].Depth = 2 // == overloadDepth
	cold[home].QueuedNS = 9e9
	a, b := (home+1)%3, (home+2)%3
	cold[a].QueuedNS = 3e9
	cold[b].QueuedNS = 1e9
	if i := decide(cold, key, 2, noneExcluded); i != b {
		t.Fatalf("overloaded home: routed to %d, want least-outstanding %d", i, b)
	}
	// Equal outstanding work: the lower index wins.
	cold[a].QueuedNS, cold[b].QueuedNS = 1e9, 1e9
	if i := decide(cold, key, 2, noneExcluded); i != min(a, b) {
		t.Fatalf("tie routed to %d, want lower index %d", i, min(a, b))
	}
}

// TestDecideDrainingOrExcludedHome: a home that is draining, or that this
// failover sweep already rejected, remaps the key to its rendezvous home
// among the remaining instances; with none left, decide returns -1.
func TestDecideDrainingOrExcludedHome(t *testing.T) {
	key := "buildjk|water|sto-3g"
	home := rendezvous(key, 3, allEligible)
	notHome := func(i int) bool { return i != home }
	next := rendezvous(key, 3, notHome)
	if next < 0 || next == home {
		t.Fatalf("remapped home %d (home %d)", next, home)
	}

	draining := make([]Load, 3)
	draining[home].Draining = true
	if i := decide(draining, key, 2, noneExcluded); i != next {
		t.Fatalf("draining home: routed to %d, want remapped home %d", i, next)
	}
	if i := decide(make([]Load, 3), key, 2, func(i int) bool { return i == home }); i != next {
		t.Fatalf("excluded home: routed to %d, want remapped home %d", i, next)
	}
	// A draining holder is not routed to either.
	draining[home].HoldsKey = true
	if i := decide(draining, key, 2, noneExcluded); i != next {
		t.Fatalf("draining holder: routed to %d, want %d", i, next)
	}

	all := []Load{{Draining: true}, {Draining: true}}
	if i := decide(all, key, 2, noneExcluded); i != -1 {
		t.Fatalf("all-draining fleet routed to %d, want -1", i)
	}
	if i := decide(make([]Load, 2), key, 2, func(int) bool { return true }); i != -1 {
		t.Fatalf("all-excluded fleet routed to %d, want -1", i)
	}
}

// TestDecideFallbackCountsInflight: the fallback weighs work the
// workers are executing, not just the queue.
func TestDecideFallbackCountsInflight(t *testing.T) {
	key := "scf|lih|sto-3g"
	home := rendezvous(key, 3, allEligible)
	a, b := (home+1)%3, (home+2)%3
	loads := make([]Load, 3)
	loads[home].Depth = 2
	loads[home].QueuedNS = 1e12
	loads[a].QueuedNS, loads[a].InflightNS = 1e9, 5e9
	loads[b].QueuedNS = 2e9
	if i := decide(loads, key, 2, noneExcluded); i != b {
		t.Fatalf("fallback ignored in-flight work, picked %d, want %d", i, b)
	}
}

// --- Cluster end-to-end: real servers on loopback ports.

func screenReq(system string) server.JobRequest {
	return server.JobRequest{Kind: server.KindScreen, System: system}
}

// mustCluster boots a cluster that is closed when the test ends; the
// cleanup also fails the test if any goroutine the cluster started —
// listeners, handlers, workers, builder pools, client connections —
// outlives Close.
func mustCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	before := runtime.NumGoroutine()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
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
	return c
}

// TestNewOverloadFromQueueCapAndPolicy: the overload depth is derived from the
// instances' (defaulted) queue capacity, and cache affinity is the only
// routing policy New accepts.
func TestNewOverloadFromQueueCapAndPolicy(t *testing.T) {
	for _, tc := range []struct{ queueCap, want int }{{0, 16}, {8, 2}, {1, 2}, {40, 10}} {
		c := mustCluster(t, Options{Instances: 1, Server: server.Config{Workers: 1, QueueCap: tc.queueCap}})
		if c.overloadDepth != tc.want {
			t.Errorf("QueueCap %d: overload depth %d, want %d", tc.queueCap, c.overloadDepth, tc.want)
		}
	}
	if _, err := New(Options{Policy: CacheAffinity + 1}); err == nil {
		t.Fatal("New accepted a policy other than cache affinity")
	}
}

// TestClusterCacheAffinityPinsRepeats submits the same job six times:
// exactly one miss (executed at the key's home) and five free hits from
// the same instance, with every other instance untouched.
func TestClusterCacheAffinityPinsRepeats(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 3,
		Server:    server.Config{Workers: 1, QueueCap: 8},
	})
	ctx := context.Background()
	var servedBy int
	for k := 0; k < 6; k++ {
		res, i, err := c.Submit(ctx, screenReq("h2"))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			servedBy = i
			if res.CacheHit {
				t.Fatal("first submission hit a cold cache")
			}
			continue
		}
		if i != servedBy {
			t.Fatalf("repeat %d routed to inst%d, want home inst%d", k, i, servedBy)
		}
		if !res.CacheHit {
			t.Fatalf("repeat %d missed the warm cache", k)
		}
	}
	if got := c.Registry().Counter("fleet.cache_hits").Value(); got != 5 {
		t.Fatalf("fleet.cache_hits = %d, want 5", got)
	}
	for i := 0; i < 3; i++ {
		got := c.Registry().Counter(fmt.Sprintf("fleet.inst%d.routed", i)).Value()
		want := int64(0)
		if i == servedBy {
			want = 6
		}
		if got != want {
			t.Fatalf("inst%d routed %d, want %d", i, got, want)
		}
	}
}

// TestClusterResultsBitwiseIdenticalAcrossInstances pins that routing
// never changes answers: the same uncached job, executed by each
// instance, returns identical payload bytes.
func TestClusterResultsBitwiseIdenticalAcrossInstances(t *testing.T) {
	ctx := context.Background()
	c := mustCluster(t, Options{
		Instances: 2,
		Server:    server.Config{Workers: 1, QueueCap: 8},
	})
	for _, req := range []server.JobRequest{
		screenReq("lih"),
		{Kind: server.KindSCF, System: "lih", Functional: "PBE0"},
	} {
		var ref []byte
		for _, inst := range c.Instances() {
			res, err := inst.Client.Submit(ctx, req)
			if err != nil {
				t.Fatalf("%s on inst%d: %v", req.Kind, inst.Index, err)
			}
			if res.State != server.StateDone || res.CacheHit {
				t.Fatalf("%s on inst%d: state %s, hit %v: %s", req.Kind, inst.Index, res.State, res.CacheHit, res.Error)
			}
			var payload any = res.Screen
			if req.Kind == server.KindSCF {
				payload = res.SCF
			}
			got, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) == "null" {
				t.Fatalf("%s on inst%d: no payload", req.Kind, inst.Index)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s: inst%d diverged:\n  inst0 %s\n  inst%d %s", req.Kind, inst.Index, ref, inst.Index, got)
			}
		}
	}
}

// TestClusterFailsOverOnDrainingError exercises the stale-view path: the
// router's snapshot says the key's home instance is healthy, but its
// submit answers a typed 503. A fake always-draining backend stands in
// for the home's client so the race is deterministic.
func TestClusterFailsOverOnDrainingError(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 2,
		Server:    server.Config{Workers: 1, QueueCap: 8},
	})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "server is draining"})
	}))
	defer fake.Close()
	req := screenReq("h2")
	key, err := server.CanonicalKey(req)
	if err != nil {
		t.Fatal(err)
	}
	home := rendezvous(key, 2, allEligible)
	c.Instances()[home].Client = server.NewClient(fake.URL)

	res, i, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("failover did not save the job: %v", err)
	}
	if i != 1-home {
		t.Fatalf("job served by inst%d, want failover to inst%d", i, 1-home)
	}
	if res.State != server.StateDone {
		t.Fatalf("state %s: %s", res.State, res.Error)
	}
	if got := c.Registry().Counter("fleet.failover_draining").Value(); got != 1 {
		t.Fatalf("fleet.failover_draining = %d, want 1", got)
	}
}

// TestClusterDrainInstanceReroutes drains a live instance and checks the
// router stops considering it: every subsequent job lands elsewhere,
// whichever instance is its key's home.
func TestClusterDrainInstanceReroutes(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 2,
		Server:    server.Config{Workers: 1, QueueCap: 8},
	})
	c.DrainInstance(0)
	ctx := context.Background()
	for k, sys := range []string{"h2", "he", "lih", "water", "lif", "ch4"} {
		_, i, err := c.Submit(ctx, screenReq(sys))
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		if i != 1 {
			t.Fatalf("job %d routed to drained inst%d", k, i)
		}
	}
}

// TestClusterSweepsWaitOutBusyFleet saturates a 1-instance fleet (worker
// held, queue full) and checks Submit retries across sweeps instead of
// surfacing the 429.
func TestClusterSweepsWaitOutBusyFleet(t *testing.T) {
	hold := make(chan struct{})
	c := mustCluster(t, Options{
		Instances: 1,
		MaxSweeps: 200, BackoffScale: 0.005, MaxBackoff: 20 * time.Millisecond,
		Server: server.Config{
			Workers: 1, QueueCap: 1,
			BeforeRun: func(string) { <-hold },
		},
	})
	ctx := context.Background()
	bg := make(chan error, 2)
	go func() { _, _, err := c.Submit(ctx, screenReq("h2")); bg <- err }()
	// Screen jobs price at 0 predicted ns, so "worker holds the first
	// job" shows as submitted-and-dequeued, not as in-flight cost.
	waitFor(t, "first job picked up", func() bool {
		s := c.Instances()[0].Srv
		return s.Metrics().Counter("jobs.submitted").Value() >= 1 && s.QueueDepth() == 0
	})
	go func() { _, _, err := c.Submit(ctx, screenReq("he")); bg <- err }()
	waitFor(t, "second job queued", func() bool { return c.Instances()[0].Srv.QueueDepth() == 1 })

	time.AfterFunc(50*time.Millisecond, func() { close(hold) })
	res, _, err := c.Submit(ctx, screenReq("lih"))
	if err != nil {
		t.Fatalf("submit never got through the busy fleet: %v", err)
	}
	if res.State != server.StateDone {
		t.Fatalf("state %s: %s", res.State, res.Error)
	}
	if got := c.Registry().Counter("fleet.rejected_busy").Value(); got < 1 {
		t.Fatal("no busy rejection recorded, test never exercised the sweep")
	}
	if got := c.Registry().Counter("fleet.retry_sweeps").Value(); got < 1 {
		t.Fatal("no retry sweep recorded")
	}
	for k := 0; k < 2; k++ {
		if err := <-bg; err != nil {
			t.Fatalf("background job: %v", err)
		}
	}
}

func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never became true: %s", msg)
}

// TestClusterSharedStoreCrossInstanceHits pins the fleet-wide store:
// with Options.StoreDir, a result computed by one instance is a cache
// hit on every other instance, and a freshly booted cluster over the
// same directory answers from the disk tier.
func TestClusterSharedStoreCrossInstanceHits(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := mustCluster(t, Options{
		Instances: 2, StoreDir: dir,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	if c.Store() == nil {
		t.Fatal("cluster did not open the shared store")
	}
	r1, i1, err := c.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.State != server.StateDone || r1.CacheHit {
		t.Fatalf("first submission: %+v", r1)
	}
	// The repeat goes straight to the OTHER instance, which must still
	// hit: the store is shared, not per-instance.
	r2, err := c.Instances()[1-i1].Client.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second instance missed the shared store")
	}
	if got := c.Instances()[1-i1].Srv.Metrics().Counter("jobs.executed").Value(); got != 0 {
		t.Fatalf("second instance executed %d jobs, want 0", got)
	}

	// Restart the whole fleet over the same directory: disk-warm hit.
	closeCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := c.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	c2 := mustCluster(t, Options{
		Instances: 2, StoreDir: dir,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	r3, _, err := c2.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit {
		t.Fatal("rebooted fleet missed the disk tier")
	}
	if got := c2.Registry().Counter("fleet.cache_hits").Value(); got != 1 {
		t.Fatalf("fleet.cache_hits = %d, want 1", got)
	}
}

// TestSharedStoreGaugesCountSiblingWrites: on a shared store an instance's
// cache gauges read the store itself, so a result written by one instance
// shows in the other's cache.entries before that one has run any job.
func TestSharedStoreGaugesCountSiblingWrites(t *testing.T) {
	ctx := context.Background()
	c := mustCluster(t, Options{
		Instances: 2, StoreDir: t.TempDir(),
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	r, i, err := c.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r.State != server.StateDone || r.CacheHit {
		t.Fatalf("first submission: %+v", r)
	}
	b := c.Instances()[1-i]
	if got := b.Srv.Metrics().Counter("jobs.executed").Value(); got != 0 {
		t.Fatalf("instance B executed %d jobs, want 0", got)
	}
	resp, err := http.Get(b.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Gauges["cache.entries"]; got != 1 {
		t.Fatalf("instance B cache.entries = %d, want 1 (the result instance A wrote)", got)
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hfxmd/internal/server"
)

// --- decide(): the policy layer is a pure function, so every routing
// rule is pinned against literal load snapshots.

func noneExcluded(int) bool { return false }

func TestDecideRoundRobinSkipsDraining(t *testing.T) {
	loads := []Load{{}, {Draining: true}, {}}
	got := make([]int, 0, 6)
	for cursor := 0; cursor < 6; cursor++ {
		got = append(got, decide(RoundRobin, loads, "", 0, cursor, 2, noneExcluded))
	}
	want := []int{0, 2, 2, 0, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-robin order %v, want %v", got, want)
	}
	all := []Load{{Draining: true}, {Draining: true}}
	if i := decide(RoundRobin, all, "", 0, 0, 2, noneExcluded); i != -1 {
		t.Fatalf("all-draining fleet routed to %d, want -1", i)
	}
}

// TestDecideLeastLoadedVsCostWeighted is the heterogeneous-fleet case
// the two load policies are designed to disagree on: instance 0 has
// twice the backlog but four times the workers, so it drains sooner.
func TestDecideLeastLoadedVsCostWeighted(t *testing.T) {
	loads := []Load{
		{QueuedNS: 8e9, Workers: 4},
		{QueuedNS: 4e9, Workers: 1},
	}
	if i := decide(LeastLoaded, loads, "", 1e8, 0, 2, noneExcluded); i != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (smaller raw backlog)", i)
	}
	if i := decide(CostWeighted, loads, "", 1e8, 0, 2, noneExcluded); i != 0 {
		t.Fatalf("cost-weighted picked %d, want 0 (8e9/4 < 4e9/1)", i)
	}
}

func TestDecideLeastLoadedCountsInflight(t *testing.T) {
	loads := []Load{
		{QueuedNS: 1e9, InflightNS: 5e9, Workers: 1},
		{QueuedNS: 2e9, Workers: 1},
	}
	if i := decide(LeastLoaded, loads, "", 0, 0, 2, noneExcluded); i != 1 {
		t.Fatalf("least-loaded ignored in-flight work, picked %d", i)
	}
}

func TestDecideCacheAffinity(t *testing.T) {
	key := "screen|h2|sto-3g"
	home := rendezvous(key, 3, func(int) bool { return true })
	if home < 0 || home > 2 {
		t.Fatalf("rendezvous home %d out of range", home)
	}
	// Stable: same key, same home, every time.
	for k := 0; k < 4; k++ {
		if h := rendezvous(key, 3, func(int) bool { return true }); h != home {
			t.Fatalf("rendezvous unstable: %d then %d", home, h)
		}
	}

	// A resident key beats the rendezvous home, regardless of load.
	holder := (home + 1) % 3
	loads := []Load{{Workers: 1}, {Workers: 1}, {Workers: 1}}
	loads[holder].HoldsKey = true
	loads[holder].QueuedNS = 1e12
	if i := decide(CacheAffinity, loads, key, 0, 0, 2, noneExcluded); i != holder {
		t.Fatalf("affinity ignored holder: picked %d, want %d", i, holder)
	}

	// No holder: the rendezvous home, while it is not overloaded.
	cold := []Load{{Workers: 1}, {Workers: 1}, {Workers: 1}}
	if i := decide(CacheAffinity, cold, key, 0, 0, 2, noneExcluded); i != home {
		t.Fatalf("cold fleet routed to %d, want home %d", i, home)
	}

	// Overloaded home: falls back to earliest completion.
	cold[home].Depth = 2 // == overloadDepth
	cold[home].QueuedNS = 9e9
	i := decide(CacheAffinity, cold, key, 0, 0, 2, noneExcluded)
	if i == home {
		t.Fatal("affinity kept routing to an overloaded home")
	}
	// Draining home: keys remap instead of failing.
	cold[home].Depth, cold[home].QueuedNS = 0, 0
	cold[home].Draining = true
	if i := decide(CacheAffinity, cold, key, 0, 0, 2, noneExcluded); i == home || i < 0 {
		t.Fatalf("draining home still routed: %d", i)
	}
}

func TestPolicyNamesRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, ok := PolicyByName(p.String())
		if !ok || got != p {
			t.Fatalf("PolicyByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("PolicyByName accepted an unknown name")
	}
}

// --- Cluster end-to-end: real servers on loopback ports.

func screenReq(system string) server.JobRequest {
	return server.JobRequest{Kind: server.KindScreen, System: system}
}

func mustCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
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
	})
	return c
}

func TestClusterRoundRobinSpreadsJobs(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 3, Policy: RoundRobin,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	systems := []string{"h2", "he", "lih", "water", "lif", "ch4"}
	ctx := context.Background()
	for _, sys := range systems {
		res, _, err := c.Submit(ctx, screenReq(sys))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.State != server.StateDone {
			t.Fatalf("%s: state %s: %s", sys, res.State, res.Error)
		}
	}
	for i := 0; i < 3; i++ {
		if got := c.Registry().Counter(fmt.Sprintf("fleet.inst%d.routed", i)).Value(); got != 2 {
			t.Fatalf("inst%d routed %d jobs, want 2", i, got)
		}
	}
	if got := c.Registry().Counter("fleet.submitted").Value(); got != 6 {
		t.Fatalf("fleet.submitted = %d, want 6", got)
	}
}

// TestClusterCacheAffinityPinsRepeats submits the same job six times:
// exactly one miss (executed at the key's home) and five free hits from
// the same instance, with every other instance untouched.
func TestClusterCacheAffinityPinsRepeats(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 3, Policy: CacheAffinity,
		Server: server.Config{Workers: 1, QueueCap: 8},
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

// TestClusterResultsBitwiseIdenticalAcrossPolicies pins the acceptance
// criterion that routing never changes answers: the same job through
// every policy yields an identical result payload.
func TestClusterResultsBitwiseIdenticalAcrossPolicies(t *testing.T) {
	ctx := context.Background()
	var ref *server.ScreenSummary
	for _, p := range Policies() {
		c := mustCluster(t, Options{
			Instances: 2, Policy: p,
			Server: server.Config{Workers: 1, QueueCap: 8},
		})
		res, _, err := c.Submit(ctx, screenReq("lih"))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Screen == nil {
			t.Fatalf("%v: no screen summary", p)
		}
		if ref == nil {
			ref = res.Screen
			continue
		}
		if !reflect.DeepEqual(*ref, *res.Screen) {
			t.Fatalf("%v diverged:\n  ref %+v\n  got %+v", p, *ref, *res.Screen)
		}
	}
}

// TestClusterFailsOverOnDrainingError exercises the stale-view path: the
// router's snapshot says instance 0 is healthy, but its submit answers a
// typed 503. A fake always-draining backend stands in for instance 0's
// client so the race is deterministic.
func TestClusterFailsOverOnDrainingError(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 2, Policy: RoundRobin,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "server is draining"})
	}))
	defer fake.Close()
	c.Instances()[0].Client = server.NewClient(fake.URL)

	res, i, err := c.Submit(context.Background(), screenReq("h2"))
	if err != nil {
		t.Fatalf("failover did not save the job: %v", err)
	}
	if i != 1 {
		t.Fatalf("job served by inst%d, want failover to inst1", i)
	}
	if res.State != server.StateDone {
		t.Fatalf("state %s: %s", res.State, res.Error)
	}
	if got := c.Registry().Counter("fleet.failover_draining").Value(); got != 1 {
		t.Fatalf("fleet.failover_draining = %d, want 1", got)
	}
}

// TestClusterDrainInstanceReroutes drains a live instance and checks the
// router stops considering it: every subsequent job lands elsewhere.
func TestClusterDrainInstanceReroutes(t *testing.T) {
	c := mustCluster(t, Options{
		Instances: 2, Policy: RoundRobin,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	c.DrainInstance(0)
	ctx := context.Background()
	for k, sys := range []string{"h2", "he", "lih"} {
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
		Instances: 1, Policy: RoundRobin,
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
		Instances: 2, Policy: RoundRobin, StoreDir: dir,
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
	// Round-robin sends the repeat to the OTHER instance, which must
	// still hit: the store is shared, not per-instance.
	r2, i2, err := c.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if i2 == i1 {
		t.Fatalf("round-robin repeated instance %d; cannot prove sharing", i2)
	}
	if !r2.CacheHit {
		t.Fatal("second instance missed the shared store")
	}
	if got := c.Registry().Counter("fleet.cache_hits").Value(); got != 1 {
		t.Fatalf("fleet.cache_hits = %d, want 1", got)
	}

	// Restart the whole fleet over the same directory: disk-warm hit.
	closeCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := c.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	c2 := mustCluster(t, Options{
		Instances: 2, Policy: RoundRobin, StoreDir: dir,
		Server: server.Config{Workers: 1, QueueCap: 8},
	})
	r3, _, err := c2.Submit(ctx, screenReq("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit {
		t.Fatal("rebooted fleet missed the disk tier")
	}
}

func hChainXYZ(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d\nhydrogen chain\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "H %.3f 0.0 0.0\n", float64(i)*0.9)
	}
	return sb.String()
}

// TestFleetPriceMemoPricesOnce pins the memo contract: a CostWeighted
// router prices each key once and serves the memoised price after.
func TestFleetPriceMemoPricesOnce(t *testing.T) {
	c := mustCluster(t, Options{Policy: CostWeighted})
	chain := server.JobRequest{Kind: server.KindBuildJK, XYZ: hChainXYZ(10)}
	_, p1, err := c.price(chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, p2, _ := c.price(chain); p2 != p1 {
		t.Fatalf("memoised price moved: %g != %g", p2, p1)
	}
	if len(c.prices) != 1 {
		t.Fatalf("memo holds %d entries after pricing one key twice, want 1", len(c.prices))
	}
}

// TestFleetCostWeightedRoutesToCheaperInflight parks one water build on
// instance 0 and one H10-chain build on instance 1 (each held in flight
// by a worker gate), then routes a probe job on a two-instance
// CostWeighted fleet. The held jobs' in-flight predicted costs are the
// only load signal, so the probe joins the instance whose parked job the
// cost model prices cheaper: water (1.6e6 cost-model ns) against the
// chain (5.6e6), instance 0.
func TestFleetCostWeightedRoutesToCheaperInflight(t *testing.T) {
	water := server.JobRequest{Kind: server.KindBuildJK, System: "water"}
	chain := server.JobRequest{Kind: server.KindBuildJK, XYZ: hChainXYZ(10)}
	_, waterNS, err := server.PriceRequest(water, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, chainNS, err := server.PriceRequest(chain, 1)
	if err != nil {
		t.Fatal(err)
	}
	if waterNS >= chainNS {
		t.Fatalf("precondition: water %g must undercut the chain %g", waterNS, chainNS)
	}

	gate := make(chan struct{})
	c := mustCluster(t, Options{
		Instances: 2,
		Policy:    CostWeighted,
		Server: server.Config{
			Workers: 1, CacheBytes: -1,
			BeforeRun: func(kind string) { <-gate },
		},
	})
	held := make(chan error, 2)
	go func() {
		_, err := c.Instances()[0].Client.Submit(context.Background(), water)
		held <- err
	}()
	go func() {
		_, err := c.Instances()[1].Client.Submit(context.Background(), chain)
		held <- err
	}()
	waitFor(t, "held jobs in flight", func() bool {
		return c.Instances()[0].Srv.InflightCostNS() > 0 &&
			c.Instances()[1].Srv.InflightCostNS() > 0
	})

	probeDone := make(chan int, 1)
	go func() {
		_, idx, err := c.Submit(context.Background(), screenReq("he"))
		if err != nil {
			t.Errorf("probe: %v", err)
			idx = -1
		}
		probeDone <- idx
	}()
	// Only release the workers once the probe is routed and queued on its
	// chosen instance — the decision must see the parked loads.
	waitFor(t, "probe queued", func() bool {
		return c.Instances()[0].Srv.QueueDepth()+c.Instances()[1].Srv.QueueDepth() == 1
	})
	close(gate)
	idx := <-probeDone
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held job: %v", err)
		}
	}
	if idx != 0 {
		t.Fatalf("probe routed to %d, want 0 (the parked water build is cheaper)", idx)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Retry-After: the hint must price the work a retry actually waits
// behind, which includes what the workers are executing right now.

func TestRetryAfterIncludesInflightWork(t *testing.T) {
	secNS := float64(time.Second)
	// The bug: empty queue, 4 workers each 2 minutes into a running job.
	// Queued cost alone says "retry in 1 s", which is guaranteed wrong.
	if got := retryAfterSeconds(0, 4*120*secNS, 1e6, 4); got < 119 || got > 121 {
		t.Fatalf("retryAfter with 4x120s in flight = %ds, want ~120", got)
	}
	// Queued and in-flight work add up.
	if got := retryAfterSeconds(4*10*secNS, 4*10*secNS, 0, 4); got != 20 {
		t.Fatalf("retryAfter queued+inflight = %ds, want 20", got)
	}
	// Clamps: never below 1 s, never above 300 s.
	if got := retryAfterSeconds(0, 0, 1e6, 4); got != 1 {
		t.Fatalf("retryAfter floor = %ds, want 1", got)
	}
	if got := retryAfterSeconds(1e6*secNS, 0, 0, 1); got != 300 {
		t.Fatalf("retryAfter ceiling = %ds, want 300", got)
	}
	// The rejected job's own cost is part of the wait.
	if got := retryAfterSeconds(0, 0, 7*secNS, 1); got != 7 {
		t.Fatalf("retryAfter own-cost = %ds, want 7", got)
	}
}

func TestServerTracksInflightCost(t *testing.T) {
	block := make(chan struct{})
	running := make(chan string, 1)
	s := mustNew(t, Config{
		Workers: 1, QueueCap: 1, CacheBytes: -1,
		BeforeRun: func(kind string) { running <- kind; <-block },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resA := make(chan *JobResult, 1)
	go func() {
		r, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindSCF, System: "water"})
		if err != nil {
			t.Errorf("job A: %v", err)
			r = &JobResult{}
		}
		resA <- r
	}()
	<-running
	// The worker is holding job A: with an empty queue, the in-flight
	// predicted cost is the only signal a Retry-After estimate has.
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d, want 0", s.QueueDepth())
	}
	inflight := s.InflightCostNS()
	if inflight <= 0 {
		t.Fatal("running job must be accounted as in-flight predicted cost")
	}
	close(block)
	r := <-resA
	if r.State != StateDone {
		t.Fatalf("job A: %+v", r)
	}
	if math.Abs(inflight-r.PredictedCostNS) > 1e-6*r.PredictedCostNS {
		t.Fatalf("inflight %g != job A's predicted cost %g", inflight, r.PredictedCostNS)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.InflightCostNS(); got != 0 {
		t.Fatalf("inflight after drain = %g, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Typed draining rejection: the fleet router needs to tell "this
// instance is going away, fail over" apart from a generic error.

func TestClientDrainingErrorTyped(t *testing.T) {
	block := make(chan struct{})
	running := make(chan string, 1)
	s := mustNew(t, Config{
		Workers: 1, CacheBytes: -1,
		BeforeRun: func(kind string) { running <- kind; <-block },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resA := make(chan error, 1)
	go func() {
		_, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindScreen, System: "h2"})
		resA <- err
	}()
	<-running

	// Shutdown blocks on the held worker, but flips the draining flag
	// immediately; poll it before probing the rejection path.
	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := NewClient(ts.URL).Submit(context.Background(), JobRequest{Kind: KindScreen, System: "water"})
	var draining *DrainingError
	if !errors.As(err, &draining) {
		t.Fatalf("draining submit returned %T (%v), want *DrainingError", err, err)
	}
	close(block)
	if err := <-resA; err != nil {
		t.Fatalf("in-flight job through the drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Cache-hit ID provenance: a hit must not burn a job-NNN ID, so that
// after a journal replay every job-NNN maps to exactly one journaled
// submit.

func TestCacheHitIDsDistinctFromJournaledJobIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")

	// The on-disk state of a dead server: job-000001 accepted, not
	// finished.
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Kind: KindScreen, System: "h2"}
	req.normalize()
	if _, err := jl.submit("job-000001", &req); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{Workers: 1, JournalPath: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Wait for the replayed job to run to completion and fill the cache.
	deadline := time.Now().Add(30 * time.Second)
	for counter(s, "jobs.done") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("replayed job never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Repeats are cache hits: distinct ID form, own sequence.
	hit1 := submit(t, ts, JobRequest{Kind: KindScreen, System: "h2"})
	hit2 := submit(t, ts, JobRequest{Kind: KindScreen, System: "h2"})
	if !hit1.CacheHit || !hit2.CacheHit {
		t.Fatalf("repeats must hit the replayed cache: %+v %+v", hit1, hit2)
	}
	for _, h := range []*JobResult{hit1, hit2} {
		if !strings.HasPrefix(h.ID, "hit-") {
			t.Fatalf("cache hit ID %q must use the hit- form, not consume job IDs", h.ID)
		}
	}
	if hit1.ID == hit2.ID {
		t.Fatal("hit IDs must still be unique")
	}

	// A genuinely new job gets the *next* job ID after the replayed one:
	// the hits burned nothing, so the journal's job-NNN space is gapless
	// and every ID in it corresponds to a journaled submit.
	fresh := submit(t, ts, JobRequest{Kind: KindScreen, System: "water"})
	if fresh.ID != "job-000002" {
		t.Fatalf("fresh job ID %q, want job-000002 (hits must not advance the job sequence)", fresh.ID)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Nothing outstanding: both real jobs finished and were struck out;
	// no phantom IDs were minted that a future boot could re-assign.
	jl2, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	if out := jl2.snapshotOutstanding(); len(out) != 0 {
		t.Fatalf("journal should be clean, got %d outstanding", len(out))
	}
}

// ---------------------------------------------------------------------------
// Queue properties (satellite: starvation aging + FIFO under
// concurrency).

// propRNG is a tiny deterministic generator for the property tests.
type propRNG uint64

func (r *propRNG) next() uint64 {
	*r ^= *r >> 12
	*r ^= *r << 25
	*r ^= *r >> 27
	return uint64(*r) * 0x2545f4914f6cdd1d
}

func (r *propRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// TestQueueAgingOvertakeBoundProperty pushes a randomized arrival stream
// ranked exactly as server admission ranks jobs (rank = predicted +
// aging·t_enqueue) and checks two properties of the pop order: it is the
// deterministic (rank, seq) order, and no job overtakes an earlier,
// more expensive job that arrived more than predicted/aging seconds
// before it — the starvation bound the queue documents.
func TestQueueAgingOvertakeBoundProperty(t *testing.T) {
	const (
		n     = 300
		aging = 1e8 // ns of predicted cost per queued second
	)
	rng := propRNG(42)
	type spec struct {
		predicted, t float64
	}
	specs := make([]spec, n)
	var now float64
	for i := range specs {
		now += 2 * rng.float64() // mean 1 s between arrivals
		// Log-uniform predicted costs over four decades: heavy tails are
		// exactly where starvation shows up.
		p := math.Pow(10, 6+4*rng.float64())
		specs[i] = spec{predicted: p, t: now}
	}

	q := newQueue(n)
	for i, sp := range specs {
		j := fakeJob(fmt.Sprintf("j%d", i), sp.predicted+aging*sp.t, int64(i))
		j.predicted = sp.predicted
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}

	// Expected order: ascending (rank, seq).
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		ra := specs[want[a]].predicted + aging*specs[want[a]].t
		rb := specs[want[b]].predicted + aging*specs[want[b]].t
		if ra != rb {
			return ra < rb
		}
		return want[a] < want[b]
	})

	pos := make([]int, n) // pos[i] = pop position of job i
	for k := 0; k < n; k++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("queue exhausted at pop %d", k)
		}
		var id int
		fmt.Sscanf(j.id, "j%d", &id)
		if id != want[k] {
			t.Fatalf("pop %d: got j%d, want j%d (order must be (rank, seq))", k, id, want[k])
		}
		pos[id] = k
	}

	// Overtake bound: j overtakes an earlier i only while i's aging
	// credit has not caught up, i.e. within predicted_i/aging seconds of
	// arrivals after i.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[j] < pos[i] && specs[j].predicted < specs[i].predicted {
				maxDelay := specs[i].predicted / aging
				if delay := specs[j].t - specs[i].t; delay > maxDelay {
					t.Fatalf("job %d (arrived %.2fs after job %d) overtook it beyond the %.2fs aging bound",
						j, delay, i, maxDelay)
				}
			}
		}
	}
}

// TestQueueEqualRankConcurrentPushFIFO hammers the queue with concurrent
// pushers and checks that equal-rank jobs still pop in strict seq
// (admission) order — the determinism FIFO tie-break the heap promises.
func TestQueueEqualRankConcurrentPushFIFO(t *testing.T) {
	const (
		n          = 256
		goroutines = 8
	)
	q := newQueue(n)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := g; seq < n; seq += goroutines {
				if err := q.push(fakeJob(fmt.Sprintf("j%d", seq), 7, int64(seq))); err != nil {
					t.Errorf("push seq %d: %v", seq, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("queue exhausted at pop %d", k)
		}
		if want := fmt.Sprintf("j%d", k); j.id != want {
			t.Fatalf("pop %d: got %s, want %s (equal ranks must stay FIFO)", k, j.id, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Router-facing key and pricing hooks.

func TestCanonicalKeyAndPriceRequest(t *testing.T) {
	req := JobRequest{Kind: KindBuildJK, System: "water"}
	key, err := CanonicalKey(req)
	if err != nil || key == "" {
		t.Fatalf("CanonicalKey: %q, %v", key, err)
	}
	// CanonicalKey must agree with what admission computes.
	norm := req
	norm.normalize()
	mol, err := norm.resolveMolecule()
	if err != nil {
		t.Fatal(err)
	}
	if admKey := norm.cacheKey(mol); admKey != key {
		t.Fatalf("CanonicalKey %q != admission key %q", key, admKey)
	}
	// The caller's request must not be mutated by normalization.
	if req.Basis != "" || req.Functional != "" {
		t.Fatalf("CanonicalKey mutated its argument: %+v", req)
	}

	pKey, predicted, err := PriceRequest(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pKey != key {
		t.Fatalf("PriceRequest key %q != CanonicalKey %q", pKey, key)
	}
	if predicted <= 0 {
		t.Fatalf("predicted cost %g, want > 0", predicted)
	}
	if _, err := CanonicalKey(JobRequest{Kind: "nope"}); err == nil {
		t.Fatal("CanonicalKey must validate")
	}
	if _, _, err := PriceRequest(JobRequest{System: "unobtainium"}, 1); err == nil {
		t.Fatal("PriceRequest must validate")
	}
	// An out-of-range cluster size is a validation error, not a panic in
	// the caller's goroutine (a fleet router computes keys in Submit's).
	for _, n := range []int{-1, maxNWater + 1} {
		if _, err := CanonicalKey(JobRequest{Kind: KindScreen, System: "watercluster", NWater: n}); err == nil {
			t.Fatalf("CanonicalKey accepted nwater %d", n)
		}
	}
}

// TestCanonicalKeyPinned pins the literal cache key of one scf and one
// buildjk request: a change to the key's canonical form orphans every
// entry already in a result store, so it must show up here.
func TestCanonicalKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Kind: KindSCF, System: "water", Functional: "PBE0"}, "c1fb209cb1a46f5649eae044ff119755"},
		{JobRequest{Kind: KindBuildJK, System: "watercluster", NWater: 2}, "281ee8cdf261306cc14f720248ca136c"},
	} {
		if got, err := CanonicalKey(tc.req); err != nil || got != tc.want {
			t.Errorf("%s %s: key %q, %v; want %q", tc.req.Kind, tc.req.System, got, err, tc.want)
		}
	}
}

// FuzzJobRequest feeds arbitrary bytes to the job-request decoder that
// POST /v1/jobs uses, which resolves what it decodes, and to CanonicalKey
// on the plainly unmarshalled request, as a fleet router calls it on a raw
// request in the caller's goroutine. CanonicalKey must not panic; for every
// request the decoder takes it must return the decoder's own key, and a
// request re-encoded and decoded again must keep that key. Nothing here
// screens or prices, so every input stays cheap.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"screen","system":"watercluster","nwater":-1}`,
		`{"kind":"scf","xyz":"2\nh2\nH 0 0 0\nH 0 0 NaN\n"}`,
		`{"kind":"trajectory","system":"lih","functional":"PBE0","maxSteps":3,"respaK":2,"ref":"loose"}`,
		`{"kind":"solvent-scan","solvent":"dmso","points":3,"rmin":4,"rmax":8}`,
		`{"kind":"solvent-scan","points":65}`,
	} {
		f.Add([]byte(seed))
	}
	big, _ := json.Marshal(JobRequest{Kind: KindScreen, XYZ: latticeXYZ(maxXYZAtoms + 1)})
	f.Add(big)
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw JobRequest
		if json.Unmarshal(body, &raw) != nil {
			return
		}
		key, err := CanonicalKey(raw)
		req, derr := decodeRequest(bytes.NewReader(body))
		if derr != nil {
			return
		}
		if err != nil || key != req.key {
			t.Fatalf("CanonicalKey %q, %v; the decoder's key %q", key, err, req.key)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", again, err)
		}
		if back.key != key {
			t.Fatalf("re-encoded request keys %q; want %q", back.key, key)
		}
	})
}

// TestTrajectoryPricedAsSCFPlusGradient: an outer step is one SCF and one
// analytic gradient build, whatever the atom count — not the 6N+1 SCFs of
// a finite-difference force, which priced LiH 13× and propylene carbonate
// 79× too dear and kept campaigns that fit out of the queue.
func TestTrajectoryPricedAsSCFPlusGradient(t *testing.T) {
	for _, system := range []string{"lih", "pc"} {
		_, scfNS, err := PriceRequest(JobRequest{Kind: KindSCF, System: system}, 1)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 7
		_, trajNS, err := PriceRequest(JobRequest{Kind: KindTrajectory, System: system, MaxSteps: steps, RespaK: 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := steps * scfNS * (scfIterationsEstimate + gradientBuildsEstimate) / scfIterationsEstimate
		if math.Abs(trajNS-want) > 1e-9*want {
			t.Fatalf("%s: %d-step trajectory priced %g ns, want %g (SCF job %g)", system, steps, trajNS, want, scfNS)
		}
	}
}

// latticeXYZ is an inline geometry of n hydrogen atoms on a cubic lattice
// 2 Å apart, six to an edge.
func latticeXYZ(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d\nlattice\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "H %d %d %d\n", 2*(i%6), 2*(i/6%6), 2*(i/36))
	}
	return sb.String()
}

// journalOf writes a job journal holding reqs as outstanding jobs
// job-000001, job-000002, … and returns its path.
func journalOf(t *testing.T, reqs ...JobRequest) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if _, err := jl.submit(fmt.Sprintf("job-%06d", i+1), &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRequestResolvedOnce: the handler and journal replay resolve each
// request once — defaults, validation, geometry and canonical key — and
// admission and the worker build from that resolution, so jobs.resolved
// moves by one for a cache miss, a cache hit and a replay that resolves,
// whether admission then takes the replay or strikes it out. Admission
// refuses a request nothing has resolved.
func TestRequestResolvedOnce(t *testing.T) {
	// On a one-slot queue the first of the two resolvable replays is
	// admitted and the second struck out; the inline geometry past the
	// bound is struck out before it resolves.
	path := journalOf(t, JobRequest{Kind: KindScreen, System: "lih"}, JobRequest{Kind: KindScreen, System: "h2"},
		JobRequest{Kind: KindScreen, XYZ: latticeXYZ(maxXYZAtoms + 1)})
	replay := mustNew(t, Config{Workers: 1, QueueCap: 1, JournalPath: path})
	if r, rep, drop := counter(replay, "jobs.resolved"), counter(replay, "journal.replayed"), counter(replay, "journal.replay_dropped"); r != 2 || rep != 1 || drop != 2 {
		t.Fatalf("replay: jobs.resolved %d, journal.replayed %d, journal.replay_dropped %d; want 2, 1, 2", r, rep, drop)
	}

	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, want := range []bool{false, true} {
		res := submit(t, ts, JobRequest{Kind: KindSCF, System: "h2"})
		if res.State != StateDone || res.CacheHit != want {
			t.Fatalf("submit %d: %+v, want cache hit %v", i, res, want)
		}
		if got := counter(s, "jobs.resolved"); got != int64(i+1) {
			t.Fatalf("after submit %d (cache hit %v) jobs.resolved reads %d, want %d", i, want, got, i+1)
		}
	}
	if r, sub := counter(s, "jobs.resolved"), counter(s, "jobs.submitted"); r != sub {
		t.Fatalf("jobs.resolved %d, want jobs.submitted %d", r, sub)
	}
	if _, err := s.admit(context.Background(), "", JobRequest{Kind: KindScreen, System: "h2"}); err == nil {
		t.Fatal("admission took an unresolved request")
	}
}

// TestInlineGeometryBounded: an inline XYZ of more than maxXYZAtoms atoms
// is refused before anything is built or screened — a 400 at the handler
// with no price observed, an error from CanonicalKey (the fleet router's
// key) and a struck-out job at journal replay — and one of exactly
// maxXYZAtoms atoms is served.
func TestInlineGeometryBounded(t *testing.T) {
	big := JobRequest{Kind: KindScreen, XYZ: latticeXYZ(maxXYZAtoms + 1)}
	if _, err := CanonicalKey(big); err == nil {
		t.Fatalf("CanonicalKey accepted %d inline atoms", maxXYZAtoms+1)
	}
	s := mustNew(t, Config{Workers: 1, JournalPath: journalOf(t, big)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := counter(s, "journal.replay_dropped"); got != 1 {
		t.Fatalf("journal.replay_dropped %d, want 1", got)
	}
	_, err := NewClient(ts.URL).Submit(context.Background(), big)
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("%d inline atoms: %v, want a 400", maxXYZAtoms+1, err)
	}
	if n := s.reg.Histogram("job.predicted_ms", latencyEdgesMS).Total(); n != 0 {
		t.Fatalf("job.predicted_ms observed %d prices, want none", n)
	}
	if res := submit(t, ts, JobRequest{Kind: KindScreen, XYZ: latticeXYZ(maxXYZAtoms)}); res.State != StateDone || res.Screen == nil {
		t.Fatalf("%d inline atoms: %+v", maxXYZAtoms, res)
	}
}

// TestEachScreeningCountedOnce: hfx.pair_lists counts every pair list a job
// screened exactly once, where it was screened — admission's for every job
// it prices, a session's for each rebuild — and hfx.screen_wall_ns adds
// each one's wall once. A trajectory's first step runs on admission's list,
// a buildjk on a reused worker builder counts its own admission's list, and
// a screen job counts the list it reports.
func TestEachScreeningCountedOnce(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	lih := JobRequest{Kind: KindTrajectory, System: "lih", Functional: "PBE0", MaxSteps: 4, RespaK: 2, Ref: "spring"}
	buildjk := JobRequest{Kind: KindBuildJK, System: "water"}
	for _, c := range []struct {
		req   JobRequest
		lists int64
	}{
		{trajReq(), 1}, {lih, 2}, {JobRequest{Kind: KindScreen, System: "water"}, 1}, {buildjk, 1}, {buildjk, 1},
	} {
		lists, wall := counter(s, "hfx.pair_lists"), counter(s, "hfx.screen_wall_ns")
		res := submit(t, ts, c.req)
		if res.State != StateDone {
			t.Fatalf("%s %s: state %q (err %q)", c.req.Kind, c.req.System, res.State, res.Error)
		}
		if res.Traj != nil && res.Traj.PairListBuilds != c.lists {
			t.Fatalf("%s: %d pair-list builds, want %d", c.req.System, res.Traj.PairListBuilds, c.lists)
		}
		if got := counter(s, "hfx.pair_lists") - lists; got != c.lists {
			t.Fatalf("%s %s moved hfx.pair_lists by %d, want %d", c.req.Kind, c.req.System, got, c.lists)
		}
		if counter(s, "hfx.screen_wall_ns") <= wall {
			t.Fatalf("%s %s added no screening wall", c.req.Kind, c.req.System)
		}
	}
	if reused := counter(s, "builders.reused"); reused != 1 {
		t.Fatalf("builders.reused %d: the second buildjk should reuse the worker's builder", reused)
	}
}

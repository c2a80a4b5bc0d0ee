package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/md"
	"hfxmd/internal/mprt"
	"hfxmd/internal/phys"
	"hfxmd/internal/scf"
	"hfxmd/internal/store"
	"hfxmd/internal/trace"
)

// Config tunes an hfxd server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers is the number of job workers, each owning long-lived
	// builder state (default 4).
	Workers int
	// QueueCap bounds the admission queue; a full queue answers 429 with
	// Retry-After (default 64).
	QueueCap int
	// CacheBytes is the byte budget of the result store's hot in-memory
	// tier (default 64 MiB). Results vary ~100× in payload size, so the
	// budget is bytes, not entries. A negative value disables the hot
	// tier — with no StoreDir that disables caching entirely.
	CacheBytes int64
	// StoreDir, if non-empty, adds a disk tier under the hot one: every
	// finished canonical result, converged prefix density and spilled ERI
	// cache image is persisted there, so a restarted server (or another
	// fleet instance pointing at the same directory) answers repeated
	// jobs from disk with zero builder work. Must be a different
	// directory from the journal's.
	StoreDir string
	// Store, if non-nil, is an externally owned store shared with other
	// server instances (the fleet wiring). It overrides CacheBytes and
	// StoreDir; the server does not close it.
	Store *store.Store
	// BuilderThreads is the HFX thread count per builder. The default 1
	// is right for a worker-parallel server: concurrency comes from jobs,
	// not from intra-build threads.
	BuilderThreads int
	// DefaultTimeout caps jobs that do not set TimeoutMS (default 2m);
	// MaxTimeout clamps client-requested deadlines (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// AgingNSPerSec is the starvation-aging rate of the admission queue
	// in predicted-cost nanoseconds per second of wait (default 1e8: one
	// queued second outweighs 100ms of predicted work).
	AgingNSPerSec float64
	// BeforeRun, if set, is invoked by each worker between dequeue and
	// execution with the job kind — an observability seam also used by
	// the lifecycle tests to hold workers at a known point.
	BeforeRun func(kind string)
	// JournalPath, if non-empty, makes job admission crash-safe: every
	// accepted job is recorded in a framed write-ahead journal before it
	// runs and struck out when it finishes. On boot, submits without a
	// matching finish — jobs that were queued or running when the
	// previous process died — are re-enqueued and run to completion,
	// filling the result cache as if the crash had not happened.
	JournalPath string
}

func (c *Config) fillDefaults() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.BuilderThreads == 0 {
		c.BuilderThreads = 1
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.AgingNSPerSec == 0 {
		c.AgingNSPerSec = 1e8
	}
}

// Server is the hfxd job service: a bounded cost-aware admission queue
// in front of a fixed worker pool, a result cache (the result store's
// hot tier, over an optional disk tier), and a metrics registry merging
// server gauges with the builders' trace counters. Create with New,
// expose with Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *trace.Registry
	store *store.Store
	cache *resultCache
	// ownStore marks a store opened by New (from CacheBytes/StoreDir)
	// rather than injected via Config.Store; only an owned store is
	// closed on shutdown.
	ownStore bool
	q        *queue
	mux      *http.ServeMux

	journal *jobJournal // nil unless Config.JournalPath is set

	start     time.Time
	nextID    atomic.Int64
	nextHitID atomic.Int64
	nextSeq   atomic.Int64
	// inflightNS sums the predicted cost (cost-model ns) of jobs the
	// workers are currently executing; together with the queue's queued
	// cost it prices the Retry-After hint of a 429.
	inflightNS atomic.Int64
	draining   atomic.Bool
	workerWG   sync.WaitGroup
	shutOnce   sync.Once
}

// latencyEdgesMS are the request-latency histogram buckets.
var latencyEdgesMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// ratioEdges are the buckets of the measured/predicted run-time
// histogram; the first holds only zero ratios.
var ratioEdges = []float64{0, 0.125, 0.25, 0.5, 0.75, 1, 1.5, 2, 4, 8, 16, 64}

// New starts a server: the worker pool runs immediately; attach
// Handler() to an http.Server to accept jobs. With Config.JournalPath
// set, jobs left queued or running by a previous process are re-enqueued
// before the workers start; the only error paths are journal I/O.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.StoreDir != "" && cfg.JournalPath != "" {
		// Segment files and journal frames must not interleave in one
		// directory: boot-time scans of each would trip over the other's
		// files, and journal compaction renames could collide with segment
		// rotation.
		if filepath.Clean(cfg.StoreDir) == filepath.Clean(filepath.Dir(cfg.JournalPath)) {
			return nil, fmt.Errorf("server: store dir and journal dir must be distinct (both %q)",
				filepath.Clean(cfg.StoreDir))
		}
	}
	s := &Server{
		cfg:   cfg,
		reg:   trace.NewRegistry(),
		q:     newQueue(cfg.QueueCap),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if cfg.Store != nil {
		s.store = cfg.Store
	} else {
		st, err := store.Open(store.Options{
			Dir:      cfg.StoreDir,
			HotBytes: cfg.CacheBytes,
			Registry: s.reg,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open result store: %w", err)
		}
		s.store = st
		s.ownStore = true
	}
	s.cache = &resultCache{st: s.store}
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/systems", s.handleSystems)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// Pre-create the instruments handlers touch so snapshots are stable.
	for _, c := range []string{
		"jobs.resolved", "jobs.submitted", "jobs.executed", "jobs.done", "jobs.failed",
		"jobs.cancelled", "jobs.rejected_full", "jobs.rejected_draining",
		"cache.hits", "cache.misses", "builders.created", "builders.reused",
		"journal.appends", "journal.bytes", "journal.replayed",
		"journal.compactions", "journal.append_errors", "journal.replay_dropped",
		"eri.spills", "eri.spill_bytes", "eri.warmed_builders", "eri.warmed_blocks",
		"prefix.density_hits", "prefix.density_misses", "prefix.density_rejected", "prefix.density_stored",
		// Pre-created so a restarted server that answers everything from
		// the store visibly reports zero Fock builds (the smoke test's
		// disk-warm assertion).
		"hfx.fock_builds",
		"traj.outer_steps",
	} {
		s.reg.Counter(c)
	}
	for _, g := range []string{
		"jobs.running", "builders.open", "traj.last_step",
	} {
		s.reg.Gauge(g)
	}
	if cfg.JournalPath != "" {
		jl, err := openJobJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("server: open job journal: %w", err)
		}
		s.journal = jl
		s.replayJournal()
		if err := jl.compact(); err != nil {
			return nil, fmt.Errorf("server: compact job journal: %w", err)
		}
		s.reg.Counter("journal.compactions").Add(1)
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replayJournal re-enqueues every outstanding journaled job through live
// admission (admit) before the workers start. Requests that no longer
// validate or price, and jobs beyond the queue capacity, are struck out
// instead. No handler waits on a replayed job: it runs, lands in the result
// cache, and its finish record strikes it from the journal like any other.
func (s *Server) replayJournal() {
	for _, rec := range s.journal.snapshotOutstanding() {
		// Keep the original ID and advance the allocator past it so live
		// submissions never collide with replayed ones; nothing else mints
		// an ID before New returns.
		var seq int64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &seq); err == nil && seq > s.nextID.Load() {
			s.nextID.Store(seq)
		}
		req := *rec.Req
		err := req.resolve()
		if err == nil {
			s.reg.Counter("jobs.resolved").Add(1)
			_, err = s.admit(context.Background(), rec.ID, req)
		}
		if err != nil {
			s.reg.Counter("journal.replay_dropped").Add(1)
			s.journal.finish(rec.ID)
			continue
		}
		s.reg.Counter("journal.replayed").Add(1)
	}
}

// admit is the one admission of a job, live or replayed: it refuses an
// unresolved request, prices a resolved one (counting its pair list), gives
// it a context on parent under its timeoutMs clamped to MaxTimeout, ranks it
// predicted + AgingNSPerSec·t and queues it as id (a new ID when id is
// empty). A draining server refuses the job before pricing it; a job the
// queue refuses is returned, context cancelled, with ErrQueueFull or ErrDraining.
func (s *Server) admit(parent context.Context, id string, req JobRequest) (*job, error) {
	if req.mol == nil {
		return nil, errors.New("server: admission of an unresolved request")
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	prep, predicted, err := prepare(&req, s.cfg.BuilderThreads)
	if err != nil {
		return nil, err
	}
	s.reg.Histogram("job.predicted_ms", latencyEdgesMS).Observe(predicted / 1e6)
	s.reg.Counter("hfx.pair_lists").Add(1)
	s.reg.Counter("hfx.screen_wall_ns").Add(prep.scr.Stats.Wall().Nanoseconds())
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if id == "" {
		id = s.newID()
	}
	ctx, cancel := context.WithTimeout(parent, min(timeout, s.cfg.MaxTimeout))
	j := &job{
		id: id, req: req, prep: prep, predicted: predicted,
		rank: predicted + s.cfg.AgingNSPerSec*time.Since(s.start).Seconds(),
		seq:  s.nextSeq.Add(1),
		enq:  time.Now(), ctx: ctx, cancel: cancel,
		done: make(chan struct{}),
	}
	if err := s.q.push(j); err != nil {
		cancel()
		return j, err
	}
	return j, nil
}

// Handler returns the HTTP interface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's registry (shared with tests and the
// /metrics endpoint).
func (s *Server) Metrics() *trace.Registry { return s.reg }

// QueueDepth reports the current number of queued jobs.
func (s *Server) QueueDepth() int { return s.q.depth() }

// QueuedCostNS reports the summed predicted cost (cost-model ns) of the
// queued jobs — with InflightCostNS, the load signal a fleet router
// falls back on when a job's home instance is overloaded.
func (s *Server) QueuedCostNS() float64 { return s.q.queuedCost() }

// InflightCostNS reports the summed predicted cost (cost-model ns) of
// the jobs currently executing on the workers.
func (s *Server) InflightCostNS() float64 { return float64(s.inflightNS.Load()) }

// QueueCap reports the admission queue's capacity (after defaults), from
// which a fleet router derives the depth at which it calls an instance
// overloaded.
func (s *Server) QueueCap() int { return s.cfg.QueueCap }

// Draining reports whether the server has stopped accepting jobs — the
// lifecycle signal a fleet router uses to route around an instance that
// is shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// CacheContains reports whether the result store currently holds the
// canonical key, without touching the hot tier's recency order: the
// probe behind a fleet's cache-affinity routing.
func (s *Server) CacheContains(key string) bool { return s.cache.contains(key) }

// Shutdown gracefully stops the server: admission is closed immediately
// (submits answer 503), the workers drain every queued and in-flight
// job, then close their builders and exit. It returns when the drain
// completes or ctx expires, whichever is first; on expiry the workers
// are left to finish in the background and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		s.q.drain()
	})
	done := make(chan struct{})
	go func() { s.workerWG.Wait(); close(done) }()
	select {
	case <-done:
		var err error
		if s.journal != nil {
			err = s.journal.close()
		}
		if s.ownStore {
			if cerr := s.store.Close(); err == nil {
				err = cerr
			}
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store exposes the server's result store (shared with fleet wiring and
// tests). With Config.Store it is the injected instance; otherwise it is
// owned by the server and closed on Shutdown.
func (s *Server) Store() *store.Store { return s.store }

// ---------------------------------------------------------------------------
// Worker pool.

// workerState is the long-lived per-worker builder cache: a worker keeps
// its most recent hfx.Builder (and the basis/engine it is bound to)
// alive across jobs, so consecutive jobs on the same geometry, method and
// rank count reuse the persistent executors instead of re-allocating them.
type workerState struct {
	key     string
	builder *hfx.Builder
	sums    buildSums // the builder's hfx.BuildSums already in /metrics
}

// close releases the cached builder, if any, spilling the semi-direct
// ERI cache to the store first: builder eviction is exactly when the
// integral work it holds would otherwise be lost.
func (st *workerState) close(s *Server) {
	if st.builder != nil {
		s.spillERI(st.builder)
		st.builder.Close()
		st.builder = nil
		s.reg.Gauge("builders.open").Add(-1)
	}
}

// spillERI serializes a builder's resident ERI blocks under its layout
// hash, so a future builder over the same (basis, shell-pair list,
// screening) warms from disk instead of recomputing the integrals.
func (s *Server) spillERI(b *hfx.Builder) {
	key := b.SpillKey()
	if key == "" {
		return
	}
	img := b.ExportERICache()
	if img == nil {
		return
	}
	if err := s.store.Put(key, img); err == nil {
		s.reg.Counter("eri.spills").Add(1)
		s.reg.Counter("eri.spill_bytes").Add(int64(len(img)))
	}
}

// warmERI restores a spilled ERI cache image into a freshly created
// builder, when the store holds one for its layout hash.
func (s *Server) warmERI(b *hfx.Builder) {
	key := b.SpillKey()
	if key == "" {
		return
	}
	img, ok := s.store.Get(key)
	if !ok {
		return
	}
	n, err := b.ImportERICache(img)
	if err != nil {
		return
	}
	s.reg.Counter("eri.warmed_builders").Add(1)
	s.reg.Counter("eri.warmed_blocks").Add(n)
}

// builder is the one construction of every served builder, on p's engine,
// pair list and priced tasks. One rank cannot fail; ranks > 1 place the same
// core over that many executors, one per rank, bitwise equal to one rank with
// that many threads, so ranks stay out of the result cache key.
func (p *prepared) builder(ranks int) (*hfx.Builder, error) {
	return hfx.NewPricedBuilder(p.eng, p.scr, hfx.Placement{Ranks: ranks, Schedule: mprt.DimExchange, Opts: p.opts}, p.tasks, p.prices)
}

// builderFor returns the worker's builder for j, reusing the cached one when
// the builder key (which carries the rank count) matches; a replacement
// (prepared.builder) with a semi-direct cache is warmed from any spilled
// image in the store.
func (st *workerState) builderFor(j *job, s *Server) (*hfx.Builder, error) {
	// The result key doubles as builder identity; the ERI cache budget and
	// the rank count shape the builder (not the result — the distributed
	// build is bitwise-pinned), so they extend it.
	key := fmt.Sprintf("%s;cachemb=%d;ranks=%d", j.req.key, j.req.CacheMB, max(j.req.Ranks, 1))
	if st.builder != nil && st.key == key {
		s.reg.Counter("builders.reused").Add(1)
		return st.builder, nil
	}
	st.close(s)
	b, err := j.prep.builder(j.req.Ranks)
	if err != nil {
		return nil, err
	}
	st.builder, st.key, st.sums = b, key, buildSums{}
	s.reg.Counter("builders.created").Add(1)
	s.reg.Gauge("builders.open").Add(1)
	s.warmERI(b)
	return b, nil
}

// worker is the persistent job loop: pop, execute, finish; on drain it
// closes its builders and exits.
func (s *Server) worker() {
	defer s.workerWG.Done()
	var st workerState
	defer st.close(s)
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		queueMS := float64(time.Since(j.enq)) / float64(time.Millisecond)
		s.reg.Histogram("job.queue_ms", latencyEdgesMS).Observe(queueMS)
		if err := j.ctx.Err(); err != nil {
			// Cancelled (client gone or deadline passed) while queued:
			// never touches a builder.
			s.finish(j, &JobResult{State: StateCancelled, Error: err.Error(), QueueMS: queueMS})
			continue
		}
		s.inflightNS.Add(int64(j.predicted))
		if s.cfg.BeforeRun != nil {
			s.cfg.BeforeRun(j.req.Kind)
		}
		s.reg.Gauge("jobs.running").Add(1)
		t0 := time.Now()
		res := s.execute(&st, j)
		res.QueueMS = queueMS
		res.RunMS = float64(time.Since(t0)) / float64(time.Millisecond)
		s.reg.Gauge("jobs.running").Add(-1)
		s.inflightNS.Add(-int64(j.predicted))
		s.reg.Counter("jobs.executed").Add(1)
		s.reg.Histogram("job.run_ms", latencyEdgesMS).Observe(res.RunMS)
		if j.predicted > 0 {
			// The cost model's live prediction error: measured over predicted
			// run time. Nothing feeds back into pricing.
			s.reg.Histogram("job.run_over_predicted", ratioEdges).Observe(res.RunMS / (j.predicted / 1e6))
		}
		s.finish(j, res)
	}
}

// finish publishes the result, updates the state counters, stores done
// results in the cache, and wakes the submitting handler.
func (s *Server) finish(j *job, res *JobResult) {
	res.ID = j.id
	res.Kind = j.req.Kind
	res.CacheKey = j.req.key
	res.PredictedCostNS = j.predicted
	switch res.State {
	case StateDone:
		s.cache.put(j.req.key, *res) // before the counter: whoever saw it move may resubmit and must hit
		s.reg.Counter("jobs.done").Add(1)
	case StateFailed:
		s.reg.Counter("jobs.failed").Add(1)
	case StateCancelled:
		s.reg.Counter("jobs.cancelled").Add(1)
	}
	if s.journal != nil {
		n, compacted, err := s.journal.finish(j.id)
		if err != nil {
			s.reg.Counter("journal.append_errors").Add(1)
		} else {
			s.reg.Counter("journal.appends").Add(1)
			s.reg.Counter("journal.bytes").Add(int64(n))
			if compacted {
				s.reg.Counter("journal.compactions").Add(1)
			}
		}
	}
	j.result = res
	close(j.done)
	j.cancel()
}

// execute dispatches one job on this worker.
func (s *Server) execute(st *workerState, j *job) *JobResult {
	switch j.req.Kind {
	case KindSCF:
		return s.runSCF(j)
	case KindBuildJK:
		return s.runBuildJK(st, j)
	case KindScreen:
		return s.runScreen(j)
	case KindSolventScan:
		return s.runScan(j)
	case KindTrajectory:
		return s.runTrajectory(j)
	default: // unreachable: validate rejected it
		return &JobResult{State: StateFailed, Error: "unknown kind " + j.req.Kind}
	}
}

// scfConfig maps a request to the SCF driver configuration.
func (s *Server) scfConfig(req *JobRequest) scf.Config {
	f, _ := dft.ByName(req.Functional)
	return scf.Config{
		Basis:      req.Basis,
		Functional: f,
		Screen:     req.screenOptions(),
		HFX:        hfxOptions(req, s.cfg.BuilderThreads),
		MaxIter:    req.MaxIter,
	}
}

// hfxOptions returns the builder options a request is served with on
// threads builder threads; admission prices its task list under them.
func hfxOptions(req *JobRequest, threads int) hfx.Options {
	opts := hfx.DefaultOptions()
	opts.Threads = threads
	opts.DensityWeighted = *req.DensityWeighted
	opts.CacheBudgetBytes = int64(req.CacheMB) << 20
	return opts
}

// seedDensity applies partial-hit prefix reuse to an SCF config
// (scf.LoadSeed): a converged density stored for the same model chemistry
// and composition at a neighbouring geometry seeds the run instead of the
// cold SAD guess. The outcome is counted in prefix.density_hits, _rejected
// (a stored density of some other geometry) or _misses.
func (s *Server) seedDensity(cfg *scf.Config, mol *chem.Molecule, nbasis int) {
	var status scf.SeedStatus
	cfg.InitialDensity, status = scf.LoadSeed(s.store, *cfg, mol, nbasis)
	s.reg.Counter([...]string{
		scf.SeedMiss:     "prefix.density_misses",
		scf.SeedRejected: "prefix.density_rejected",
		scf.SeedHit:      "prefix.density_hits",
	}[status]).Add(1)
}

func (s *Server) runSCF(j *job) *JobResult {
	cfg := s.scfConfig(&j.req)
	s.seedDensity(&cfg, j.req.mol, j.prep.eng.Basis.NBasis)
	// The builder is the job's own, on one rank (it cannot fail), neither
	// spilled nor kept by the worker.
	cfg.ExternalBuilder, _ = j.prep.builder(1)
	defer cfg.ExternalBuilder.Close()
	cfg.Ctx = j.ctx
	res, err := scf.Run(j.req.mol, cfg)
	if err != nil {
		return j.outcome(err)
	}
	s.mergeReport(res.HFXReport, res.HFXReport.Sums(), buildSums{})
	if scf.SaveSeed(s.store, cfg, res) {
		s.reg.Counter("prefix.density_stored").Add(1)
	}
	return &JobResult{State: StateDone, SCF: SummarizeSCF(res)}
}

// runBuildJK runs one J/K build on the worker's cached builder. With
// ranks > 1 the build runs on the in-process mprt runtime, and the summary
// carries the rank count and the collective traffic.
func (s *Server) runBuildJK(st *workerState, j *job) *JobResult {
	b, err := st.builderFor(j, s)
	if err != nil {
		return j.outcome(err)
	}
	p := scf.SADDensity(j.prep.eng.Basis)
	jm, km, rep := b.BuildJK(p)
	s.mergeReport(rep, rep.Sums(), st.sums)
	st.sums = rep.Sums()
	sum := &BuildSummary{
		NBasis:           j.prep.eng.Basis.NBasis,
		NTasks:           rep.NTasks,
		QuartetsComputed: rep.QuartetsComputed,
		QuartetsScreened: rep.QuartetsScreened,
		BalanceRatio:     rep.BalanceRatio,
		WallNS:           rep.Wall.Nanoseconds(),
		JNorm:            jm.FrobeniusNorm(),
		KNorm:            km.FrobeniusNorm(),
		ExchangeEnergy:   hfx.ExchangeEnergy(p, km),
		EriCacheHits:     rep.Cache.Hits,
		EriCacheMisses:   rep.Cache.Misses,
		CommBytes:        rep.CommBytes,
		ReduceSteps:      rep.MeasuredSteps,
	}
	if rep.Ranks > 1 {
		sum.Ranks = rep.Ranks
	}
	return &JobResult{State: StateDone, Build: sum}
}

func (s *Server) runScreen(j *job) *JobResult {
	st := j.prep.scr.Stats
	return &JobResult{State: StateDone, Screen: &ScreenSummary{
		TotalPairs:       st.TotalPairs,
		DistanceSurvived: st.DistanceSurvived,
		SchwarzSurvived:  st.SchwarzSurvived,
		NTasks:           len(j.prep.tasks),
		TotalCostNS:      j.prep.totalNS,
		MakespanNS:       j.prep.makespanNS,
		Threads:          st.Threads,
	}}
}

// runScan computes a solvent's Li2O2 approach profile (kind solvent-scan)
// with md.Scan: one session across the points, seeded from the server's
// store, its Fock builds published as they happen.
func (s *Server) runScan(j *job) *JobResult {
	req := &j.req
	cfg := s.scfConfig(req)
	cfg.Ctx = j.ctx
	coords := make([]float64, req.Points)
	for i := range coords {
		coords[i] = req.RMax + (req.RMin-req.RMax)*float64(i)/float64(req.Points-1)
	}
	var published md.SessionStats
	prof, err := md.Scan(cfg, md.SessionOptions{Store: s.store}, coords,
		func(r float64) (*chem.Molecule, error) { return chem.SolvatedPeroxide(req.Solvent, r) },
		func(st md.SessionStats) { s.publishSession(st, published); published = st })
	res := j.outcome(err)
	res.Scan = &ScanSummary{Solvent: req.Solvent, Points: prof.Points, WellKcal: prof.Well * phys.HartreeToKcalMol}
	return res
}

type buildSums = [len(hfx.BuildSums)]int64

// hfxSums are the /metrics names hfx.BuildSums add to, in its order: the
// hfx.* counters, then the hfx.<phase> timers its three walls charge.
var hfxSums = [len(hfx.BuildSums)]string{"hfx.fock_builds", "hfx.quartets_computed", "hfx.quartets_screened", "hfx.prim_quartets",
	"hfx.prim_skipped", "hfx.ericache.hits", "hfx.ericache.misses", "hfx.zero", "hfx.compute", "hfx.reduce"}

// mergeReport folds a job's Fock builds into the server-level registry:
// sums − prev, the movement of hfx.BuildSums since the last publish, so
// each build adds once, and from rep, the latest build's report, its tail
// bound and multi-rank traffic and walls (admit counts pair lists).
func (s *Server) mergeReport(rep hfx.Report, sums, prev buildSums) {
	for i, name := range hfxSums {
		if d := sums[i] - prev[i]; strings.HasSuffix(hfx.BuildSums[i], "_ns") {
			s.reg.Timer.Charge(name, time.Duration(d))
		} else {
			s.reg.Counter(name).Add(d)
		}
	}
	// The latest build's screening error bound, Σ q_i·q_j over the
	// primitive quartets it skipped, in units of 1e-15.
	s.reg.Gauge("hfx.prim_tail_bound_femto").Set(int64(rep.Prim.TailBound * 1e15))
	if rep.Ranks > 1 {
		s.reg.Counter("mprt.comm_bytes").Add(rep.CommBytes)
		s.reg.Counter("mprt.sends").Add(rep.Sends)
		s.reg.Counter("mprt.hops").Add(rep.Hops)
		s.reg.Counter("mprt.reduce_steps").Add(rep.MeasuredSteps)
		for r := range rep.RankCompute {
			s.reg.Timer.Charge(fmt.Sprintf("dist.rank%d.compute", r), rep.RankCompute[r])
			s.reg.Timer.Charge(fmt.Sprintf("dist.rank%d.comm", r), rep.RankComm[r])
		}
	}
}

// ---------------------------------------------------------------------------
// HTTP handlers.

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() {
		s.reg.Histogram("http.jobs_ms", latencyEdgesMS).
			Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}()
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.reg.Counter("jobs.resolved").Add(1)
	s.reg.Counter("jobs.submitted").Add(1)
	if res, ok := s.cache.get(req.key); ok {
		s.reg.Counter("cache.hits").Add(1)
		res.CacheHit = true
		// Hits mint from their own sequence with a distinct prefix: a
		// job-NNN ID is only ever handed out by admission, which (when
		// journaling) records it, so after a restart every job-NNN ID maps
		// to exactly one journaled submit — a hit must not burn one.
		res.ID = s.newHitID()
		res.QueueMS, res.RunMS = 0, 0
		writeJSON(w, http.StatusOK, res)
		return
	}
	s.reg.Counter("cache.misses").Add(1)

	// Admission pricing: screen the system and predict the job cost from
	// the pair list (the paper's predictability claim, repurposed).
	j, err := s.admit(r.Context(), "", req)
	switch {
	case err == ErrDraining:
		s.reg.Counter("jobs.rejected_draining").Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err == ErrQueueFull:
		s.reg.Counter("jobs.rejected_full").Add(1)
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(s.q.queuedCost(), s.InflightCostNS(), j.predicted, s.cfg.Workers)))
		httpError(w, http.StatusTooManyRequests, "admission queue full")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.journal != nil {
		// Record the accepted job. Replay pairs submits with finishes as
		// sets, so the worker racing this append to the finish record is
		// harmless — both land before any future boot reads them.
		if n, err := s.journal.submit(j.id, &req); err != nil {
			s.reg.Counter("journal.append_errors").Add(1)
		} else {
			s.reg.Counter("journal.appends").Add(1)
			s.reg.Counter("journal.bytes").Add(int64(n))
		}
	}

	// The worker closes j.done in every path, including cancellation —
	// a disconnected client's job still finishes (and fills the cache).
	<-j.done
	writeJSON(w, http.StatusOK, *j.result)
}

func (s *Server) newID() string {
	return fmt.Sprintf("job-%06d", s.nextID.Add(1))
}

func (s *Server) newHitID() string {
	return fmt.Sprintf("hit-%06d", s.nextHitID.Add(1))
}

// handleSystems lists the built-in geometries and job kinds.
func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"systems": chem.SystemNames(),
		"kinds":   []string{KindSCF, KindBuildJK, KindScreen, KindSolventScan, KindTrajectory},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// metricsSnapshot is the JSON form of /metrics?format=json.
type metricsSnapshot struct {
	UptimeSec  float64                   `json:"uptimeSec"`
	Workers    int                       `json:"workers"`
	QueueDepth int                       `json:"queueDepth"`
	CacheRatio float64                   `json:"cacheHitRatio"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]map[string]any `json:"histograms"`
	Phases     map[string]float64        `json:"phaseSeconds"`
}

func (s *Server) snapshot() metricsSnapshot {
	snap := metricsSnapshot{
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.q.depth(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]map[string]any{},
		Phases:     map[string]float64{},
	}
	// The queue and cache gauges are read where they are published; on a
	// shared fleet store the cache gauges count sibling instances' writes.
	s.reg.Gauge("jobs.queued").Set(int64(snap.QueueDepth))
	s.reg.Gauge("cache.entries").Set(int64(s.cache.entries()))
	s.reg.Gauge("cache.bytes").Set(s.cache.bytes())
	for _, c := range s.reg.Counters() {
		snap.Counters[c.Name] = c.Value
	}
	for _, g := range s.reg.Gauges() {
		snap.Gauges[g.Name] = g.Value
	}
	hits, misses := snap.Counters["cache.hits"], snap.Counters["cache.misses"]
	if hits+misses > 0 {
		snap.CacheRatio = float64(hits) / float64(hits+misses)
	}
	for _, h := range s.reg.Histograms() {
		snap.Histograms[h.Name] = map[string]any{
			"total": h.Total, "edges": h.Edges, "counts": h.Counts,
		}
	}
	for _, p := range s.reg.Timer.Phases() {
		snap.Phases[p.Name] = p.D.Seconds()
	}
	return snap
}

// handleMetrics merges the builders' trace counters with the server
// gauges. Plain text by default; ?format=json for the structured form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# hfxd metrics (uptime %.1fs, %d workers, queue depth %d, cache hit ratio %.3f)\n",
		snap.UptimeSec, snap.Workers, snap.QueueDepth, snap.CacheRatio)
	writeSortedInt64 := func(kind string, m map[string]int64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-7s %-26s %d\n", kind, k, m[k])
		}
	}
	writeSortedInt64("counter", snap.Counters)
	writeSortedInt64("gauge", snap.Gauges)
	for _, h := range s.reg.Histograms() {
		hh := s.reg.Histogram(h.Name, h.Edges)
		fmt.Fprintf(w, "%-7s %-26s n=%d p50<=%g p95<=%g\n",
			"hist", h.Name, h.Total, hh.Quantile(0.5), hh.Quantile(0.95))
	}
	for _, p := range s.reg.Timer.Phases() {
		fmt.Fprintf(w, "%-7s %-26s %v\n", "phase", p.Name, p.D)
	}
}

// writeJSON marshals before writing the header, so an unencodable value
// becomes a clean 500 instead of a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding result: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

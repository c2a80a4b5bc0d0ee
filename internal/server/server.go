package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/mprt"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
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
		"jobs.submitted", "jobs.executed", "jobs.done", "jobs.failed",
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
		"jobs.queued", "jobs.running", "builders.open", "cache.entries", "cache.bytes",
		"traj.last_step",
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

// replayJournal re-enqueues every outstanding journaled job before the
// workers start. Requests that no longer validate, and jobs beyond the
// queue capacity, are struck out instead of replayed. No handler waits
// on a replayed job: it runs, lands in the result cache, and its finish
// record strikes it from the journal like any live job.
func (s *Server) replayJournal() {
	for _, rec := range s.journal.snapshotOutstanding() {
		// Keep the original ID and advance the allocator past it so live
		// submissions never collide with replayed ones.
		var seq int64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &seq); err == nil {
			for cur := s.nextID.Load(); cur < seq; cur = s.nextID.Load() {
				if s.nextID.CompareAndSwap(cur, seq) {
					break
				}
			}
		}
		req := *rec.Req
		req.normalize()
		drop := func(why error) {
			s.reg.Counter("journal.replay_dropped").Add(1)
			s.journal.finish(rec.ID)
			_ = why
		}
		if err := req.validate(); err != nil {
			drop(err)
			continue
		}
		sopts := screen.DefaultOptions()
		sopts.Threshold = req.Screen
		prep, predicted, err := prepare(&req, s.cfg.BuilderThreads, sopts)
		if err != nil {
			drop(err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		j := &job{
			id: rec.ID, req: req, key: req.cacheKey(prep.mol),
			prep: prep, predicted: predicted,
			rank: predicted,
			seq:  s.nextSeq.Add(1),
			enq:  time.Now(), ctx: ctx, cancel: cancel,
			done: make(chan struct{}),
		}
		s.reg.Gauge("jobs.queued").Add(1)
		if err := s.q.push(j); err != nil {
			s.reg.Gauge("jobs.queued").Add(-1)
			cancel()
			drop(err)
			continue
		}
		s.reg.Counter("journal.replayed").Add(1)
	}
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
	prep    *prepared
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

// builderFor returns a builder for the job's prepared state, reusing the
// cached one when the builder key (which carries the rank count) matches.
// A request with ranks > 1 gets the rank-distributed placement of the same
// core, one executor per rank: its bits equal a single-rank builder with
// that many threads, so ranks stay out of the result cache key. A
// replacement builder with a semi-direct cache is warmed from any
// spilled image in the store.
func (st *workerState) builderFor(j *job, s *Server) (*hfx.Builder, error) {
	if st.builder != nil && st.key == j.prep.builderKey {
		s.reg.Counter("builders.reused").Add(1)
		return st.builder, nil
	}
	st.close(s)
	opts := j.prep.opts
	var b *hfx.Builder
	if j.req.Ranks > 1 {
		d, err := hfx.NewDistBuilder(j.prep.eng, j.prep.scr, hfx.DistOptions{Ranks: j.req.Ranks, Schedule: mprt.DimExchange, Opts: opts})
		if err != nil {
			return nil, err
		}
		b = d.Builder
	} else {
		b = hfx.NewPricedBuilder(j.prep.eng, j.prep.scr, opts, j.prep.tasks)
	}
	st.builder, st.key, st.prep = b, j.prep.builderKey, j.prep
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
		s.reg.Gauge("jobs.queued").Add(-1)
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
	res.CacheKey = j.key
	res.PredictedCostNS = j.predicted
	switch res.State {
	case StateDone:
		s.cache.put(j.key, *res) // before the counter: whoever saw it move may resubmit and must hit
		s.reg.Counter("jobs.done").Add(1)
		s.reg.Gauge("cache.entries").Set(int64(s.cache.entries()))
		s.reg.Gauge("cache.bytes").Set(s.cache.bytes())
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
	sopts := screen.DefaultOptions()
	sopts.Threshold = req.Screen
	return scf.Config{
		Basis:      req.Basis,
		Functional: f,
		Screen:     sopts,
		HFX:        hfxOptions(req, s.cfg.BuilderThreads),
		MaxIter:    req.MaxIter,
	}
}

// hfxOptions returns the builder options a request is served with on
// threads builder threads; admission prices its task list under them.
func hfxOptions(req *JobRequest, threads int) hfx.Options {
	opts := hfx.DefaultOptions()
	opts.Threads = threads
	opts.Cost = hfx.DefaultCostModel()
	opts.DensityWeighted = *req.DensityWeighted
	opts.CacheBudgetBytes = int64(req.CacheMB) << 20
	return opts
}

// seedDensity applies partial-hit prefix reuse to an SCF config: when
// the store holds a converged density for the same model-chemistry and
// composition prefix that was converged at a neighbouring geometry (the
// previous scan point, an earlier MD step — scf.DecodeSeed draws the
// line), SCF starts from it instead of the cold SAD guess. A stored
// density of some other geometry of the same composition is counted as
// rejected and the run starts from SAD. Returns the store key under which
// this run's converged density belongs.
func (s *Server) seedDensity(cfg *scf.Config, mol *chem.Molecule, nbasis int) string {
	key := densityKeyPrefix + scf.DensityPrefixKey(*cfg, mol)
	status := scf.SeedMiss
	if b, ok := s.store.Get(key); ok {
		cfg.InitialDensity, status = scf.DecodeSeed(b, mol)
	}
	if status == scf.SeedHit && cfg.InitialDensity.Rows != nbasis {
		cfg.InitialDensity, status = nil, scf.SeedMiss // written under other basis data
	}
	switch status {
	case scf.SeedHit:
		s.reg.Counter("prefix.density_hits").Add(1)
	case scf.SeedRejected:
		s.reg.Counter("prefix.density_rejected").Add(1)
	default:
		s.reg.Counter("prefix.density_misses").Add(1)
	}
	return key
}

// storeDensity records a converged density, with its geometry, under its
// prefix key.
func (s *Server) storeDensity(key string, res *scf.Result) {
	if !res.Converged {
		return
	}
	if err := s.store.Put(key, scf.EncodeSeed(res.Set.Mol, res.Set.NBasis, res.P.Data)); err == nil {
		s.reg.Counter("prefix.density_stored").Add(1)
	}
}

func (s *Server) runSCF(j *job) *JobResult {
	cfg := s.scfConfig(&j.req)
	dkey := s.seedDensity(&cfg, j.prep.mol, j.prep.set.NBasis)
	// The run builds on the admission's pair list and task list, so it
	// neither screens nor prices again; the builder is the job's own,
	// neither spilled nor kept by the worker.
	b := hfx.NewPricedBuilder(j.prep.eng, j.prep.scr, j.prep.opts, j.prep.tasks)
	defer b.Close()
	cfg.ExternalBuilder = b
	res, err := scf.RunContext(j.ctx, j.prep.mol, cfg)
	if err != nil {
		state := StateFailed
		if j.ctx.Err() != nil {
			state = StateCancelled
		}
		return &JobResult{State: state, Error: err.Error()}
	}
	s.mergeReport(res.HFXReport, res.HFXReport.Pool.Builds)
	s.storeDensity(dkey, res)
	return &JobResult{State: StateDone, SCF: SummarizeSCF(res)}
}

// runBuildJK runs one J/K build on the worker's cached builder. With
// ranks > 1 the build runs on the in-process mprt runtime, and the summary
// carries the rank count and the collective traffic.
func (s *Server) runBuildJK(st *workerState, j *job) *JobResult {
	b, err := st.builderFor(j, s)
	if err != nil {
		return &JobResult{State: StateFailed, Error: err.Error()}
	}
	p := scf.SADDensity(j.prep.set)
	jm, km, rep := b.BuildJK(p)
	s.mergeReport(rep, 1)
	sum := &BuildSummary{
		NBasis:           j.prep.set.NBasis,
		NTasks:           rep.NTasks,
		QuartetsComputed: rep.QuartetsComputed,
		QuartetsScreened: rep.QuartetsScreened,
		BalanceRatio:     rep.BalanceRatio,
		WallNS:           rep.Wall.Nanoseconds(),
		JNorm:            frobenius(jm),
		KNorm:            frobenius(km),
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

func (s *Server) runScan(j *job) *JobResult {
	cfg := s.scfConfig(&j.req)
	// The E8 profile needs the robust solver settings of cmd/solvents.
	cfg.Damping, cfg.DampIters = 0.5, 8
	cfg.LevelShift = 0.3
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 120
	}
	req := &j.req
	sum := &ScanSummary{Solvent: req.Solvent}
	var ref float64
	for i := 0; i < req.Points; i++ {
		r := req.RMax + (req.RMin-req.RMax)*float64(i)/float64(req.Points-1)
		mol, err := chem.SolvatedPeroxide(req.Solvent, r)
		if err != nil {
			return &JobResult{State: StateFailed, Error: err.Error()}
		}
		// Every point shares the scan's composition prefix, so point i
		// starts from point i−1's converged density — the partial-hit
		// reuse that makes a scan cheaper than independent SCFs.
		pcfg := cfg
		dkey := s.seedDensity(&pcfg, mol, j.prep.set.NBasis)
		res, err := scf.RunContext(j.ctx, mol, pcfg)
		if err != nil {
			if j.ctx.Err() != nil {
				return &JobResult{State: StateCancelled, Error: err.Error(), Scan: sum}
			}
			return &JobResult{State: StateFailed, Error: err.Error(), Scan: sum}
		}
		s.mergeReport(res.HFXReport, res.HFXReport.Pool.Builds)
		s.storeDensity(dkey, res)
		if i == 0 {
			ref = res.Energy
		}
		sum.Points = append(sum.Points, ScanPointJSON{
			R: r, Energy: res.Energy, Rel: res.Energy - ref, Converged: res.Converged,
		})
	}
	sum.WellKcal = wellDepth(sum.Points)
	return &JobResult{State: StateDone, Scan: sum}
}

// mergeReport folds a builder's report into the server-level registry:
// builds is how many Fock builds the job ran (the report's Pool.Builds
// counts the builder's lifetime, which spans jobs when a worker reuses
// it). The phase and traffic counters of the per-job builders become
// cumulative service metrics next to the queue/cache gauges; a
// multi-rank build adds its collective traffic and per-rank
// compute/comm walls.
func (s *Server) mergeReport(rep hfx.Report, builds int64) {
	s.reg.Counter("hfx.fock_builds").Add(builds)
	s.reg.Counter("hfx.quartets_computed").Add(rep.QuartetsComputed)
	s.reg.Counter("hfx.quartets_screened").Add(rep.QuartetsScreened)
	s.reg.Counter("hfx.prim_quartets").Add(rep.Prim.Evaluated)
	s.reg.Counter("hfx.prim_skipped").Add(rep.Prim.Skipped)
	// The latest build's screening error bound, Σ q_i·q_j over the
	// primitive quartets it skipped, in units of 1e-15.
	s.reg.Gauge("hfx.prim_tail_bound_femto").Set(int64(rep.Prim.TailBound * 1e15))
	s.reg.Counter("hfx.zero_ns").Add(int64(rep.Pool.ZeroTime))
	s.reg.Counter("hfx.screen_wall_ns").Add(rep.ScreeningStats.Wall().Nanoseconds())
	if rep.Cache.Enabled {
		s.reg.Counter("hfx.ericache.hits").Add(rep.Cache.Hits)
		s.reg.Counter("hfx.ericache.misses").Add(rep.Cache.Misses)
	}
	if rep.Timings != nil {
		for _, p := range rep.Timings.Phases() {
			s.reg.Timer.Charge("hfx."+p.Name, p.D)
		}
	}
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
	s.reg.Counter("jobs.submitted").Add(1)

	// Resolve the geometry once: the canonical hash serves the cache
	// lookup and, on a miss, admission pricing.
	mol, err := req.resolveMolecule()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := req.cacheKey(mol)
	if res, ok := s.cache.get(key); ok {
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

	if s.draining.Load() {
		s.reg.Counter("jobs.rejected_draining").Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Admission pricing: screen the system and predict the job cost from
	// the pair list (the paper's predictability claim, repurposed).
	sopts := screen.DefaultOptions()
	sopts.Threshold = req.Screen
	prep, predicted, err := prepare(&req, s.cfg.BuilderThreads, sopts)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.reg.Histogram("job.predicted_ms", latencyEdgesMS).Observe(predicted / 1e6)

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	j := &job{
		id: s.newID(), req: req, key: key,
		prep: prep, predicted: predicted,
		rank: predicted + s.cfg.AgingNSPerSec*time.Since(s.start).Seconds(),
		seq:  s.nextSeq.Add(1),
		enq:  time.Now(), ctx: ctx, cancel: cancel,
		done: make(chan struct{}),
	}
	s.reg.Gauge("jobs.queued").Add(1)
	if err := s.q.push(j); err != nil {
		s.reg.Gauge("jobs.queued").Add(-1)
		cancel()
		if err == ErrDraining {
			s.reg.Counter("jobs.rejected_draining").Add(1)
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.reg.Counter("jobs.rejected_full").Add(1)
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(s.q.queuedCost(), s.InflightCostNS(), predicted, s.cfg.Workers)))
		httpError(w, http.StatusTooManyRequests, "admission queue full")
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
		"systems": []string{"water", "h2", "he", "lih", "lif", "ch4", "pc", "dmso", "li2o2", "watercluster"},
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
	s.reg.Gauge("jobs.queued").Set(int64(snap.QueueDepth))
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

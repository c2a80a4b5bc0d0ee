package hfx

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/qpx"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/trace"
)

// Options configures a Builder.
type Options struct {
	// Threads is the number of worker goroutines ("hardware threads" in
	// the paper's terms). Zero means GOMAXPROCS.
	Threads int
	// Balancer selects the static load-balancing algorithm. The paper's
	// scheme is sched.LPT; sched.Block reproduces the naive layout.
	Balancer sched.Algorithm
	// Granule is the target task cost passed to GenerateTasks (0 = auto).
	Granule float64
	// DensityWeighted enables the P-weighted Schwarz quartet test, which
	// tightens screening as SCF converges.
	DensityWeighted bool
	// Vector turns on the QPX lane accounting of the batched kernel
	// (Report.LaneUtilization); the integrals do not depend on it. The
	// flag is scoped to this builder: two builders sharing one integrals.Engine
	// may disagree on it without affecting each other.
	Vector bool
	// Dynamic replaces the static assignment with a shared work queue
	// drained by the workers — the paper's work-stealing fallback for
	// when cost predictions are off. Tasks are dispatched in the static
	// balancer's cost order, so the static schedule remains the
	// performance model of record.
	Dynamic bool
	// Cost overrides the cost model (zero value = DefaultCostModel).
	Cost CostModel
	// CacheBudgetBytes enables semi-direct builds: up to this many bytes
	// of surviving ERI quartet blocks are cached on first evaluation and
	// replayed (re-contracted against the new density, skipping integral
	// evaluation) on later builds. Zero disables the cache (fully direct).
	// Admission is priority-ordered by Schwarz bound × predicted block
	// cost; see internal/hfx/ericache.go.
	CacheBudgetBytes int64
	// NoEarlyExit disables the sorted-pair early exit in the quartet loop
	// (the ket list is sorted by descending Q, so a failed Schwarz product
	// normally terminates the whole ket range). Ablation/testing knob; the
	// results are bitwise identical either way.
	NoEarlyExit bool
	// Calibrator, when non-nil, makes the pool time every task it executes
	// and fold (work class, raw predicted cost, measured wall) samples into
	// the calibrator's per-class correction factors. The hot path stays
	// untimed when nil.
	Calibrator *steal.Calibrator
}

// DefaultOptions returns the paper's production configuration.
func DefaultOptions() Options {
	return Options{
		Balancer:        sched.LPT,
		DensityWeighted: true,
		Vector:          true,
	}
}

// BaselineOptions reproduces the "directly comparable approach": naive
// block distribution of un-chunked pair work, no density weighting, no
// vectorization.
func BaselineOptions() Options {
	return Options{
		Balancer:        sched.Block,
		DensityWeighted: false,
		Vector:          false,
		Granule:         1e18, // one task per bra pair: no chunking
	}
}

// Report describes one Fock-build execution.
type Report struct {
	NTasks           int
	QuartetsComputed int64
	QuartetsScreened int64
	BalanceRatio     float64
	TheoreticalEff   float64
	Wall             time.Duration
	ReduceDepth      int
	LaneUtilization  float64 // 0 when Vector is off
	ScreeningStats   screen.Stats
	TaskCostStats    sched.CostStats
	// Timings charges wall-clock to the per-build phases ("zero",
	// "compute", "reduce"). The timer is owned by the builder's pool and
	// is reset at the start of every BuildJK, so the snapshot is valid
	// until the next build.
	Timings *trace.Timer
	// Metrics is the builder's lifetime metrics registry: buffer
	// allocation counts and bytes, build and reuse counts, cumulative
	// zeroing time, and the screening wall time. Counters persist across
	// builds (only the Timer inside is per-build).
	Metrics *trace.Registry
	// Pool summarises the persistent worker pool's state.
	Pool PoolStats
	// Cache summarises the semi-direct ERI block cache for this build.
	// Cache.Enabled is false for fully direct builders.
	Cache CacheStats
	// Prim counts the primitive quartets behind the shell quartets this
	// build evaluated: a surviving shell quartet drops the primitive
	// quartets whose Schwarz bound q_i·q_j is below ε over its primitive
	// count (see primCut), and Prim.TailBound — Σ q_i·q_j over what was
	// dropped — is the screening error bound of the blocks evaluated here.
	// Blocks replayed from the ERI cache were accounted by the build that
	// filled them.
	Prim integrals.PrimStats
}

// PoolStats describes the persistent worker pool behind a Builder.
type PoolStats struct {
	// Workers is the number of persistent worker goroutines.
	Workers int
	// BuffersAllocated counts the long-lived buffers the pool owns
	// (per-worker J/K accumulators and ERI blocks), all allocated once
	// in NewBuilder.
	BuffersAllocated int64
	// BufferBytes is the total size of those buffers.
	BufferBytes int64
	// Builds is the number of BuildJK calls served so far.
	Builds int64
	// ReuseHits counts builds that reused the pool's buffers (every
	// build after the first).
	ReuseHits int64
	// ZeroTime is the cumulative CPU time workers spent zeroing their
	// accumulators across all builds (summed over workers).
	ZeroTime time.Duration
	// CacheSlabBytes is the payload capacity of the semi-direct ERI cache
	// slabs (0 when the cache is disabled). Included in BufferBytes.
	CacheSlabBytes int64
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("tasks=%d quartets=%d screened=%d prims=%d prim-skip=%.3f prim-tail=%.2e balance=%.4f wall=%v reduce=%d lanes=%.2f",
		r.NTasks, r.QuartetsComputed, r.QuartetsScreened, r.Prim.Evaluated, r.Prim.SkipRatio(), r.Prim.TailBound,
		r.BalanceRatio, r.Wall, r.ReduceDepth, r.LaneUtilization)
}

// PhaseTable renders a per-phase accounting table: the wall-clock phases
// of the build followed by the pool's lifetime counters.
func (r Report) PhaseTable() string {
	var sb strings.Builder
	if r.Timings != nil {
		fmt.Fprintf(&sb, "  %-22s %14s\n", "phase", "time")
		for _, p := range r.Timings.Phases() {
			fmt.Fprintf(&sb, "  %-22s %14v\n", p.Name, p.D)
		}
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "  %-22s %14s\n", "counter", "value")
		for _, c := range r.Metrics.Counters() {
			fmt.Fprintf(&sb, "  %-22s %14d\n", c.Name, c.Value)
		}
	}
	return sb.String()
}

// Builder evaluates Coulomb (J) and exchange (K) matrices with the
// paper's task-parallel scheme. It is created once per geometry and
// reused across SCF/MD iterations; BuildJK is safe to call repeatedly
// but not concurrently with itself.
//
// The builder owns a persistent worker pool: worker goroutines, their
// J/K accumulation matrices, ERI scratch and dispatch order are all
// allocated once in NewBuilder and reused (zeroed, not reallocated) by
// every BuildJK, so the steady-state build performs no heap allocation.
// Call Close when done to stop the workers; a finalizer stops them if
// the builder is garbage-collected without Close.
type Builder struct {
	Eng  *integrals.Engine
	Scr  *screen.Result
	Opts Options

	pl        *pool
	closeOnce sync.Once
}

// pool holds everything the persistent workers touch. The workers
// reference the pool, not the Builder, so an abandoned Builder can still
// be collected and its finalizer can shut the workers down.
type pool struct {
	eng       *integrals.Engine
	scr       *screen.Result
	opts      Options
	tasks     []Task
	costs     []float64
	asn       *sched.Assignment
	costStats sched.CostStats
	// order is the dynamic-dispatch order (descending cost), computed
	// once; nil when Dynamic is off.
	order []int
	// classes and calib are set when Options.Calibrator is non-nil: tasks
	// are timed and observed into the calibrator per work class.
	classes []int
	calib   *steal.Calibrator

	nw    int
	slots []slot
	reg   *trace.Registry
	cache *eriCache  // nil when Options.CacheBudgetBytes admitted nothing
	grad  *gradState // nil until the first Gradient

	// Per-build state, written by the coordinator before workers are
	// woken (the wake-channel send establishes the happens-before edge).
	p        *linalg.Matrix
	pmaxAll  float64    // max |P| over the whole density (density-weighted runs)
	pmaxBlk  []float64  // max |P| over shell block (s1, s2), at s1·NShells+s2 (likewise)
	pairP    []float64  // pmaxBlk of every screened pair, by pair index (likewise)
	stats    *qpx.Stats // points at qstats when Vector, else nil
	qstats   qpx.Stats
	computed atomic.Int64
	screened atomic.Int64
	next     atomic.Int64
	phase    int
	stride   int

	// Per-build cache traffic, folded into the ericache.* counters and
	// Report.Cache at the end of BuildJK.
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheFillBytes atomic.Int64

	wake []chan struct{}
	done sync.WaitGroup
	quit chan struct{}
}

// slot is one leaf of the reduction tree — a pool worker, or a steal unit —
// with everything a task running in it writes: the private J and K
// accumulators, an ERI block buffer, the kernel scratch and the
// density-weighted screen's per-task row of block maxima (see braRows).
type slot struct {
	j, k *linalg.Matrix
	eri  []float64
	sc   *integrals.Scratch
	rowP []float64 // NShells floats; density-weighted builders only
}

const (
	phaseCompute = iota
	phaseReduce
	phaseGradient
)

// NewBuilder prepares the task decomposition, allocates the per-worker
// buffers and starts the persistent worker pool.
func NewBuilder(eng *integrals.Engine, scr *screen.Result, opts Options) *Builder {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.Cost == (CostModel{}) {
		opts.Cost = DefaultCostModel()
	}
	tasks := BuilderTasks(eng, scr, opts.Cost, opts.Granule)
	costs := TaskCosts(tasks)
	asn := sched.Balance(opts.Balancer, costs, opts.Threads)
	b := &Builder{Eng: eng, Scr: scr, Opts: opts}
	b.pl = newPool(eng, scr, opts, tasks, costs, asn)
	runtime.SetFinalizer(b, (*Builder).Close)
	return b
}

// newPool allocates the per-worker buffers and starts the persistent
// workers for an already-prepared task decomposition. The assignment may
// be a rank-local slice of a larger global schedule (see DistBuilder), so
// the pool takes the decomposition as inputs instead of computing it.
func newPool(eng *integrals.Engine, scr *screen.Result, opts Options,
	tasks []Task, costs []float64, asn *sched.Assignment) *pool {
	pl := &pool{eng: eng, scr: scr, opts: opts, reg: trace.NewRegistry()}
	pl.tasks = tasks
	pl.costs = costs
	pl.asn = asn
	pl.costStats = sched.Summarize(pl.costs)
	if opts.Dynamic {
		pl.order = make([]int, len(pl.tasks))
		for i := range pl.order {
			pl.order[i] = i
		}
		sort.Slice(pl.order, func(x, y int) bool {
			return pl.tasks[pl.order[x]].Cost > pl.tasks[pl.order[y]].Cost
		})
	}

	nw := pl.asn.NWorkers()
	pl.nw = nw
	n := eng.Basis.NBasis
	pl.slots = make([]slot, nw)
	buflen := eng.MaxERIBufLen()
	for w := range pl.slots {
		s := &pl.slots[w]
		s.j, s.k = linalg.NewSquare(n), linalg.NewSquare(n)
		s.eri = make([]float64, buflen)
		s.sc = integrals.NewScratch()
	}
	if opts.Vector {
		pl.stats = &pl.qstats
	}
	if opts.DensityWeighted {
		ns := eng.Basis.NShells()
		pl.pmaxBlk = make([]float64, ns*ns)
		pl.pairP = make([]float64, len(scr.Pairs))
		for w := range pl.slots {
			pl.slots[w].rowP = make([]float64, ns)
		}
	}
	if opts.Calibrator != nil {
		pl.classes = TaskClasses(eng.Basis, scr.Pairs, tasks)
		pl.calib = opts.Calibrator
	}
	if opts.CacheBudgetBytes > 0 {
		pl.cache = newERICache(eng.Basis, scr.Pairs, pl.tasks, pl.asn,
			newBuilderPricer(opts.Cost, eng, scr), opts.CacheBudgetBytes)
	}

	// Pre-create every counter the hot path touches so steady-state
	// lookups never insert into the registry map.
	pl.reg.Counter("pool.buffers_alloc").Add(int64(3 * nw))
	pl.reg.Counter("pool.buffer_bytes").Add(int64(nw * (2*n*n + buflen) * 8))
	pl.reg.Counter("pool.builds")
	pl.reg.Counter("pool.reuse_hits")
	pl.reg.Counter("pool.zero_ns")
	pl.reg.Counter("screen.wall_ns").Add(scr.Stats.Wall().Nanoseconds())
	if pl.cache != nil {
		pl.reg.Counter("pool.buffers_alloc").Add(int64(len(pl.cache.shards)))
		pl.reg.Counter("pool.buffer_bytes").Add(pl.cache.slabBytes())
		pl.reg.Counter("ericache.hits")
		pl.reg.Counter("ericache.misses")
		pl.reg.Counter("ericache.bytes")
		pl.reg.Counter("ericache.evictions")
		pl.reg.Counter("ericache.admitted").Add(pl.cache.admitted)
	}

	pl.wake = make([]chan struct{}, nw)
	pl.quit = make(chan struct{})
	for w := 0; w < nw; w++ {
		pl.wake[w] = make(chan struct{}, 1)
		go pl.worker(w)
	}
	return pl
}

// close stops the pool's persistent workers. Idempotence is the owner's
// responsibility (Builder.Close, DistBuilder.Close).
func (pl *pool) close() { close(pl.quit) }

// Close stops the persistent worker pool. It is idempotent and must not
// be called concurrently with BuildJK. A finalizer calls Close if the
// builder is collected without it, so forgetting Close leaks nothing
// permanently — but calling it promptly releases the goroutines sooner.
func (b *Builder) Close() {
	b.closeOnce.Do(func() { b.pl.close() })
	runtime.SetFinalizer(b, nil)
}

// Tasks exposes the generated task list (read-only) for the machine
// simulator.
func (b *Builder) Tasks() []Task { return b.pl.tasks }

// Assignment exposes the static schedule (read-only).
func (b *Builder) Assignment() *sched.Assignment { return b.pl.asn }

// worker is the persistent loop of one pool worker. It sleeps on its
// wake channel, executes the phase the coordinator selected, and
// signals completion through the pool WaitGroup.
func (pl *pool) worker(w int) {
	for {
		select {
		case <-pl.quit:
			return
		case <-pl.wake[w]:
		}
		switch pl.phase {
		case phaseCompute:
			pl.compute(w)
		case phaseReduce:
			pl.reduce(w)
		case phaseGradient:
			pl.gradient(w)
		}
		pl.done.Done()
	}
}

// broadcast wakes every worker for the current phase and waits for all
// of them to finish it.
func (pl *pool) broadcast() {
	pl.done.Add(pl.nw)
	for w := 0; w < pl.nw; w++ {
		pl.wake[w] <- struct{}{}
	}
	pl.done.Wait()
}

// compute zeroes this worker's accumulators, runs its share of the task
// list and symmetrizes the accumulators into its J and K (see digest).
func (pl *pool) compute(w int) {
	s := &pl.slots[w]
	t0 := time.Now()
	s.j.Zero()
	s.k.Zero()
	dz := time.Since(t0)
	pl.reg.Counter("pool.zero_ns").Add(dz.Nanoseconds())
	pl.reg.Timer.Charge("zero", dz)

	pl.drain(w)
	s.j.Symmetrize()
	s.k.Symmetrize()
}

// drain runs worker w's share of the task list in the current phase — the
// static assignment, or the shared cost-ordered queue when Dynamic is on.
func (pl *pool) drain(w int) {
	if pl.order != nil {
		for {
			i := int(pl.next.Add(1)) - 1
			if i >= len(pl.order) {
				return
			}
			pl.runPhaseTask(w, pl.order[i])
		}
	}
	for _, ti := range pl.asn.Workers[w] {
		pl.runPhaseTask(w, ti)
	}
}

func (pl *pool) runPhaseTask(w, ti int) {
	if pl.phase == phaseGradient {
		pl.gradTask(w, ti)
		return
	}
	pl.runTaskObserved(ti, &pl.slots[w])
}

// runTaskObserved wraps runTask with a per-task wall measurement folded
// into the calibrator as a (class, raw predicted, measured) sample. With
// no calibrator the hot path stays untimed.
func (pl *pool) runTaskObserved(ti int, s *slot) {
	if pl.calib == nil {
		pl.runTask(ti, s)
		return
	}
	t0 := time.Now()
	pl.runTask(ti, s)
	pl.calib.Observe(pl.classes[ti], pl.tasks[ti].Cost, float64(time.Since(t0).Nanoseconds()))
}

// reduce performs this worker's merge step of the pairwise reduction
// tree at the coordinator-set stride: worker w absorbs worker w+stride
// when w is a tree parent at this level.
func (pl *pool) reduce(w int) {
	s := pl.stride
	if w%(2*s) == 0 && w+s < pl.nw {
		pl.slots[w].j.AXPY(1, pl.slots[w+s].j)
		pl.slots[w].k.AXPY(1, pl.slots[w+s].k)
	}
}

// BuildJK computes the Coulomb and exchange matrices for density P:
//
//	J[μν] = Σ_{λσ} P[λσ] (μν|λσ),   K[μν] = Σ_{λσ} P[λσ] (μλ|νσ).
//
// Both are assembled in one pass over the screened canonical quartets.
// P must be symmetric (every density is): the pass digests half of each
// quartet's images and symmetrizes the rest in (see digest), so J and K
// come back exactly symmetric.
//
// The returned matrices alias the pool's persistent accumulators: they
// are valid until the next BuildJK on this builder, which overwrites
// them. Callers that need both an old and a new result simultaneously
// must copy (linalg.Matrix.Clone or CopyFrom) before rebuilding.
func (b *Builder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep Report) {
	pl := b.pl
	start := time.Now()
	depth := pl.runBuild(p)
	j, k = pl.slots[0].j, pl.slots[0].k
	rep = pl.buildReport(start, depth)
	// Keep the builder (and thus its finalizer) from being collected
	// while a build is mid-flight on the pool it owns.
	runtime.KeepAlive(b)
	return j, k, rep
}

// runBuild executes one compute+reduce cycle on the pool and returns the
// reduction depth. On return slots[0] holds the pool's J and K
// (the full matrices for a Builder, this rank's partials for a
// DistBuilder rank pool).
func (pl *pool) runBuild(p *linalg.Matrix) (depth int) {
	pl.prepareBuild(p)

	pl.phase = phaseCompute
	t0 := time.Now()
	pl.broadcast()
	pl.reg.Timer.Charge("compute", time.Since(t0))

	// Hierarchical pairwise reduction (binary tree), mirroring the
	// machine-scale K allreduce over the torus. The same persistent
	// workers execute the merge steps.
	t0 = time.Now()
	for stride := 1; stride < pl.nw; stride *= 2 {
		depth++
		pl.phase = phaseReduce
		pl.stride = stride
		pl.broadcast()
	}
	pl.reg.Timer.Charge("reduce", time.Since(t0))
	pl.p = nil
	return depth
}

// prepareBuild resets the pool's per-build state for density P: timers,
// traffic counters, the shared density pointer and the global density
// bound. Callers that drive the workers themselves (StealBuilder)
// use it without broadcast.
func (pl *pool) prepareBuild(p *linalg.Matrix) {
	n := pl.eng.Basis.NBasis
	if p.Rows != n || p.Cols != n {
		panic("hfx: density dimension mismatch")
	}
	pl.reg.Timer.Reset()
	builds := pl.reg.Counter("pool.builds")
	builds.Add(1)
	if builds.Value() > 1 {
		pl.reg.Counter("pool.reuse_hits").Add(1)
	}
	pl.computed.Store(0)
	pl.screened.Store(0)
	pl.takePrimStats() // a gradient phase may have run on the same scratch
	pl.qstats.Reset()
	pl.cacheHits.Store(0)
	pl.cacheMisses.Store(0)
	pl.cacheFillBytes.Store(0)
	pl.setDensity(p)
}

// setDensity points the workers at density P, rewinds the dynamic queue
// and refreshes the density bounds of the density-weighted screen.
func (pl *pool) setDensity(p *linalg.Matrix) {
	pl.p = p
	pl.next.Store(0)
	pl.pmaxAll = 0
	if !pl.opts.DensityWeighted {
		return
	}
	// One pass over P gives max |P| of every shell block — what braRows and
	// the per-pair maxima of screenQuartet read — and their maximum, the
	// global bound that, with the ket list sorted by descending Q, turns
	// the density-weighted test into a monotone early-exit pre-check.
	shells := pl.eng.Basis.Shells
	ns := len(shells)
	for s1 := range shells {
		sh1 := &shells[s1]
		blk := pl.pmaxBlk[s1*ns : (s1+1)*ns]
		clear(blk)
		for i := sh1.Index; i < sh1.Index+sh1.NFuncs(); i++ {
			row := p.Row(i)
			for s2 := range shells {
				sh2 := &shells[s2]
				m := blk[s2]
				for _, v := range row[sh2.Index : sh2.Index+sh2.NFuncs()] {
					if v < 0 {
						v = -v
					}
					if v > m {
						m = v
					}
				}
				blk[s2] = m
			}
		}
		for _, m := range blk {
			if m > pl.pmaxAll {
				pl.pmaxAll = m
			}
		}
	}
	for i, pr := range pl.scr.Pairs {
		pl.pairP[i] = pl.pmaxBlk[pr.A*ns+pr.B]
	}
}

// buildReport assembles the Report for the build cycle that just ran.
func (pl *pool) buildReport(start time.Time, depth int) Report {
	builds := pl.reg.Counter("pool.builds")
	rep := Report{
		NTasks:           len(pl.tasks),
		QuartetsComputed: pl.computed.Load(),
		QuartetsScreened: pl.screened.Load(),
		BalanceRatio:     pl.asn.BalanceRatio(),
		TheoreticalEff:   pl.asn.TheoreticalEfficiency(),
		Wall:             time.Since(start),
		ReduceDepth:      depth,
		ScreeningStats:   pl.scr.Stats,
		TaskCostStats:    pl.costStats,
		Timings:          pl.reg.Timer,
		Metrics:          pl.reg,
		Pool: PoolStats{
			Workers:          pl.nw,
			BuffersAllocated: pl.reg.Counter("pool.buffers_alloc").Value(),
			BufferBytes:      pl.reg.Counter("pool.buffer_bytes").Value(),
			Builds:           builds.Value(),
			ReuseHits:        pl.reg.Counter("pool.reuse_hits").Value(),
			ZeroTime:         time.Duration(pl.reg.Counter("pool.zero_ns").Value()),
		},
	}
	if pl.opts.Vector {
		rep.LaneUtilization = pl.qstats.Utilization()
	}
	rep.Prim = pl.takePrimStats()
	rep.Cache.BudgetBytes = pl.opts.CacheBudgetBytes
	if pl.cache != nil {
		pl.reg.Counter("ericache.hits").Add(pl.cacheHits.Load())
		pl.reg.Counter("ericache.misses").Add(pl.cacheMisses.Load())
		pl.reg.Counter("ericache.bytes").Add(pl.cacheFillBytes.Load())
		rep.Cache.Enabled = true
		rep.Cache.UsedBytes = pl.cache.usedBytes
		rep.Cache.AdmittedQuartets = pl.cache.admitted
		rep.Cache.ResidentBlocks = pl.cache.filled.Load()
		rep.Cache.Hits = pl.cacheHits.Load()
		rep.Cache.Misses = pl.cacheMisses.Load()
		rep.Cache.Evictions = pl.cache.evictions.Load()
		rep.Pool.CacheSlabBytes = pl.cache.slabBytes()
	}
	return rep
}

// braRows fills row, the density-weighted screen's per-task state, for a
// task whose bra is (a,b): row[s] = max(|P|(a,s), |P|(b,s), |P|(a,b)), |P|(x,y)
// the block maxima of setDensity. A no-op for plain screening.
func (pl *pool) braRows(bra screen.Pair, row []float64) {
	if !pl.opts.DensityWeighted {
		return
	}
	ns := len(row)
	ra, rb := pl.pmaxBlk[bra.A*ns:][:ns], pl.pmaxBlk[bra.B*ns:][:ns]
	pab := ra[bra.B]
	for s := range row {
		row[s] = max(ra[s], rb[s], pab)
	}
}

// screenQuartet applies the quartet-level screen to the bra of the task
// whose braRows are row and the ket pair ji. rest reports that every later
// ket of the task's range fails too: the range ascends through pairs sorted
// by descending Q, so the Schwarz product only shrinks, and once the plain
// test — or, density-weighted, the conservative global-density bound —
// fails, every remaining quartet fails the (tighter) local test as well.
//
// The density-weighted bound max(row[c], row[d], |P|(c,d)) is the largest
// |P| over the seven shell blocks that multiply (ab|cd) in J and K —
// screen.MaxDensityAbsQuartet — for symmetric P, where |P|(c,b) = |P|(b,c).
func (pl *pool) screenQuartet(bra, ket screen.Pair, ji int, row []float64) (ok, rest bool) {
	if !pl.opts.DensityWeighted {
		ok = pl.scr.QuartetSurvives(bra, ket)
		return ok, !ok && !pl.opts.NoEarlyExit
	}
	if !pl.opts.NoEarlyExit && !pl.scr.QuartetSurvivesWeighted(bra, ket, pl.pmaxAll) {
		return false, true
	}
	return pl.scr.QuartetSurvivesWeighted(bra, ket, max(row[ket.A], row[ket.B], pl.pairP[ji])), false
}

// takePrimStats collects and resets the workers' primitive-quartet
// counters.
func (pl *pool) takePrimStats() integrals.PrimStats {
	var st integrals.PrimStats
	for i := range pl.slots {
		st.Add(pl.slots[i].sc.TakePrimStats())
	}
	return st
}

// runTask executes one task in slot s: loops its quartets, applies the
// quartet-level screen with an early exit over the Q-sorted ket range,
// fetches or evaluates surviving blocks (semi-direct replay when cached),
// and digests them into the slot's J/K accumulators. The loop's counts are
// kept locally and published once per task.
func (pl *pool) runTask(ti int, s *slot) {
	t := &pl.tasks[ti]
	set := pl.eng.Basis
	bra := pl.scr.Pairs[t.Bra]
	pl.braRows(bra, s.rowP)
	var slots []int32
	var shard *cacheShard
	if pl.cache != nil {
		slots = pl.cache.taskSlots[ti]
		shard = &pl.cache.shards[pl.cache.taskShard[ti]]
	}
	var computed, screened, hits, fills, fillBytes int64
	for ji := t.KetLo; ji < t.KetHi; ji++ {
		ket := pl.scr.Pairs[ji]
		if ok, rest := pl.screenQuartet(bra, ket, ji, s.rowP); !ok {
			if rest {
				screened += int64(t.KetHi - ji)
				break
			}
			screened++
			continue
		}
		computed++
		a, b, c, d := bra.A, bra.B, ket.A, ket.B
		var blk []float64
		if shard != nil && slots[ji-t.KetLo] >= 0 {
			slot := slots[ji-t.KetLo]
			blk = shard.slab[shard.offs[slot]:][:shard.lens[slot]]
			if shard.filled[slot] {
				hits++
				digest(set, a, b, c, d, blk, pl.p, s.j, s.k)
				continue
			}
			// Fill on first compute: evaluate straight into the slab so
			// the digestion below reads the cached copy.
			shard.filled[slot] = true
			fills++
			fillBytes += int64(len(blk)) * 8
		} else {
			blk = s.eri[:eriBlockLen(set, a, b, c, d)]
		}
		nprim := set.Shells[a].NPrims() * set.Shells[b].NPrims() * set.Shells[c].NPrims() * set.Shells[d].NPrims()
		pl.eng.ERIShellCut(a, b, c, d, blk, primCut(pl.scr.Opts.Threshold, nprim), pl.opts.Vector, pl.stats, s.sc)
		digest(set, a, b, c, d, blk, pl.p, s.j, s.k)
	}
	pl.computed.Add(computed)
	pl.screened.Add(screened)
	if shard != nil { // every quartet the task computed was a hit or a miss
		pl.cacheHits.Add(hits)
		pl.cacheMisses.Add(computed - hits)
		pl.cache.filled.Add(fills)
		pl.cacheFillBytes.Add(fillBytes)
	}
}

// digest adds the evaluated canonical block (ab|cd) to the accumulators jw
// and kw in one pass: per integral v = (μν|λσ), with μ∈a, ν∈b, λ∈c, σ∈d,
//
//	J'[μν] += w_J·P[λσ]·v   J'[λσ] += w_J·P[μν]·v
//	K'[μλ] += w_K·P[νσ]·v   K'[νλ] += w_K·P[μσ]·v
//	K'[μσ] += w_K·P[νλ]·v   K'[νσ] += w_K·P[μλ]·v
//
// and the leaf that owns the accumulators symmetrizes them once per build,
// J = (J' + J'ᵀ)/2 and K likewise (linalg.Matrix.Symmetrize), which supplies
// the transposed images: for symmetric P, J[νμ] and K[λμ] take the same
// terms as J[μν] and K[μλ]. The weights count images, doubled for the
// halving. For four distinct shells two of the eight permutation images add
// P[λσ]·v to J[μν] and one adds P[νσ]·v to K[μλ], so w_J = 4 and w_K = 2.
// Coinciding shells leave s = 2^([a≠b]+[c≠d]+[(ab)≠(cd)]) distinct images,
// and the block then holds every ordering of the coinciding functions, so
// w_J = s/2 and w_K = s/4: powers of two, which makes the halving exact.
// The P[λσ]·v, P[νσ]·v and P[μσ]·v sums run in registers over the block's
// contiguous σ rows; the other three are row updates.
func digest(set *basis.Set, a, b, c, d int, blk []float64, p, jw, kw *linalg.Matrix) {
	s := 1.0
	if a != b {
		s *= 2
	}
	if c != d {
		s *= 2
	}
	if a != c || b != d {
		s *= 2
	}
	wj, wk := s/2, s/4
	sa, sb, sc, sd := &set.Shells[a], &set.Shells[b], &set.Shells[c], &set.Shells[d]
	ia, ib, ic, id := sa.Index, sb.Index, sc.Index, sd.Index
	na, nb, nc, nd := sa.NFuncs(), sb.NFuncs(), sc.NFuncs(), sd.NFuncs()
	n := p.Cols
	pd, jd, kd := p.Data, jw.Data, kw.Data
	if len(blk) == 1 {
		// (ss|ss): the loop nest below for its one integral, same order.
		x := blk[0]
		mu, nu, la := ia*n, ib*n, ic*n
		jd[la+id] += wj * pd[mu+ib] * x
		kd[mu+id] += wk * pd[nu+ic] * x
		kd[nu+id] += wk * pd[mu+ic] * x
		kd[mu+ic] += wk * (pd[nu+id] * x)
		kd[nu+ic] += wk * (pd[mu+id] * x)
		jd[mu+ib] += wj * (pd[la+id] * x)
		return
	}
	v := 0
	for fa := 0; fa < na; fa++ {
		mu := (ia + fa) * n
		pmu := pd[mu : mu+n]
		pmuD := pmu[id:][:nd]
		kmuC, kmuD := kd[mu+ic:][:nc], kd[mu+id:][:nd]
		for fb := 0; fb < nb; fb++ {
			nu := (ib + fb) * n
			pnu := pd[nu : nu+n]
			pnuD := pnu[id:][:nd]
			knuC, knuD := kd[nu+ic:][:nc], kd[nu+id:][:nd]
			pmn := wj * pmu[ib+fb]
			var jmn float64
			for fc := 0; fc < nc; fc++ {
				la := (ic + fc) * n
				plaD := pd[la+id:][:nd]
				jlaD := jd[la+id:][:nd]
				pml, pnl := wk*pmu[ic+fc], wk*pnu[ic+fc]
				var kml, knl float64
				row := blk[v:][:nd]
				v += nd
				for fd, x := range row {
					jmn += plaD[fd] * x
					jlaD[fd] += pmn * x
					kml += pnuD[fd] * x
					knl += pmuD[fd] * x
					kmuD[fd] += pnl * x
					knuD[fd] += pml * x
				}
				kmuC[fc] += wk * kml
				knuC[fc] += wk * knl
			}
			jd[mu+ib+fb] += wj * jmn
		}
	}
}

// ExchangeEnergy returns the exchange energy contribution for a
// closed-shell density: E_K = −¼ Σ_{μν} P[μν]·K[μν].
func ExchangeEnergy(p, k *linalg.Matrix) float64 {
	return -0.25 * linalg.TraceMul(p, k)
}

// CoulombEnergy returns E_J = ½ Σ P∘J.
func CoulombEnergy(p, j *linalg.Matrix) float64 {
	return 0.5 * linalg.TraceMul(p, j)
}

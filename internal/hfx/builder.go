package hfx

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/qpx"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/torus"
	"hfxmd/internal/trace"
)

// Options configures a Builder.
type Options struct {
	// Threads is the number of executors ("hardware threads" in the
	// paper's terms) of a single-rank Builder. Zero means GOMAXPROCS.
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

// Report describes one Fock build, whatever its placement. Its slices are
// owned by the builder and, like J and K, valid until the next build.
type Report struct {
	// The placement: Ranks×ThreadsPerRank executors over Units =
	// Ranks×ThreadsPerRank×UnitsPerThread slots.
	Ranks, ThreadsPerRank, UnitsPerThread int
	Schedule                              mprt.Schedule
	Shape                                 torus.Shape

	NTasks           int
	Units            int
	QuartetsComputed int64
	QuartetsScreened int64
	// Prim counts the primitive quartets behind the shell quartets this
	// build evaluated: a surviving shell quartet drops the primitive
	// quartets whose Schwarz bound q_i·q_j is below ε over its primitive
	// count (see primCut), and Prim.TailBound — Σ q_i·q_j over what was
	// dropped — is the screening error bound of the blocks evaluated here.
	// Blocks replayed from the ERI cache were accounted by the build that
	// filled them.
	Prim            integrals.PrimStats
	Wall            time.Duration
	LaneUtilization float64 // 0 when Vector is off
	ScreeningStats  screen.Stats
	TaskCostStats   sched.CostStats

	// BalanceRatio (max/mean) and TheoreticalEff describe the static
	// schedule over the slots.
	BalanceRatio   float64
	TheoreticalEff float64
	// RankLoads is the per-rank cost under the placement model the
	// balancer saw; BalanceRatioPredicted is max/mean of those loads and
	// BalanceRatioMeasured max/mean of the unit walls each rank executed
	// (straggler delays included), so mispredict damage shows as the two
	// diverging — and stealing as it pulling the measured ratio back.
	RankLoads             []float64
	BalanceRatioPredicted float64
	BalanceRatioMeasured  float64
	// RankCompute is each rank's compute-phase wall, RankComm its wall in
	// the cross-rank reduction (zero on one rank).
	RankCompute []time.Duration
	RankComm    []time.Duration

	// Cross-rank traffic of this build: bytes, messages, torus hops, and
	// the reduce-scatter + allgather schedule steps measured against the
	// analytic count for the shape and schedule (3·L+1 for L tree levels),
	// the quantity the bgq machine model prices. Zero on one rank.
	CommBytes, Sends, Hops int64
	MeasuredSteps          int64
	PredictedSteps         int

	// RankRestarts counts ranks that died (fault injection) during the
	// compute phase and had their units re-executed.
	RankRestarts int

	// Steal traffic: units that ran away from their home rank, and the
	// wall the thieves spent computing them (straggler delays excluded).
	StealsSucceeded int64
	BlocksMigrated  int64
	IdleReclaimed   time.Duration

	// Timings charges wall-clock to the per-build phases ("zero",
	// "compute", "reduce"); the timer is reset at the start of every
	// BuildJK. Metrics is the builder's lifetime registry: buffer
	// allocation counts and bytes, build and reuse counts, cumulative
	// zeroing time, the screening wall, and the mprt and steal counters.
	Timings *trace.Timer
	Metrics *trace.Registry
	// Pool summarises the builder's persistent state.
	Pool PoolStats
	// Cache summarises the semi-direct ERI block cache for this build.
	// Cache.Enabled is false for fully direct builders.
	Cache CacheStats
}

// PoolStats describes the persistent state behind a Builder.
type PoolStats struct {
	// Workers is the number of persistent executors.
	Workers int
	// BuffersAllocated counts the long-lived buffers the builder owns
	// (per-slot J/K accumulators, per-executor ERI blocks and cache
	// shards), all allocated once at construction.
	BuffersAllocated int64
	// BufferBytes is the total size of those buffers.
	BufferBytes int64
	// Builds is the number of BuildJK calls served so far.
	Builds int64
	// ReuseHits counts builds that reused the buffers (every build after
	// the first).
	ReuseHits int64
	// ZeroTime is the cumulative CPU time spent zeroing accumulators
	// across all builds (summed over executors).
	ZeroTime time.Duration
	// CacheSlabBytes is the payload capacity of the semi-direct ERI cache
	// slabs (0 when the cache is disabled). Included in BufferBytes.
	CacheSlabBytes int64
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("tasks=%d quartets=%d screened=%d prims=%d prim-skip=%.3f prim-tail=%.2e balance=%.4f wall=%v lanes=%.2f placement=%dx%dx%d",
		r.NTasks, r.QuartetsComputed, r.QuartetsScreened, r.Prim.Evaluated, r.Prim.SkipRatio(), r.Prim.TailBound,
		r.BalanceRatio, r.Wall, r.LaneUtilization, r.Ranks, r.ThreadsPerRank, r.UnitsPerThread)
}

// PhaseTable renders a per-phase accounting table: the wall-clock phases
// of the build followed by the builder's lifetime counters.
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
// Builder is the one execution core behind every placement (see
// Placement): S slots — the leaves of the reduction tree, each owning
// only its accumulators — executed by R×T persistent executors, each
// owning its ERI buffer, kernel scratch and density row, and combined by
// one canonical pairwise tree over slot indices. NewBuilder is one rank
// of Threads executors over Threads slots; NewDistBuilder and
// NewStealBuilder place the same core over mprt ranks. Everything a build
// touches is allocated at construction and reused (zeroed, not
// reallocated), so a steady-state single-rank build performs no heap
// allocation and spawns no goroutine. Call Close when done to stop the
// executors; a finalizer stops them if the builder is garbage-collected
// without Close.
type Builder struct {
	Eng  *integrals.Engine
	Scr  *screen.Result
	Opts Options

	pl        *pool
	closeOnce sync.Once
}

// pool holds everything the executors touch. The executors reference the
// pool, not the Builder, so an abandoned Builder can still be collected
// and its finalizer can shut them down.
type pool struct {
	eng       *integrals.Engine
	scr       *screen.Result
	opts      Options
	pm        Placement
	tasks     []Task
	costs     []float64
	classes   []int // per-task work class; set when a noise plan distorts the placement
	costStats sched.CostStats

	// The placement: the static schedule over the slots under the
	// placement model, the steal plan and deques over it, and the per-rank
	// predicted loads.
	asn       *sched.Assignment
	plan      *steal.Plan
	deques    *steal.Deques
	rankLoads []float64

	slots []slot
	execs []executor
	reg   *trace.Registry
	cache *eriCache // nil when Options.CacheBudgetBytes admitted nothing

	// The cross-rank reduction (nil world on one rank): fused-vector
	// segment counts, per-rank staging of the J and K triangles, and the
	// assembled result.
	world      *mprt.World
	counts     []int
	fused      [][]float64
	jOut, kOut *linalg.Matrix

	// Per-build state, written by the coordinator before the executors
	// are woken (the wake-channel send establishes the happens-before edge).
	p        *linalg.Matrix
	pmaxAll  float64    // max |P| over the whole density (density-weighted runs)
	pmaxBlk  []float64  // max |P| over shell block (s1, s2), at s1·NShells+s2 (likewise)
	pairP    []float64  // pmaxBlk of every screened pair, by pair index (likewise)
	stats    *qpx.Stats // points at qstats when Vector, else nil
	qstats   qpx.Stats
	phase    int
	aX       float64   // exchange fraction of the gradient phase
	dead     int       // rank the fault plan kills in this build, or -1
	t0       time.Time // start of the executor phase
	computed atomic.Int64
	screened atomic.Int64

	// Per-build cache traffic, folded into the ericache.* counters and
	// Report.Cache at the end of BuildJK.
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheFillBytes atomic.Int64

	// Per-rank walls and executed load of the last build (Report slices).
	rankCompute, rankComm []time.Duration
	rankBusy              []float64

	done sync.WaitGroup
	quit chan struct{}
}

// slot is one leaf of the reduction tree: the accumulators the tasks of
// one steal unit write, wherever the unit runs.
type slot struct {
	j, k *linalg.Matrix
	g    []float64 // 3·NAtoms gradient accumulator, allocated by the first Gradient
	prim integrals.PrimStats
}

// executor is one persistent worker goroutine of a rank, with the scratch
// a task running on it uses: an ERI block buffer, the kernel scratch, the
// density-weighted screen's row of block maxima (see braRows) and, once a
// gradient ran, one derivative block and the quartet's two-particle
// density in both layouts.
type executor struct {
	rank      int
	wake      chan struct{}
	eri       []float64
	sc        *integrals.Scratch
	rowP      []float64 // NShells floats; density-weighted builders only
	dblk, gam []float64

	// Written by the executor during a phase, read after it joined.
	busy, reclaimed time.Duration // executed unit walls, and the stolen share
	end             time.Duration // offset of the executor's last unit from the phase start
}

const (
	phaseCompute = iota
	phaseGradient
)

// NewBuilder prepares the task decomposition, allocates the per-slot and
// per-executor buffers and starts Threads persistent executors on one
// rank.
func NewBuilder(eng *integrals.Engine, scr *screen.Result, opts Options) *Builder {
	return NewPricedBuilder(eng, scr, opts, nil)
}

// NewPricedBuilder is NewBuilder on a task list its caller already priced
// as BuilderTasks(eng, scr, opts.Cost, opts.Granule) — an admission's —
// so that a served job is priced once; nil tasks are priced here.
func NewPricedBuilder(eng *integrals.Engine, scr *screen.Result, opts Options, tasks []Task) *Builder {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	return newBuilder(eng, scr, Placement{Ranks: 1, ThreadsPerRank: opts.Threads, UnitsPerThread: 1, Opts: opts}, nil, tasks)
}

// newBuilder builds the core for a normalized placement; world is the
// mprt world of a multi-rank placement (nil on one rank) and tasks the
// priced decomposition (nil: price it here).
func newBuilder(eng *integrals.Engine, scr *screen.Result, pm Placement, world *mprt.World, tasks []Task) *Builder {
	opts := pm.Opts
	if world == nil {
		pm.Shape, _ = torus.ShapeForNodes(1)
	}
	if opts.Cost == (CostModel{}) {
		opts.Cost = DefaultCostModel()
	}
	pl := &pool{eng: eng, scr: scr, opts: opts, pm: pm, world: world, dead: -1, quit: make(chan struct{})}
	if world != nil {
		pl.reg = world.Registry()
	} else {
		pl.reg = trace.NewRegistry()
	}
	if pl.tasks = tasks; tasks == nil {
		pl.tasks = BuilderTasks(eng, scr, opts.Cost, opts.Granule)
	}
	pl.costs = TaskCosts(pl.tasks)
	pl.costStats = sched.Summarize(pl.costs)
	if pm.Noise != nil {
		pl.classes = TaskClasses(eng.Basis, scr.Pairs, pl.tasks)
	}
	R, T := pm.Ranks, pm.ThreadsPerRank
	pl.slots = make([]slot, R*T*pm.UnitsPerThread)
	pl.place()

	n, ns := eng.Basis.NBasis, eng.Basis.NShells()
	for i := range pl.slots {
		pl.slots[i].j, pl.slots[i].k = linalg.NewSquare(n), linalg.NewSquare(n)
	}
	buflen := eng.MaxERIBufLen()
	pl.execs = make([]executor, R*T)
	for i := range pl.execs {
		x := &pl.execs[i]
		x.rank, x.wake = i/T, make(chan struct{}, 1)
		x.eri = make([]float64, buflen)
		x.sc = integrals.NewScratch()
		if opts.DensityWeighted {
			x.rowP = make([]float64, ns)
		}
	}
	if opts.Vector {
		pl.stats = &pl.qstats
	}
	if opts.DensityWeighted {
		pl.pmaxBlk = make([]float64, ns*ns)
		pl.pairP = make([]float64, len(scr.Pairs))
	}
	if opts.CacheBudgetBytes > 0 {
		pl.cache = newERICache(eng.Basis, scr.Pairs, pl.tasks, pl.asn,
			newBuilderPricer(opts.Cost, eng, scr), opts.CacheBudgetBytes)
	}
	pl.rankCompute, pl.rankComm, pl.rankBusy = make([]time.Duration, R), make([]time.Duration, R), make([]float64, R)
	if world != nil {
		pl.counts, pl.fused = newFusedJK(R, n)
		pl.jOut, pl.kOut = linalg.NewSquare(n), linalg.NewSquare(n)
	}

	// Pre-create every counter the hot path touches so steady-state
	// lookups never insert into the registry map.
	pl.reg.Counter("pool.buffers_alloc").Add(int64(2*len(pl.slots) + len(pl.execs)))
	pl.reg.Counter("pool.buffer_bytes").Add(int64(2*len(pl.slots)*n*n+len(pl.execs)*buflen) * 8)
	for _, c := range []string{"pool.builds", "pool.reuse_hits", "pool.zero_ns", "mprt.rank_restarts"} {
		pl.reg.Counter(c)
	}
	pl.reg.Counter("screen.wall_ns").Add(scr.Stats.Wall().Nanoseconds())
	if pl.cache != nil {
		pl.reg.Counter("pool.buffers_alloc").Add(int64(len(pl.cache.shards)))
		pl.reg.Counter("pool.buffer_bytes").Add(pl.cache.slabBytes())
		for _, c := range []string{"ericache.hits", "ericache.misses", "ericache.bytes", "ericache.evictions"} {
			pl.reg.Counter(c)
		}
		pl.reg.Counter("ericache.admitted").Add(pl.cache.admitted)
	}

	for i := range pl.execs {
		go pl.worker(&pl.execs[i])
	}
	b := &Builder{Eng: eng, Scr: scr, Opts: opts, pl: pl}
	runtime.SetFinalizer(b, (*Builder).Close)
	return b
}

// Close stops the executors (and releases the mprt world). It is
// idempotent and must not be called concurrently with BuildJK. A finalizer
// calls Close if the builder is collected without it, so forgetting Close
// leaks nothing permanently — but calling it promptly releases the
// goroutines sooner.
func (b *Builder) Close() {
	b.closeOnce.Do(func() {
		close(b.pl.quit)
		if b.pl.world != nil {
			b.pl.world.Close()
		}
	})
	runtime.SetFinalizer(b, nil)
}

// Tasks exposes the generated task list (read-only) for the machine
// simulator.
func (b *Builder) Tasks() []Task { return b.pl.tasks }

// worker is the persistent loop of one executor: it sleeps on its wake
// channel, executes the phase the coordinator selected, and signals
// completion through the pool WaitGroup.
func (pl *pool) worker(x *executor) {
	for {
		select {
		case <-pl.quit:
			return
		case <-x.wake:
		}
		x.busy, x.reclaimed = 0, 0
		if x.rank != pl.dead {
			for {
				u, stolen := pl.deques.PopOwn(x.rank), false
				if u < 0 && pl.pm.Steal {
					u, stolen = pl.deques.Steal(x.rank), true
				}
				if u < 0 {
					break
				}
				pl.runUnit(x, u, stolen)
			}
		}
		x.end = time.Since(pl.t0)
		pl.done.Done()
	}
}

// run executes one phase: every unit once, each rank's executors draining
// its deque front-first (most expensive own unit next) and, with stealing
// on, then taking the cheapest outstanding unit of the first non-empty
// victim in their seeded probe order. A rank the fault plan killed runs
// nothing; its units stay queued and are re-executed here once the others
// joined — the static plan makes the re-executed partials bitwise
// identical to the originals.
func (pl *pool) run(phase int) {
	pl.phase = phase
	pl.deques.Reset()
	pl.t0 = time.Now()
	pl.done.Add(len(pl.execs))
	for i := range pl.execs {
		pl.execs[i].wake <- struct{}{}
	}
	pl.done.Wait()
	if r := pl.dead; r >= 0 {
		x := &pl.execs[r*pl.pm.ThreadsPerRank]
		for u := pl.deques.PopOwn(r); u >= 0; u = pl.deques.PopOwn(r) {
			pl.runUnit(x, u, false)
		}
		x.end = time.Since(pl.t0)
		pl.reg.Counter("mprt.rank_restarts").Add(1)
	}
}

// runUnit executes unit u's tasks in order on executor x into slot u: the
// slot is zeroed first and, in a J/K build, symmetrized after the last
// task (see digest). Where a unit runs therefore moves wall-clock, never
// bits.
func (pl *pool) runUnit(x *executor, u int, stolen bool) {
	s := &pl.slots[u]
	t0 := time.Now()
	jk := pl.phase == phaseCompute
	if jk {
		s.j.Zero()
		s.k.Zero()
		dz := time.Since(t0)
		pl.reg.Counter("pool.zero_ns").Add(dz.Nanoseconds())
		pl.reg.Timer.Charge("zero", dz)
	} else {
		clear(s.g)
	}
	for _, ti := range pl.plan.Units[u].Tasks {
		pl.runTask(ti, x, s)
	}
	if jk {
		s.j.Symmetrize()
		s.k.Symmetrize()
	}
	s.prim = x.sc.TakePrimStats()
	wall := time.Since(t0)
	if stolen {
		x.reclaimed += wall
	}
	if d := pl.pm.Noise.StragglerDelay(x.rank, wall); d > 0 {
		time.Sleep(d)
		wall += d
	}
	x.busy += wall
	if pl.pm.Steal {
		// Yield between units so executors interleave even on a single
		// hardware thread: otherwise one rank can drain every deque before
		// the others are scheduled at all.
		runtime.Gosched()
	}
}

// reduce folds slots into slots[0] along the canonical pairwise tree: at
// stride s = 1, 2, 4, … slot w absorbs slot w+s when w is a multiple of
// 2s. Applied to a power-of-two aligned block of the slots it runs exactly
// the global tree's strides below the block size, which is what lets the
// rank-local trees compose with the cross-rank reduction.
func (pl *pool) reduce(slots []slot) {
	for s := 1; s < len(slots); s *= 2 {
		for w := 0; w+s < len(slots); w += 2 * s {
			dst, src := &slots[w], &slots[w+s]
			if pl.phase == phaseGradient {
				for i, v := range src.g {
					dst.g[i] += v
				}
				continue
			}
			dst.j.AXPY(1, src.j)
			dst.k.AXPY(1, src.k)
		}
	}
}

// BuildJK computes the Coulomb and exchange matrices for density P:
//
//	J[μν] = Σ_{λσ} P[λσ] (μν|λσ),   K[μν] = Σ_{λσ} P[λσ] (μλ|νσ).
//
// Both are assembled in one pass over the screened canonical quartets.
// P must be symmetric (every density is): the pass digests half of each
// quartet's images and symmetrizes the rest in (see digest), so J and K
// come back exactly symmetric. The bits depend on the slot count and the
// placement model, never on which executor or rank ran a unit.
//
// The returned matrices alias the builder's persistent accumulators: they
// are valid until the next BuildJK on this builder, which overwrites
// them. Callers that need both an old and a new result simultaneously
// must copy (linalg.Matrix.Clone or CopyFrom) before rebuilding.
func (b *Builder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep Report) {
	pl := b.pl
	start := time.Now()
	pl.reg.Timer.Reset()
	builds := pl.reg.Counter("pool.builds")
	builds.Add(1)
	if builds.Value() > 1 {
		pl.reg.Counter("pool.reuse_hits").Add(1)
	}
	if fp := pl.pm.FaultPlan; fp != nil && int64(fp.Build) == builds.Value() {
		pl.dead = fp.Rank
	}
	pl.computed.Store(0)
	pl.screened.Store(0)
	pl.qstats.Reset()
	pl.cacheHits.Store(0)
	pl.cacheMisses.Store(0)
	pl.cacheFillBytes.Store(0)
	pl.setDensity(p)
	comm0 := pl.commTotals()

	t0 := time.Now()
	pl.run(phaseCompute)
	pl.reg.Timer.Charge("compute", time.Since(t0))
	t0 = time.Now()
	if pl.world == nil {
		pl.reduce(pl.slots)
		j, k = pl.slots[0].j, pl.slots[0].k
	} else {
		j, k = pl.reduceRanks()
	}
	pl.reg.Timer.Charge("reduce", time.Since(t0))
	pl.p = nil

	rep = pl.report(start, comm0)
	pl.dead = -1
	// Keep the builder (and thus its finalizer) from being collected
	// while a build is mid-flight on the executors it owns.
	runtime.KeepAlive(b)
	return j, k, rep
}

// setDensity points the executors at density P and refreshes the density
// bounds of the density-weighted screen.
func (pl *pool) setDensity(p *linalg.Matrix) {
	n := pl.eng.Basis.NBasis
	if p.Rows != n || p.Cols != n {
		panic("hfx: density dimension mismatch")
	}
	pl.p = p
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

// report assembles the Report for the build that just ran.
func (pl *pool) report(start time.Time, comm0 [5]int64) Report {
	reg := pl.reg
	rep := Report{
		Ranks: pl.pm.Ranks, ThreadsPerRank: pl.pm.ThreadsPerRank, UnitsPerThread: pl.pm.UnitsPerThread,
		Schedule: pl.pm.Schedule, Shape: pl.pm.Shape,
		NTasks:                len(pl.tasks),
		Units:                 len(pl.slots),
		QuartetsComputed:      pl.computed.Load(),
		QuartetsScreened:      pl.screened.Load(),
		ScreeningStats:        pl.scr.Stats,
		TaskCostStats:         pl.costStats,
		BalanceRatio:          pl.asn.BalanceRatio(),
		TheoreticalEff:        pl.asn.TheoreticalEfficiency(),
		RankLoads:             pl.rankLoads,
		BalanceRatioPredicted: maxMeanRatio(pl.rankLoads),
		RankCompute:           pl.rankCompute,
		RankComm:              pl.rankComm,
		BlocksMigrated:        int64(pl.deques.Migrated()),
		Timings:               reg.Timer,
		Metrics:               reg,
		Pool: PoolStats{
			Workers:          len(pl.execs),
			BuffersAllocated: reg.Counter("pool.buffers_alloc").Value(),
			BufferBytes:      reg.Counter("pool.buffer_bytes").Value(),
			Builds:           reg.Counter("pool.builds").Value(),
			ReuseHits:        reg.Counter("pool.reuse_hits").Value(),
			ZeroTime:         time.Duration(reg.Counter("pool.zero_ns").Value()),
		},
	}
	rep.StealsSucceeded = rep.BlocksMigrated
	if pl.dead >= 0 {
		rep.RankRestarts = 1
	}
	for i := range pl.slots {
		rep.Prim.Add(pl.slots[i].prim)
	}
	clear(pl.rankCompute)
	clear(pl.rankBusy)
	for i := range pl.execs {
		x := &pl.execs[i]
		pl.rankCompute[x.rank] = max(pl.rankCompute[x.rank], x.end)
		pl.rankBusy[x.rank] += float64(x.busy)
		rep.IdleReclaimed += x.reclaimed
	}
	rep.BalanceRatioMeasured = maxMeanRatio(pl.rankBusy)
	reg.Counter(steal.CounterReclaimedNS).Add(rep.IdleReclaimed.Nanoseconds())
	if pl.world != nil {
		d := pl.commTotals()
		rep.CommBytes, rep.Sends, rep.Hops = d[0]-comm0[0], d[1]-comm0[1], d[2]-comm0[2]
		rep.MeasuredSteps = d[3] + d[4] - comm0[3] - comm0[4]
		rep.PredictedSteps = 3*pl.world.PredictedReduceSteps() + 1
	}
	if pl.opts.Vector {
		rep.LaneUtilization = pl.qstats.Utilization()
	}
	rep.Cache.BudgetBytes = pl.opts.CacheBudgetBytes
	if pl.cache != nil {
		reg.Counter("ericache.hits").Add(pl.cacheHits.Load())
		reg.Counter("ericache.misses").Add(pl.cacheMisses.Load())
		reg.Counter("ericache.bytes").Add(pl.cacheFillBytes.Load())
		rep.Cache.Enabled = true
		rep.Cache.UsedBytes = pl.cache.usedBytes
		rep.Cache.AdmittedQuartets = pl.cache.admitted
		rep.Cache.ResidentBlocks = pl.cache.filled.Load()
		rep.Cache.Hits = pl.cacheHits.Load()
		rep.Cache.Misses = pl.cacheMisses.Load()
		rep.Cache.Evictions = pl.cache.evictions.Load()
		rep.Pool.CacheSlabBytes = pl.cache.slabBytes()
	}
	rep.Wall = time.Since(start)
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

// runTask executes one task on executor x into slot s: it loops the task's
// quartets, applies the quartet-level screen with an early exit over the
// Q-sorted ket range, and hands every surviving quartet to the phase — in
// a J/K build it fetches or evaluates the block (semi-direct replay when
// cached) and digests it into the slot's J/K, in the gradient phase it
// contracts the quartet's derivative blocks into the slot's gradient. The
// loop's counts are kept locally and published once per task.
func (pl *pool) runTask(ti int, x *executor, s *slot) {
	t := &pl.tasks[ti]
	set := pl.eng.Basis
	bra := pl.scr.Pairs[t.Bra]
	pl.braRows(bra, x.rowP)
	var entries []int32
	var shard *cacheShard
	if pl.cache != nil && pl.phase == phaseCompute {
		entries = pl.cache.taskSlots[ti]
		shard = &pl.cache.shards[pl.cache.taskShard[ti]]
	}
	var computed, screened, hits, fills, fillBytes int64
	for ji := t.KetLo; ji < t.KetHi; ji++ {
		ket := pl.scr.Pairs[ji]
		if ok, rest := pl.screenQuartet(bra, ket, ji, x.rowP); !ok {
			if rest {
				screened += int64(t.KetHi - ji)
				break
			}
			screened++
			continue
		}
		computed++
		a, b, c, d := bra.A, bra.B, ket.A, ket.B
		if pl.phase == phaseGradient {
			pl.gradQuartet(x, s.g, a, b, c, d)
			continue
		}
		var blk []float64
		if shard != nil && entries[ji-t.KetLo] >= 0 {
			e := entries[ji-t.KetLo]
			blk = shard.slab[shard.offs[e]:][:shard.lens[e]]
			if shard.filled[e] {
				hits++
				digest(set, a, b, c, d, blk, pl.p, s.j, s.k)
				continue
			}
			// Fill on first compute: evaluate straight into the slab so
			// the digestion below reads the cached copy.
			shard.filled[e] = true
			fills++
			fillBytes += int64(len(blk)) * 8
		} else {
			blk = x.eri[:eriBlockLen(set, a, b, c, d)]
		}
		nprim := set.Shells[a].NPrims() * set.Shells[b].NPrims() * set.Shells[c].NPrims() * set.Shells[d].NPrims()
		pl.eng.ERIShellCut(a, b, c, d, blk, primCut(pl.scr.Opts.Threshold, nprim), pl.opts.Vector, pl.stats, x.sc)
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

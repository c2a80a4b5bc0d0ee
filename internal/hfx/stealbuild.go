package hfx

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/torus"
	"hfxmd/internal/trace"
)

// StealOptions configures a distributed Fock build with deterministic
// work stealing (see StealBuilder).
type StealOptions struct {
	// Ranks is the number of mprt ranks (required, ≥ 1).
	Ranks int
	// ThreadsPerRank is the number of concurrent executors per rank
	// (power of two, default 1).
	ThreadsPerRank int
	// UnitsPerThread is the over-decomposition factor: the global
	// schedule is balanced over Ranks×ThreadsPerRank×UnitsPerThread
	// virtual slots, each one steal unit (power of two, default 4).
	// More units mean finer-grained stealing at slightly worse static
	// balance per unit.
	UnitsPerThread int
	// Schedule selects the mprt collective schedule.
	Schedule mprt.Schedule
	// Shape optionally fixes the torus embedding.
	Shape torus.Shape
	// Opts is the per-rank build configuration. Threads is ignored,
	// Dynamic is rejected and the semi-direct ERI cache is disabled, as
	// in DistOptions. Opts.Calibrator is overridden by the Calibrator
	// field below.
	Opts Options
	// Steal enables migration. Off, the builder runs the pure static
	// placement (every unit on its home rank) — the baseline arm of the
	// noise experiments, bitwise identical to the stealing run.
	Steal bool
	// Noise optionally injects cost-model mispredictions and stragglers
	// (see steal.NoisePlan). Noise distorts only the placement model and
	// wall-clock, never the arithmetic.
	Noise *steal.NoisePlan
	// Calibrator, when non-nil, observes every task's measured wall and
	// re-balances the placement before a build whenever its epoch moved —
	// the online feedback loop. Placement changes between builds change
	// the task→slot grouping and therefore the bits; within one placement
	// the bitwise contract holds.
	Calibrator *steal.Calibrator
	// Seed drives the rank-count-independent victim selection order.
	Seed uint64
}

// StealReport describes one work-stealing distributed build.
type StealReport struct {
	Ranks          int
	ThreadsPerRank int
	UnitsPerThread int
	Schedule       mprt.Schedule
	Shape          torus.Shape
	Wall           time.Duration

	// RankCompute is each rank's phase-1 wall; RankExecWall attributes
	// executed unit walls (plus straggler penalties) to the rank that
	// actually ran them — the measured-balance input.
	RankCompute  []time.Duration
	RankExecWall []time.Duration
	RankComm     []time.Duration
	RankBytes    []int64

	CommBytes      int64
	MeasuredSteps  int64
	PredictedSteps int

	NTasks           int
	Units            int
	QuartetsComputed int64
	QuartetsScreened int64
	// Prim is Report.Prim summed over the units, wherever they executed.
	Prim integrals.PrimStats

	// Steal traffic of this build (per-build deltas of the lifetime
	// steal.* counters).
	StealsAttempted int64
	StealsSucceeded int64
	BlocksMigrated  int64
	IdleReclaimed   time.Duration

	// BalanceRatioPredicted is max/mean of per-rank load under the
	// placement model the balancer saw (possibly noisy/calibrated);
	// BalanceRatioMeasured is max/mean of RankExecWall. Under mispredicts
	// the two diverge for the static run; stealing pulls the measured
	// ratio back down.
	BalanceRatioPredicted float64
	BalanceRatioMeasured  float64

	// Calibration state of this build (zero when no calibrator):
	// CalibMeanAbsErr is the mean |measured − calibrated prediction| /
	// calibrated prediction over this build's task observations (each
	// capped at 1, see steal.Calibrator);
	// CalibRawAbsErr is the same over the raw (factor-1) model. Jitter
	// hits both alike, so CalibMeanAbsErr < CalibRawAbsErr is the signal
	// that calibration is removing systematic model bias.
	CalibMeanAbsErr   float64
	CalibRawAbsErr    float64
	CalibObservations int64

	// Rebalanced reports whether this build recomputed the placement from
	// a moved calibrator epoch.
	Rebalanced bool

	// Metrics is the mprt world's registry; the steal.* counters are
	// recorded there too, so one registry carries the whole build.
	Metrics *trace.Registry
}

// String renders a one-line summary.
func (r StealReport) String() string {
	return fmt.Sprintf("ranks=%d threads/rank=%d units/thread=%d wall=%v migrated=%d balance_pred=%.4f balance_meas=%.4f",
		r.Ranks, r.ThreadsPerRank, r.UnitsPerThread, r.Wall, r.BlocksMigrated,
		r.BalanceRatioPredicted, r.BalanceRatioMeasured)
}

// StealBuilder executes the paper's work-stealing fallback on top of the
// static schedule: the task list is balanced over
// Ranks×ThreadsPerRank×UnitsPerThread virtual slots, each slot becomes a
// steal unit homed on a rank, and idle ranks migrate remote units at run
// time (victim order seeded and rank-count-independent). Determinism is
// structural: every unit accumulates into its own J/K buffers wherever
// it executes, migrated partials are returned to their home rank over
// mprt p2p in global unit order, and the combination always follows the
// canonical binary reduction tree over slot indices — the rank-local
// strides below ThreadsPerRank×UnitsPerThread merge in place, the mprt
// ReduceScatter+Allgatherv supplies the strides above. A stolen schedule
// is therefore bitwise identical to the purely static one, and both
// equal a single-rank Builder with Threads = total slots.
type StealBuilder struct {
	Eng *integrals.Engine
	Scr *screen.Result

	sopts StealOptions
	world *mprt.World
	pl    *pool // nw = total virtual slots; per-slot buffers are the unit accumulators

	plan   *steal.Plan
	deques *steal.Deques
	// placedEpoch is the calibrator epoch the current placement was
	// computed under.
	placedEpoch uint64

	counts []int
	fused  [][]float64
	jOut   *linalg.Matrix
	kOut   *linalg.Matrix

	closeOnce sync.Once
}

// NewStealBuilder prepares the over-decomposed schedule, the mprt world
// and the per-unit buffers.
func NewStealBuilder(eng *integrals.Engine, scr *screen.Result, sopts StealOptions) (*StealBuilder, error) {
	if sopts.Ranks < 1 {
		return nil, fmt.Errorf("hfx: need at least 1 rank, got %d", sopts.Ranks)
	}
	if sopts.ThreadsPerRank <= 0 {
		sopts.ThreadsPerRank = 1
	}
	if t := sopts.ThreadsPerRank; t&(t-1) != 0 {
		return nil, fmt.Errorf("hfx: threads per rank must be a power of two, got %d", t)
	}
	if sopts.UnitsPerThread <= 0 {
		sopts.UnitsPerThread = 4
	}
	if u := sopts.UnitsPerThread; u&(u-1) != 0 {
		return nil, fmt.Errorf("hfx: units per thread must be a power of two, got %d", u)
	}
	if sopts.Opts.Dynamic {
		return nil, fmt.Errorf("hfx: dynamic dispatch is incompatible with the steal builder's bitwise determinism contract")
	}
	opts := sopts.Opts
	opts.CacheBudgetBytes = 0 // per-builder structure keyed to the assignment; disabled
	opts.Calibrator = sopts.Calibrator
	if opts.Cost == (CostModel{}) {
		opts.Cost = DefaultCostModel()
	}
	sopts.Opts = opts

	world, err := mprt.NewWorld(mprt.Options{
		Ranks:    sopts.Ranks,
		Schedule: sopts.Schedule,
		Shape:    sopts.Shape,
	})
	if err != nil {
		return nil, err
	}
	sopts.Shape = world.Shape()

	tasks := BuilderTasks(eng, scr, opts.Cost, opts.Granule)
	costs := TaskCosts(tasks)

	b := &StealBuilder{Eng: eng, Scr: scr, sopts: sopts, world: world}
	slots := sopts.Ranks * sopts.ThreadsPerRank * sopts.UnitsPerThread
	asn, epoch := b.placement(eng.Basis, scr.Pairs, tasks, costs, slots)
	plan, err := steal.NewPlan(asn, sopts.Ranks, sopts.Seed)
	if err != nil {
		world.Close()
		return nil, err
	}
	b.plan = plan
	b.placedEpoch = epoch
	b.deques = steal.NewDeques(plan, world.Registry())
	// The pool contributes the per-slot buffers and the task runner; its
	// worker goroutines are never woken (the steal loop drives runTask
	// directly) but close() still releases them.
	b.pl = newPool(eng, scr, opts, tasks, costs, asn)

	n := eng.Basis.NBasis
	b.counts, b.fused = newFusedJK(sopts.Ranks, n)
	b.jOut = linalg.NewSquare(n)
	b.kOut = linalg.NewSquare(n)
	runtime.SetFinalizer(b, (*StealBuilder).Close)
	return b, nil
}

// placement computes the static assignment under the current placement
// model: raw costs sharpened by the calibrator, then distorted by the
// noise plan. Returns the assignment and the calibrator epoch it saw.
func (b *StealBuilder) placement(set *basis.Set, pairs []screen.Pair, tasks []Task,
	costs []float64, slots int) (*sched.Assignment, uint64) {
	var classes []int
	if b.sopts.Calibrator != nil || b.sopts.Noise != nil {
		classes = TaskClasses(set, pairs, tasks)
	}
	placed := b.sopts.Calibrator.Scale(classes, costs)
	placed = b.sopts.Noise.Perturb(placed, classes)
	return sched.Balance(b.sopts.Opts.Balancer, placed, slots), b.sopts.Calibrator.Epoch()
}

// Close stops the buffer pool's workers and the mprt world. Idempotent;
// a finalizer calls it if the builder is collected without Close.
func (b *StealBuilder) Close() {
	b.closeOnce.Do(func() {
		b.pl.close()
		b.world.Close()
	})
	runtime.SetFinalizer(b, nil)
}

// World exposes the underlying mprt world.
func (b *StealBuilder) World() *mprt.World { return b.world }

// Plan exposes the current steal plan (read-only; replaced when a moved
// calibrator epoch triggers a re-balance).
func (b *StealBuilder) Plan() *steal.Plan { return b.plan }

// BuildJK computes J and K for density P with work stealing. The
// returned matrices are owned by the builder and valid until the next
// BuildJK.
func (b *StealBuilder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep StealReport, err error) {
	R := b.sopts.Ranks
	T := b.sopts.ThreadsPerRank
	spr := T * b.sopts.UnitsPerThread // slots (units) per rank
	start := time.Now()
	reg := b.world.Registry()

	// Re-balance when calibration moved since the placement was computed.
	rebalanced := false
	if cal := b.sopts.Calibrator; cal != nil {
		if e := cal.Epoch(); e != b.placedEpoch {
			asn, epoch := b.placement(b.Eng.Basis, b.Scr.Pairs, b.pl.tasks, b.pl.costs, R*spr)
			plan, perr := steal.NewPlan(asn, R, b.sopts.Seed)
			if perr != nil {
				return nil, nil, rep, perr
			}
			b.plan = plan
			b.placedEpoch = epoch
			b.deques = steal.NewDeques(plan, reg)
			rebalanced = true
		}
	}

	rep = StealReport{
		Ranks:          R,
		ThreadsPerRank: T,
		UnitsPerThread: b.sopts.UnitsPerThread,
		Schedule:       b.sopts.Schedule,
		Shape:          b.sopts.Shape,
		RankCompute:    make([]time.Duration, R),
		RankExecWall:   make([]time.Duration, R),
		RankComm:       make([]time.Duration, R),
		RankBytes:      make([]int64, R),
		NTasks:         len(b.pl.tasks),
		Units:          len(b.plan.Units),
		Rebalanced:     rebalanced,
		Metrics:        reg,
	}

	attempted0 := reg.Counter(steal.CounterAttempted).Value()
	succeeded0 := reg.Counter(steal.CounterSucceeded).Value()
	migrated0 := reg.Counter(steal.CounterMigrated).Value()
	reclaimed0 := reg.Counter(steal.CounterReclaimedNS).Value()
	steps0 := reg.Counter("mprt.reducescatter.steps").Value() +
		reg.Counter("mprt.allgatherv.steps").Value()

	pl := b.pl
	pl.prepareBuild(p)
	b.sopts.Calibrator.BeginWindow()
	b.deques.Reset()
	execNS := make([]int64, R) // straggler-inclusive executed wall per rank
	var execMu sync.Mutex

	// Phase 1: compute. Each rank runs ThreadsPerRank executors draining
	// its own deque front-first (most expensive own unit next); when a
	// rank runs dry and stealing is on, it takes the cheapest outstanding
	// unit of the first non-empty victim in its seeded probe order. Every
	// unit executes sequentially into its own J/K buffers and symmetrizes
	// them after its last task, so migration changes wall-clock attribution
	// but never summation order.
	runErr := b.world.Run(func(c *mprt.Comm) error {
		r := c.Rank()
		t0 := time.Now()
		var wg sync.WaitGroup
		var localNS int64
		var localMu sync.Mutex
		for th := 0; th < T; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := b.deques.PopOwn(r)
					stolen := false
					if u < 0 && b.sopts.Steal {
						u = b.deques.Steal(r)
						stolen = true
					}
					if u < 0 {
						return
					}
					u0 := time.Now()
					s := &pl.slots[u]
					s.j.Zero()
					s.k.Zero()
					for _, ti := range b.plan.Units[u].Tasks {
						pl.runTaskObserved(ti, s)
					}
					s.j.Symmetrize()
					s.k.Symmetrize()
					wall := time.Since(u0)
					if stolen {
						reg.Counter(steal.CounterReclaimedNS).Add(wall.Nanoseconds())
					}
					if d := b.sopts.Noise.StragglerDelay(r, wall); d > 0 {
						time.Sleep(d)
						wall += d
					}
					localMu.Lock()
					localNS += wall.Nanoseconds()
					localMu.Unlock()
					// Yield between units so rank goroutines interleave even
					// on a single hardware thread: without this, one rank can
					// drain every deque before the others are scheduled at
					// all, which starves the run-time balance the stealing is
					// there to provide. Bits are unaffected (unit execution
					// order never changes summation order).
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		rep.RankCompute[r] = time.Since(t0)
		execMu.Lock()
		execNS[r] = localNS
		execMu.Unlock()
		return nil
	})
	if runErr != nil {
		return nil, nil, rep, runErr
	}

	// Phase 2: migrated unit partials return home over p2p in global
	// unit order (both sides walk the same ascending-slot sequence, so
	// the matched Send/Recv pairs cannot deadlock on the capacity-1
	// channels), then each rank merges its contiguous unit-buffer block
	// with the canonical strides below spr and enters the collective for
	// the strides above.
	runErr = b.world.Run(func(c *mprt.Comm) error {
		r := c.Rank()
		b0 := c.BytesSent()
		t0 := time.Now()
		for u := range b.plan.Units {
			ex, home := b.deques.Executor(u), b.plan.Units[u].Home
			if ex == home {
				continue
			}
			switch r {
			case ex:
				c.Send(home, 2*u, pl.slots[u].j.Data)
				c.Send(home, 2*u+1, pl.slots[u].k.Data)
			case home:
				// The received slices are the unit's own buffers (the world
				// is in-process and the executor was the sole writer), so
				// the transfer is zero-copy; bytes and hops are still
				// accounted as if the partials crossed the torus.
				c.Recv(ex, 2*u)
				c.Recv(ex, 2*u+1)
			}
		}

		// Rank-local canonical merge: strides 1..spr/2 over the rank's
		// contiguous block of unit buffers, exactly the bottom levels of
		// the global binary reduction tree (power-of-two alignment makes
		// the restriction exact).
		base := r * spr
		for stride := 1; stride < spr; stride *= 2 {
			for w := 0; w < spr; w += 2 * stride {
				if w+stride < spr {
					pl.slots[base+w].j.AXPY(1, pl.slots[base+w+stride].j)
					pl.slots[base+w].k.AXPY(1, pl.slots[base+w+stride].k)
				}
			}
		}
		packJK(b.fused[r], pl.slots[base].j, pl.slots[base].k)

		seg := c.ReduceScatter(b.fused[r], b.counts)
		full := c.Allgatherv(seg, b.counts)
		rep.RankComm[r] = time.Since(t0)
		rep.RankBytes[r] = c.BytesSent() - b0
		if r == 0 {
			unpackJK(b.jOut, b.kOut, full)
		}
		return nil
	})
	if runErr != nil {
		return nil, nil, rep, runErr
	}

	for r := 0; r < R; r++ {
		rep.CommBytes += rep.RankBytes[r]
		rep.RankExecWall[r] = time.Duration(execNS[r])
	}
	rep.QuartetsComputed = pl.computed.Load()
	rep.QuartetsScreened = pl.screened.Load()
	rep.Prim = pl.takePrimStats()
	rep.StealsAttempted = reg.Counter(steal.CounterAttempted).Value() - attempted0
	rep.StealsSucceeded = reg.Counter(steal.CounterSucceeded).Value() - succeeded0
	rep.BlocksMigrated = reg.Counter(steal.CounterMigrated).Value() - migrated0
	rep.IdleReclaimed = time.Duration(reg.Counter(steal.CounterReclaimedNS).Value() - reclaimed0)
	rep.MeasuredSteps = reg.Counter("mprt.reducescatter.steps").Value() +
		reg.Counter("mprt.allgatherv.steps").Value() - steps0
	L := b.world.PredictedReduceSteps()
	rep.PredictedSteps = 3*L + 1
	rep.BalanceRatioPredicted = maxMeanRatio(b.plan.PredLoads())
	measured := make([]float64, R)
	for r := range measured {
		measured[r] = float64(execNS[r])
	}
	rep.BalanceRatioMeasured = maxMeanRatio(measured)
	if cal := b.sopts.Calibrator; cal != nil {
		rep.CalibMeanAbsErr, rep.CalibRawAbsErr, _ = cal.WindowErr()
		rep.CalibObservations = cal.Observations()
	}
	rep.Wall = time.Since(start)
	runtime.KeepAlive(b)
	return b.jOut, b.kOut, rep, nil
}

// maxMeanRatio returns max/mean of v (1 when the sum is not positive).
func maxMeanRatio(v []float64) float64 {
	var max, sum float64
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum <= 0 {
		return 1
	}
	return max / (sum / float64(len(v)))
}

package hfx

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/torus"
	"hfxmd/internal/trace"

	"hfxmd/internal/integrals"
)

// DistOptions configures a rank-distributed Fock build.
type DistOptions struct {
	// Ranks is the number of mprt ranks (required, ≥ 1).
	Ranks int
	// ThreadsPerRank is each rank's persistent-pool size. It must be a
	// power of two (default 1): the global schedule is balanced over
	// Ranks×ThreadsPerRank worker slots, and power-of-two rank blocks are
	// what lets the rank-local reduction trees compose with the mprt
	// cross-rank tree into exactly the single-rank reduction order.
	ThreadsPerRank int
	// Schedule selects the mprt collective schedule.
	Schedule mprt.Schedule
	// Shape optionally fixes the torus embedding (zero value:
	// torus.ShapeForNodes(Ranks)).
	Shape torus.Shape
	// Opts is the per-rank build configuration. Threads is ignored
	// (ThreadsPerRank governs), Dynamic is rejected (racy task placement
	// would break the bitwise determinism contract), and the semi-direct
	// ERI cache is disabled (it is a per-builder structure keyed to the
	// global assignment).
	Opts Options
	// FaultPlan optionally kills one rank during one build's compute
	// phase, exercising the restart path (nil injects nothing).
	FaultPlan *RankFaultPlan
	// Noise optionally distorts the placement model (the costs the
	// static balancer sees) and slows a straggler rank — mispredict
	// injection for balance experiments. Arithmetic is never touched,
	// but a noisy placement groups tasks differently, so the bitwise pin
	// against the single-rank Builder holds only at zero noise.
	Noise *steal.NoisePlan
	// Calibrator, when non-nil, sharpens the placement costs with the
	// calibrator's per-class factors (as of construction time) and makes
	// every rank pool observe measured task walls into it.
	Calibrator *steal.Calibrator
}

// RankFaultPlan injects a rank death into a DistBuilder: on the Build-th
// BuildJK call (1-based; 0 disables) rank Rank dies before computing its
// task block. The builder re-executes the dead rank's block and re-forms
// the collective; results stay bitwise pinned to the fault-free build.
type RankFaultPlan struct {
	Rank  int
	Build int
}

// DistReport describes one distributed Fock build.
type DistReport struct {
	Ranks          int
	ThreadsPerRank int
	Schedule       mprt.Schedule
	Shape          torus.Shape
	Wall           time.Duration

	// Per-rank phase walls and communication traffic for this build.
	RankCompute []time.Duration
	RankComm    []time.Duration
	RankBytes   []int64
	RankSends   []int64
	RankHops    []int64

	// Totals over ranks.
	CommBytes int64
	Sends     int64
	Hops      int64

	// MeasuredSteps counts the collective schedule steps this build's
	// reduce-scatter + allgather executed; PredictedSteps is the analytic
	// count for the same shape and schedule (3·L+1 for L tree levels),
	// the quantity the bgq machine model prices.
	MeasuredSteps  int64
	PredictedSteps int

	// RankLoads is the per-rank cost under the placement model the
	// balancer saw. BalanceRatioPredicted is max/mean of those loads;
	// BalanceRatioMeasured is max/mean of the RankCompute walls, so
	// mispredict damage is visible as the two diverging. BalanceRatio
	// keeps the historical (predicted) meaning.
	RankLoads             []float64
	BalanceRatio          float64
	BalanceRatioPredicted float64
	BalanceRatioMeasured  float64

	NTasks           int
	QuartetsComputed int64
	QuartetsScreened int64
	// Prim is Report.Prim summed over the ranks.
	Prim integrals.PrimStats

	// RankRestarts counts ranks that died (fault injection) during this
	// build's compute phase and had their task block re-executed.
	RankRestarts int

	// Metrics is the mprt world's registry: lifetime traffic counters and
	// per-collective call/step counts.
	Metrics *trace.Registry
}

// String renders a one-line summary.
func (r DistReport) String() string {
	return fmt.Sprintf("ranks=%d threads/rank=%d sched=%v shape=%v wall=%v bytes=%d steps=%d/%d balance=%.4f",
		r.Ranks, r.ThreadsPerRank, r.Schedule, r.Shape, r.Wall,
		r.CommBytes, r.MeasuredSteps, r.PredictedSteps, r.BalanceRatio)
}

// DistBuilder executes the paper's rank decomposition of the Fock build:
// the screened task list is priced by the sched cost model and balanced
// once over Ranks×ThreadsPerRank global worker slots; each rank owns the
// contiguous block of ThreadsPerRank slots at rank×ThreadsPerRank and
// runs it on its own persistent pool; the partial J/K, exactly symmetric,
// are combined over the mprt world as one fused vector of their upper
// triangles via ReduceScatter + Allgatherv.
//
// Bitwise contract: the result is identical — every bit of J and K — to
// a single-rank Builder with Threads = Ranks×ThreadsPerRank, for any
// rank count and either collective schedule. The rank-local pool reduce
// executes exactly the global reduction tree's strides below
// ThreadsPerRank (power-of-two alignment makes the restriction exact),
// and the mprt collectives sum in the canonical tree order over ranks,
// which is the same global tree's strides at and above ThreadsPerRank.
type DistBuilder struct {
	Eng *integrals.Engine
	Scr *screen.Result

	dopts DistOptions
	world *mprt.World
	pools []*pool
	tasks []Task
	asn   *sched.Assignment // global, over Ranks×ThreadsPerRank slots

	counts []int       // fused-vector segment counts for reduce-scatter
	fused  [][]float64 // per-rank staging of the J and K upper triangles
	jOut   *linalg.Matrix
	kOut   *linalg.Matrix

	builds    int64 // BuildJK calls so far (fault-plan trigger)
	closeOnce sync.Once
}

// NewDistBuilder prepares the global decomposition, the mprt world and
// the per-rank pools.
func NewDistBuilder(eng *integrals.Engine, scr *screen.Result, dopts DistOptions) (*DistBuilder, error) {
	if dopts.Ranks < 1 {
		return nil, fmt.Errorf("hfx: need at least 1 rank, got %d", dopts.Ranks)
	}
	if dopts.ThreadsPerRank <= 0 {
		dopts.ThreadsPerRank = 1
	}
	if t := dopts.ThreadsPerRank; t&(t-1) != 0 {
		return nil, fmt.Errorf("hfx: threads per rank must be a power of two, got %d", t)
	}
	if dopts.Opts.Dynamic {
		return nil, fmt.Errorf("hfx: dynamic dispatch is incompatible with the distributed build's bitwise determinism contract")
	}
	opts := dopts.Opts
	opts.Threads = dopts.ThreadsPerRank
	opts.CacheBudgetBytes = 0 // the ERI cache is per-builder; disabled per rank
	opts.Calibrator = dopts.Calibrator
	if opts.Cost == (CostModel{}) {
		opts.Cost = DefaultCostModel()
	}
	dopts.Opts = opts

	world, err := mprt.NewWorld(mprt.Options{
		Ranks:    dopts.Ranks,
		Schedule: dopts.Schedule,
		Shape:    dopts.Shape,
	})
	if err != nil {
		return nil, err
	}
	dopts.Shape = world.Shape()

	tasks := BuilderTasks(eng, scr, opts.Cost, opts.Granule)
	costs := TaskCosts(tasks)
	placed := costs
	if dopts.Calibrator != nil || dopts.Noise != nil {
		classes := TaskClasses(eng.Basis, scr.Pairs, tasks)
		placed = dopts.Calibrator.Scale(classes, costs)
		placed = dopts.Noise.Perturb(placed, classes)
	}
	asn := sched.Balance(opts.Balancer, placed, dopts.Ranks*dopts.ThreadsPerRank)

	d := &DistBuilder{
		Eng:   eng,
		Scr:   scr,
		dopts: dopts,
		world: world,
		pools: make([]*pool, dopts.Ranks),
		tasks: tasks,
		asn:   asn,
	}
	for r := 0; r < dopts.Ranks; r++ {
		lo := r * dopts.ThreadsPerRank
		d.pools[r] = newPool(eng, scr, opts, tasks, costs, asn.Slice(lo, lo+dopts.ThreadsPerRank))
	}

	n := eng.Basis.NBasis
	d.counts, d.fused = newFusedJK(dopts.Ranks, n)
	d.jOut = linalg.NewSquare(n)
	d.kOut = linalg.NewSquare(n)
	runtime.SetFinalizer(d, (*DistBuilder).Close)
	return d, nil
}

// newFusedJK sizes the per-rank staging of the cross-rank J/K reduction.
// Every leaf symmetrizes its accumulators before the reduction tree, so
// the partials are exactly symmetric and only their upper triangles,
// diagonal included, are reduced: n(n+1) elements per rank instead of 2n²,
// split into near-equal reduce-scatter segments.
func newFusedJK(ranks, n int) (counts []int, fused [][]float64) {
	m := n * (n + 1)
	counts = make([]int, ranks)
	fused = make([][]float64, ranks)
	for r := range counts {
		counts[r] = m / ranks
		if r < m%ranks {
			counts[r]++
		}
		fused[r] = make([]float64, m)
	}
	return counts, fused
}

// packJK stages the upper triangles of j and then k, row by row, in dst.
func packJK(dst []float64, j, k *linalg.Matrix) {
	for _, m := range [2]*linalg.Matrix{j, k} {
		n := m.Rows
		for i := 0; i < n; i++ {
			dst = dst[copy(dst, m.Data[i*n+i:(i+1)*n]):]
		}
	}
}

// unpackJK is the inverse of packJK: it writes the triangles in src back
// into j and k and mirrors them below the diagonal.
func unpackJK(j, k *linalg.Matrix, src []float64) {
	for _, m := range [2]*linalg.Matrix{j, k} {
		n := m.Rows
		for i := 0; i < n; i++ {
			row := m.Data[i*n+i : (i+1)*n]
			src = src[copy(row, src):]
			for c, v := range row[1:] {
				m.Data[(i+1+c)*n+i] = v
			}
		}
	}
}

// Close stops every rank pool and the mprt world. Idempotent; a
// finalizer calls it if the builder is collected without Close.
func (d *DistBuilder) Close() {
	d.closeOnce.Do(func() {
		for _, pl := range d.pools {
			pl.close()
		}
		d.world.Close()
	})
	runtime.SetFinalizer(d, nil)
}

// World exposes the underlying mprt world (read-only: shape, schedule,
// traffic registry).
func (d *DistBuilder) World() *mprt.World { return d.world }

// Assignment exposes the global static schedule (read-only).
func (d *DistBuilder) Assignment() *sched.Assignment { return d.asn }

// BuildJK computes J and K for density P across the ranks. The returned
// matrices are owned by the builder and valid until the next BuildJK.
//
// The build runs in two phases, each a full world.Run: first every rank
// executes its task block into its fused staging buffer (no
// communication), then every rank enters the ReduceScatter + Allgatherv
// collective. The split is what makes rank death recoverable — a rank
// that dies in the compute phase (DistOptions.FaultPlan) strands nobody,
// its block is re-executed on the same pool, and the collective is then
// re-formed with every rank alive. The static schedule makes the
// re-executed block's partials bitwise identical to the originals, so a
// recovered build equals a fault-free one bit for bit.
func (d *DistBuilder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep DistReport, err error) {
	R := d.dopts.Ranks
	start := time.Now()
	d.builds++

	reg := d.world.Registry()
	steps0 := reg.Counter("mprt.reducescatter.steps").Value() +
		reg.Counter("mprt.allgatherv.steps").Value()

	rep = DistReport{
		Ranks:          R,
		ThreadsPerRank: d.dopts.ThreadsPerRank,
		Schedule:       d.dopts.Schedule,
		Shape:          d.dopts.Shape,
		RankCompute:    make([]time.Duration, R),
		RankComm:       make([]time.Duration, R),
		RankBytes:      make([]int64, R),
		RankSends:      make([]int64, R),
		RankHops:       make([]int64, R),
		NTasks:         len(d.tasks),
		Metrics:        reg,
	}

	compute := func(r int) {
		pl := d.pools[r]
		t0 := time.Now()
		pl.runBuild(p)
		packJK(d.fused[r], pl.slots[0].j, pl.slots[0].k)
		wall := time.Since(t0)
		if delay := d.dopts.Noise.StragglerDelay(r, wall); delay > 0 {
			time.Sleep(delay)
			wall += delay
		}
		rep.RankCompute[r] = wall
	}

	// Phase 1: compute. A fault-plan kill fires here, before the rank
	// touches its buffers.
	plan := d.dopts.FaultPlan
	runErr := d.world.Run(func(c *mprt.Comm) error {
		r := c.Rank()
		if plan != nil && int64(plan.Build) == d.builds && plan.Rank == r {
			return fmt.Errorf("hfx: rank %d died in compute phase of build %d: %w",
				r, d.builds, mprt.ErrRankKilled)
		}
		compute(r)
		return nil
	})
	if runErr != nil {
		if !errors.Is(runErr, mprt.ErrRankKilled) {
			return nil, nil, rep, runErr
		}
		// Restart: re-execute the dead rank's task block. The pool is
		// intact (the rank died before dispatching work) and the static
		// schedule re-produces the identical partials.
		compute(plan.Rank)
		rep.RankRestarts++
		reg.Counter("mprt.rank_restarts").Add(1)
	}

	// Phase 2: the collective, re-formed with every rank alive.
	runErr = d.world.Run(func(c *mprt.Comm) error {
		r := c.Rank()
		b0, s0, h0 := c.BytesSent(), c.Sends(), c.HopsSent()
		t0 := time.Now()
		seg := c.ReduceScatter(d.fused[r], d.counts)
		full := c.Allgatherv(seg, d.counts)
		rep.RankComm[r] = time.Since(t0)
		rep.RankBytes[r] = c.BytesSent() - b0
		rep.RankSends[r] = c.Sends() - s0
		rep.RankHops[r] = c.HopsSent() - h0

		if r == 0 {
			unpackJK(d.jOut, d.kOut, full)
		}
		return nil
	})
	if runErr != nil {
		return nil, nil, rep, runErr
	}

	for r := 0; r < R; r++ {
		rep.CommBytes += rep.RankBytes[r]
		rep.Sends += rep.RankSends[r]
		rep.Hops += rep.RankHops[r]
		rep.QuartetsComputed += d.pools[r].computed.Load()
		rep.QuartetsScreened += d.pools[r].screened.Load()
		rep.Prim.Add(d.pools[r].takePrimStats())
	}
	rep.MeasuredSteps = reg.Counter("mprt.reducescatter.steps").Value() +
		reg.Counter("mprt.allgatherv.steps").Value() - steps0
	L := d.world.PredictedReduceSteps()
	rep.PredictedSteps = 3*L + 1
	rep.RankLoads = d.asn.GroupLoads(d.dopts.ThreadsPerRank)
	rep.BalanceRatioPredicted = maxMeanRatio(rep.RankLoads)
	rep.BalanceRatio = rep.BalanceRatioPredicted
	walls := make([]float64, R)
	for r := range walls {
		walls[r] = float64(rep.RankCompute[r])
	}
	rep.BalanceRatioMeasured = maxMeanRatio(walls)
	rep.Wall = time.Since(start)
	runtime.KeepAlive(d)
	return d.jOut, d.kOut, rep, nil
}

// DistributedBuild is the one-shot form: build a DistBuilder, run a
// single J/K build, release the ranks. The returned matrices are freshly
// owned by the caller.
func DistributedBuild(eng *integrals.Engine, scr *screen.Result, dopts DistOptions,
	p *linalg.Matrix) (j, k *linalg.Matrix, rep DistReport, err error) {
	d, err := NewDistBuilder(eng, scr, dopts)
	if err != nil {
		return nil, nil, DistReport{}, err
	}
	defer d.Close()
	return d.BuildJK(p)
}

package hfx

import (
	"fmt"
	"time"

	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/torus"
)

// Placement says where the execution core runs a Fock build: on Ranks
// mprt ranks of ThreadsPerRank executors each, over
// Ranks×ThreadsPerRank×UnitsPerThread slots. The screened task list is
// balanced once over the slots; rank r is home to the contiguous block of
// slots [r·S/R, (r+1)·S/R), each slot a steal unit that executes its tasks
// sequentially into its own accumulators wherever it runs. The slots are
// combined by the canonical pairwise tree over slot indices: each rank
// folds its own block (the tree's strides below S/R, power-of-two sizes
// making the restriction exact) and the packed-triangle ReduceScatter +
// Allgatherv over the mprt world supplies the strides above, summing in
// canonical order over ranks.
//
// Bitwise contract: J, K and the gradient are identical — every bit — to
// a single-rank Builder with Threads = S, for any rank count, thread
// count, collective schedule and steal pattern, as long as no Noise plan
// distorts the placement model.
type Placement struct {
	// Ranks is the number of mprt ranks (required, ≥ 1).
	Ranks int
	// ThreadsPerRank is the number of executors per rank (power of two,
	// default 1).
	ThreadsPerRank int
	// UnitsPerThread is the over-decomposition factor of a stealing
	// placement (power of two, default 4): more units mean finer-grained
	// stealing at slightly worse static balance per unit.
	UnitsPerThread int
	// Schedule selects the mprt collective schedule.
	Schedule mprt.Schedule
	// Shape optionally fixes the torus embedding (zero value:
	// torus.ShapeForNodes(Ranks)).
	Shape torus.Shape
	// Opts is the build configuration; Threads is ignored (ThreadsPerRank
	// governs).
	Opts Options
	// Steal enables migration: a rank whose deque runs dry takes the
	// cheapest outstanding unit of another. Off, every unit runs on its
	// home rank — the static arm, bitwise identical to the stealing one.
	Steal bool
	// Noise optionally distorts the placement model (the costs the
	// balancer sees) and slows a straggler rank — mispredict injection for
	// balance experiments. Arithmetic is never touched, but a distorted
	// placement groups tasks differently, so the bitwise pin against the
	// single-rank Builder holds only when the costs are left alone.
	Noise *steal.NoisePlan
	// FaultPlan optionally kills one rank during one build's compute
	// phase, exercising the restart path (nil injects nothing).
	FaultPlan *RankFaultPlan
	// Seed drives the rank-count-independent victim selection order.
	Seed uint64
}

// DistOptions configures a rank-distributed Fock build (NewDistBuilder).
type DistOptions = Placement

// StealOptions configures a work-stealing Fock build (NewStealBuilder).
type StealOptions = Placement

// DistReport describes one rank-distributed build.
type DistReport = Report

// StealReport describes one work-stealing build.
type StealReport = Report

// RankFaultPlan injects a rank death into a placement: on the Build-th
// BuildJK call (1-based; 0 disables) rank Rank dies before computing any
// unit. Its units are re-executed once the other ranks are done, and the
// results stay bitwise pinned to the fault-free build.
type RankFaultPlan struct {
	Rank  int
	Build int
}

// DistBuilder is the core placed over mprt ranks. NewDistBuilder gives
// the paper's rank decomposition of the Fock build: Ranks×ThreadsPerRank
// executors, one slot each, without stealing. NewStealBuilder gives the
// paper's work-stealing fallback on top of that static schedule: the core
// over-decomposed into UnitsPerThread slots per executor, idle ranks
// migrating remote units at run time. Either way the results equal a
// single-rank Builder with Threads = total slots bit for bit.
type DistBuilder struct{ *Builder }

// StealBuilder is the work-stealing placement (NewStealBuilder).
type StealBuilder = DistBuilder

// NewDistBuilder places the core on Ranks×ThreadsPerRank executors with
// one slot each. A stealing placement belongs to NewStealBuilder.
func NewDistBuilder(eng *integrals.Engine, scr *screen.Result, pm DistOptions) (*DistBuilder, error) {
	if pm.Steal || pm.UnitsPerThread > 1 {
		return nil, fmt.Errorf("hfx: a rank-distributed build has one slot per executor and no stealing (use NewStealBuilder)")
	}
	pm.UnitsPerThread = 1
	return newPlaced(eng, scr, pm)
}

// NewStealBuilder places the core on Ranks×ThreadsPerRank executors over
// UnitsPerThread steal units each.
func NewStealBuilder(eng *integrals.Engine, scr *screen.Result, pm StealOptions) (*StealBuilder, error) {
	if pm.UnitsPerThread <= 0 {
		pm.UnitsPerThread = 4
	}
	return newPlaced(eng, scr, pm)
}

// BuildJK is Builder.BuildJK; the error is always nil (a killed rank is
// recovered and shows up as rep.RankRestarts).
func (d *DistBuilder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep DistReport, err error) {
	j, k, rep = d.Builder.BuildJK(p)
	return j, k, rep, nil
}

// newPlaced validates a multi-rank placement and builds the core on its
// mprt world (none on one rank).
func newPlaced(eng *integrals.Engine, scr *screen.Result, pm Placement) (*DistBuilder, error) {
	if pm.Ranks < 1 {
		return nil, fmt.Errorf("hfx: need at least 1 rank, got %d", pm.Ranks)
	}
	pm.ThreadsPerRank = max(pm.ThreadsPerRank, 1)
	if t, u := pm.ThreadsPerRank, pm.UnitsPerThread; t&(t-1) != 0 || u&(u-1) != 0 {
		return nil, fmt.Errorf("hfx: threads per rank (%d) and units per thread (%d) must be powers of two", t, u)
	}
	var world *mprt.World
	if pm.Ranks > 1 {
		var err error
		if world, err = mprt.NewWorld(mprt.Options{Ranks: pm.Ranks, Schedule: pm.Schedule, Shape: pm.Shape}); err != nil {
			return nil, err
		}
		pm.Shape = world.Shape()
	}
	return &DistBuilder{newBuilder(eng, scr, pm, world, nil)}, nil
}

// place computes the static schedule over the slots under the placement
// model — the cost-model task costs, distorted by the noise plan — and the
// steal plan over it.
func (pl *pool) place() {
	costs := pl.pm.Noise.Perturb(pl.costs, pl.classes)
	pl.asn = sched.Balance(pl.opts.Balancer, costs, len(pl.slots))
	pl.plan = steal.NewPlan(pl.asn, pl.pm.Ranks, pl.pm.Seed)
	pl.deques = steal.NewDeques(pl.plan, pl.reg)
	pl.rankLoads = pl.plan.PredLoads()
}

// reduceRanks is the cross-rank half of the J/K reduction. Units that ran
// away from home first return their partials over mprt p2p in global unit
// order (both sides walk the same ascending sequence, so the matched
// Send/Recv pairs cannot deadlock on the capacity-1 channels; the world is
// in-process, so the transfer is zero-copy but accounted as if it crossed
// the torus). Then every rank folds its block of slots and enters the
// ReduceScatter + Allgatherv over the packed upper triangles; rank 0
// unpacks the result.
func (pl *pool) reduceRanks() (j, k *linalg.Matrix) {
	spr := len(pl.slots) / pl.pm.Ranks
	_ = pl.world.Run(func(c *mprt.Comm) error { // Run only reports rank-function errors, and there are none
		r := c.Rank()
		t0 := time.Now()
		for u, unit := range pl.plan.Units {
			switch ex := pl.deques.Executor(u); {
			case ex == unit.Home:
			case r == ex:
				c.Send(unit.Home, 2*u, pl.slots[u].j.Data)
				c.Send(unit.Home, 2*u+1, pl.slots[u].k.Data)
			case r == unit.Home:
				c.Recv(ex, 2*u)
				c.Recv(ex, 2*u+1)
			}
		}
		blk := pl.slots[r*spr : (r+1)*spr]
		pl.reduce(blk)
		packJK(pl.fused[r], blk[0].j, blk[0].k)
		full := c.Allgatherv(c.ReduceScatter(pl.fused[r], pl.counts), pl.counts)
		if r == 0 {
			unpackJK(pl.jOut, pl.kOut, full)
		}
		pl.rankComm[r] = time.Since(t0)
		return nil
	})
	return pl.jOut, pl.kOut
}

// commCounters are the mprt counters a build reports per-build deltas of.
var commCounters = [5]string{"mprt.bytes", "mprt.sends", "mprt.hops", "mprt.reducescatter.steps", "mprt.allgatherv.steps"}

// commTotals reads the lifetime values of commCounters (zero on one rank).
func (pl *pool) commTotals() (t [5]int64) {
	if pl.world != nil {
		for i, name := range commCounters {
			t[i] = pl.reg.Counter(name).Value()
		}
	}
	return t
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

// Package steal implements the paper's work-stealing fallback as a
// deterministic runtime layered under hfx and over mprt/sched: the static
// LPT assignment stays the *initial* placement, but the schedule is
// over-decomposed into steal units (virtual worker slots) that idle ranks
// may migrate at run time. Determinism of the *numbers* is structural:
// every unit is executed sequentially into its own accumulator wherever
// it runs, and the combination of unit partials always follows the
// canonical binary reduction tree over slot indices — so a stolen
// schedule is bitwise identical to the purely static one, and the steal
// decisions (which are timing-dependent) can only move wall-clock, never
// bits.
//
// The package is physics-agnostic: it plans, queues and calibrates
// abstract units identified by task-cost arrays and integer work classes.
// The hfx execution core (hfx.Builder, in every placement) supplies the
// quartet execution and the mprt collectives.
package steal

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"hfxmd/internal/sched"
	"hfxmd/internal/trace"
)

// Counter names the runtime records into its trace.Registry. They appear
// in hfx.Report metrics.
const (
	CounterAttempted   = "steal.attempted"         // steal probes (incl. empty victims)
	CounterSucceeded   = "steal.succeeded"         // probes that took a unit
	CounterMigrated    = "steal.migrated_blocks"   // units executed away from home
	CounterReclaimedNS = "steal.idle_reclaimed_ns" // wall idle ranks spent on stolen work
)

// Unit is one steal unit: a virtual worker slot of the global static
// schedule. Slot is its canonical reduction position, Tasks the task
// indices it executes in order, Pred its predicted cost under the
// placement model (which may be noisy or calibrated), Home the rank the
// static schedule assigned it to.
type Unit struct {
	Slot  int
	Tasks []int
	Pred  float64
	Home  int
}

// Plan is the over-decomposed static schedule: Ranks×SlotsPerRank units,
// unit u homed on rank u/SlotsPerRank. It is immutable after NewPlan;
// per-build mutable state lives in Deques.
type Plan struct {
	Units        []Unit
	Ranks        int
	SlotsPerRank int
	// Seed drives the victim-selection order (rank-count-independent).
	Seed uint64
}

// NewPlan slices a global assignment over ranks×slotsPerRank worker
// slots into steal units. The assignment must have a positive multiple of
// ranks workers; anything else is a caller bug and panics.
func NewPlan(asn *sched.Assignment, ranks int, seed uint64) *Plan {
	if ranks < 1 || asn.NWorkers()%ranks != 0 {
		panic(fmt.Sprintf("steal: %d worker slots do not divide into %d ranks", asn.NWorkers(), ranks))
	}
	spr := asn.NWorkers() / ranks
	p := &Plan{
		Units:        make([]Unit, asn.NWorkers()),
		Ranks:        ranks,
		SlotsPerRank: spr,
		Seed:         seed,
	}
	for s := range p.Units {
		p.Units[s] = Unit{
			Slot:  s,
			Tasks: asn.Workers[s],
			Pred:  asn.Loads[s],
			Home:  s / spr,
		}
	}
	return p
}

// PredLoads returns the per-rank predicted load under the plan's
// placement model (the quantity BalanceRatioPredicted is computed from).
func (p *Plan) PredLoads() []float64 {
	loads := make([]float64, p.Ranks)
	for _, u := range p.Units {
		loads[u.Home] += u.Pred
	}
	return loads
}

// VictimOrder returns the order in which a thief rank probes victims.
// The order is a pure function of (seed, thief, victim) pair hashes, so
// it is deterministic for a given seed and — because each pair's rank is
// independent of how many other ranks exist — stable under changes of
// the rank count: growing the world only inserts new victims without
// reshuffling the relative order of the old ones.
func VictimOrder(seed uint64, thief, ranks int) []int {
	order := make([]int, 0, ranks-1)
	for v := 0; v < ranks; v++ {
		if v != thief {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		hi, hj := pairHash(seed, thief, order[i]), pairHash(seed, thief, order[j])
		if hi != hj {
			return hi < hj
		}
		return order[i] < order[j]
	})
	return order
}

func pairHash(seed uint64, thief, victim int) uint64 {
	h := fnv.New64a()
	var b [24]byte
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	put64(0, seed)
	put64(8, uint64(thief))
	put64(16, uint64(victim))
	h.Write(b[:])
	return h.Sum64()
}

// Deques is the per-rank work queues of one build: each rank's own units
// ordered by descending predicted cost (LPT execution order), popped
// from the front by the owner and from the back — cheapest first, the
// classic steal heuristic that keeps migration units small — by thieves.
// The order is fixed by the plan, so Reset only rewinds indices and a
// build's queue traffic allocates nothing.
type Deques struct {
	plan   *Plan
	reg    *trace.Registry
	orders [][]int // victim probe order per thief, precomputed
	own    [][]int // each rank's units in execution order, precomputed

	mu     sync.Mutex
	lo, hi []int // rank r's outstanding units are own[r][lo[r]:hi[r]]

	exec []atomic.Int32 // executor rank per unit, written by whoever runs it
}

// NewDeques prepares the queues for a plan. Reset must be called before
// each build.
func NewDeques(p *Plan, reg *trace.Registry) *Deques {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	d := &Deques{
		plan:   p,
		reg:    reg,
		orders: make([][]int, p.Ranks),
		own:    make([][]int, p.Ranks),
		lo:     make([]int, p.Ranks),
		hi:     make([]int, p.Ranks),
		exec:   make([]atomic.Int32, len(p.Units)),
	}
	for r := 0; r < p.Ranks; r++ {
		d.orders[r] = VictimOrder(p.Seed, r, p.Ranks)
	}
	for u := range p.Units {
		d.own[p.Units[u].Home] = append(d.own[p.Units[u].Home], u)
	}
	for _, q := range d.own {
		sort.Slice(q, func(i, j int) bool {
			ui, uj := &p.Units[q[i]], &p.Units[q[j]]
			if ui.Pred != uj.Pred {
				return ui.Pred > uj.Pred
			}
			return ui.Slot < uj.Slot
		})
	}
	for _, name := range []string{CounterAttempted, CounterSucceeded, CounterMigrated, CounterReclaimedNS} {
		reg.Counter(name)
	}
	d.Reset()
	return d
}

// Reset refills every rank's deque from the plan: own units in
// descending predicted cost (slot index breaks ties), executor map
// cleared to the homes.
func (d *Deques) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r, q := range d.own {
		d.lo[r], d.hi[r] = 0, len(q)
	}
	for u := range d.plan.Units {
		d.exec[u].Store(int32(d.plan.Units[u].Home))
	}
}

// PopOwn takes the rank's next own unit (front of its deque), or -1 when
// the deque is empty.
func (d *Deques) PopOwn(rank int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lo[rank] == d.hi[rank] {
		return -1
	}
	d.lo[rank]++
	return d.own[rank][d.lo[rank]-1]
}

// Steal probes the thief's victim order and takes the cheapest
// outstanding unit (back of the first non-empty victim deque), marking
// the thief as its executor. It returns -1 when every victim is empty.
func (d *Deques) Steal(thief int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, v := range d.orders[thief] {
		d.reg.Counter(CounterAttempted).Add(1)
		if d.lo[v] == d.hi[v] {
			continue
		}
		d.hi[v]--
		u := d.own[v][d.hi[v]]
		d.exec[u].Store(int32(thief))
		d.reg.Counter(CounterSucceeded).Add(1)
		d.reg.Counter(CounterMigrated).Add(1)
		return u
	}
	return -1
}

// Executor returns the rank that executed (or will execute) unit u, as
// of the last Reset/Steal. Safe to read after the compute phase joined.
func (d *Deques) Executor(u int) int { return int(d.exec[u].Load()) }

// Migrated reports how many units of the last build ran away from home.
func (d *Deques) Migrated() int {
	n := 0
	for u := range d.plan.Units {
		if d.Executor(u) != d.plan.Units[u].Home {
			n++
		}
	}
	return n
}

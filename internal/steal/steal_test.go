package steal

import (
	"sync"
	"testing"
	"time"

	"hfxmd/internal/sched"
	"hfxmd/internal/trace"
)

func testPlan(t *testing.T, nTasks, ranks, slotsPerRank int) *Plan {
	t.Helper()
	costs := make([]float64, nTasks)
	for i := range costs {
		costs[i] = float64(1 + i%7)
	}
	asn := sched.Balance(sched.LPT, costs, ranks*slotsPerRank)
	return NewPlan(asn, ranks, 42)
}

func TestPlanCoversEveryTaskOnce(t *testing.T) {
	p := testPlan(t, 100, 4, 4)
	seen := make(map[int]int)
	for _, u := range p.Units {
		if u.Home != u.Slot/p.SlotsPerRank {
			t.Fatalf("unit %d homed on %d, want %d", u.Slot, u.Home, u.Slot/p.SlotsPerRank)
		}
		for _, ti := range u.Tasks {
			seen[ti]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("plan covers %d distinct tasks, want 100", len(seen))
	}
	for ti, n := range seen {
		if n != 1 {
			t.Fatalf("task %d appears %d times", ti, n)
		}
	}
}

func TestVictimOrderDeterministicAndRankCountIndependent(t *testing.T) {
	a := VictimOrder(7, 2, 8)
	b := VictimOrder(7, 2, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim order not deterministic: %v vs %v", a, b)
		}
	}
	if len(a) != 7 {
		t.Fatalf("thief must not appear among %v", a)
	}
	// Rank-count independence: the relative order of victims present in
	// both worlds is preserved when the world grows.
	small := VictimOrder(7, 2, 4)
	large := VictimOrder(7, 2, 8)
	pos := make(map[int]int)
	for i, v := range large {
		pos[v] = i
	}
	for i := 0; i < len(small); i++ {
		for j := i + 1; j < len(small); j++ {
			if pos[small[i]] > pos[small[j]] {
				t.Fatalf("relative victim order reshuffled when ranks grew: %v vs %v", small, large)
			}
		}
	}
	// Different seeds must disagree somewhere (overwhelmingly likely).
	c := VictimOrder(8, 2, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed does not influence victim order")
	}
}

func TestDequesStealMovesCheapestAndCounts(t *testing.T) {
	p := testPlan(t, 64, 2, 4)
	reg := trace.NewRegistry()
	d := NewDeques(p, reg)

	// Drain rank 0's own deque.
	own := 0
	for d.PopOwn(0) >= 0 {
		own++
	}
	if own != p.SlotsPerRank {
		t.Fatalf("rank 0 popped %d own units, want %d", own, p.SlotsPerRank)
	}
	// Now steal from rank 1: must take its cheapest outstanding unit.
	u := d.Steal(0)
	if u < 0 {
		t.Fatal("steal from loaded victim failed")
	}
	if home := p.Units[u].Home; home != 1 {
		t.Fatalf("stole unit homed on %d, want 1", home)
	}
	for _, v := range p.Units[4:] { // rank 1's units
		if v.Slot != u && v.Pred < p.Units[u].Pred {
			// The stolen one must be the minimum predicted cost still queued.
			t.Fatalf("stole unit pred %g but cheaper unit %d (%g) was queued",
				p.Units[u].Pred, v.Slot, v.Pred)
		}
	}
	if d.Executor(u) != 0 {
		t.Fatalf("executor of stolen unit = %d, want 0", d.Executor(u))
	}
	if got := reg.Counter(CounterSucceeded).Value(); got != 1 {
		t.Fatalf("steal.succeeded = %d, want 1", got)
	}
	if got := reg.Counter(CounterMigrated).Value(); got != 1 {
		t.Fatalf("steal.migrated_blocks = %d, want 1", got)
	}
	if d.Migrated() != 1 {
		t.Fatalf("Migrated() = %d, want 1", d.Migrated())
	}
	// Reset restores home execution.
	d.Reset()
	if d.Migrated() != 0 {
		t.Fatal("Reset did not clear the executor map")
	}
}

func TestDequesConcurrentDrainCoversAllUnits(t *testing.T) {
	p := testPlan(t, 200, 4, 8)
	d := NewDeques(p, nil)
	var mu sync.Mutex
	got := make(map[int]bool)
	var wg sync.WaitGroup
	for r := 0; r < p.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				u := d.PopOwn(r)
				if u < 0 {
					u = d.Steal(r)
				}
				if u < 0 {
					return
				}
				mu.Lock()
				got[u] = true
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if len(got) != len(p.Units) {
		t.Fatalf("drained %d units, want %d", len(got), len(p.Units))
	}
}

func TestNoisePerturbDeterministicAndBounded(t *testing.T) {
	costs := []float64{100, 200, 300, 400}
	classes := []int{0, 0, 1, 1}
	n := &NoisePlan{Seed: 3, Pct: 0.2, ClassSkew: map[int]float64{1: 0.5}}
	a := n.Perturb(costs, classes)
	b := n.Perturb(costs, classes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noise not deterministic")
		}
		base := costs[i]
		if classes[i] == 1 {
			base *= 0.5
		}
		if a[i] < base*0.8-1e-9 || a[i] > base*1.2+1e-9 {
			t.Fatalf("perturbed cost %g outside +/-20%% of %g", a[i], base)
		}
		if a[i] == costs[i] && n.Pct > 0 {
			// Possible but vanishingly unlikely for all entries; checked below.
			continue
		}
	}
	var nilPlan *NoisePlan
	c := nilPlan.Perturb(costs, classes)
	for i := range c {
		if c[i] != costs[i] {
			t.Fatal("nil plan must be identity")
		}
	}
	if d := (&NoisePlan{StragglerRank: 1, StragglerSlow: 1.5}).StragglerDelay(1, time.Second); d != 1500*time.Millisecond {
		t.Fatalf("straggler delay %v, want 1.5s", d)
	}
	if d := (&NoisePlan{StragglerRank: 1, StragglerSlow: 1.5}).StragglerDelay(0, time.Second); d != 0 {
		t.Fatalf("non-straggler delayed by %v", d)
	}
}

package steal

import (
	"math"
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

func TestCalibratorConvergesAndReducesError(t *testing.T) {
	c := NewCalibrator(0.5)
	// The "machine" runs class 0 at 3x the raw prediction.
	var lastErr float64
	for i := 0; i < 20; i++ {
		c.Observe(0, 1000, 3000)
		lastErr = c.MeanAbsErr()
	}
	if f := c.Factor(0); math.Abs(f-3) > 1e-6 {
		t.Fatalf("factor converged to %g, want 3", f)
	}
	if lastErr > 0.01 {
		t.Fatalf("residual error %g did not decay", lastErr)
	}
	got := c.Scale([]int{0, 1}, []float64{10, 10})
	if math.Abs(got[0]-30) > 1e-9 || got[1] != 10 {
		t.Fatalf("Scale = %v, want [30 10]", got)
	}
	if c.Observations() != 20 {
		t.Fatalf("observations = %d, want 20", c.Observations())
	}
}

func TestCalibratorOutlierClamp(t *testing.T) {
	c := NewCalibrator(0.5)
	c.Observe(0, 1, 1e12) // absurd ratio must clamp at 64
	if f := c.Factor(0); f > 64 {
		t.Fatalf("outlier ratio not clamped: %g", f)
	}
	c.Observe(1, 0, 100) // non-positive predictions are ignored
	if f := c.Factor(1); f != 1 {
		t.Fatalf("bad observation changed factor to %g", f)
	}
}

func TestCalibratorSerializationRoundTrip(t *testing.T) {
	c := NewCalibrator(0.3)
	c.Observe(0, 1000, 2000)
	c.Observe(5, 1000, 500)
	c.Observe(5, 1000, 600)
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := NewCalibrator(0)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, class := range []int{0, 5, 99} {
		if a, b := c.Factor(class), r.Factor(class); a != b {
			t.Fatalf("class %d factor %g != restored %g", class, a, b)
		}
	}
	if c.MeanAbsErr() != r.MeanAbsErr() {
		t.Fatal("error EMA not restored")
	}
	if c.Epoch() != r.Epoch() {
		t.Fatal("epoch not restored")
	}
	if c.Observations() != r.Observations() {
		t.Fatal("observation counts not restored")
	}
	if err := r.UnmarshalBinary([]byte("{bad")); err == nil {
		t.Fatal("corrupt blob must fail")
	}
}

func TestCalibratorEpochAdvances(t *testing.T) {
	c := NewCalibrator(0)
	e0 := c.Epoch()
	c.Observe(0, 100, 200)
	if c.Epoch() == e0 {
		t.Fatal("Observe did not advance the epoch")
	}
	e1 := c.Epoch()
	c.SetFactor(2, 1.5)
	if c.Epoch() == e1 {
		t.Fatal("SetFactor did not advance the epoch")
	}
}

// TestCalibratorCapsSampleError: one descheduled task — a sample 50× slow
// on a class whose raw model over-predicts 4× — counts as a miss (error 1)
// in both the calibrated and the raw series instead of 199 against 11.5,
// so it cannot outweigh a window of ordinary samples in either mean.
func TestCalibratorCapsSampleError(t *testing.T) {
	c := NewCalibrator(0.5)
	for i := 0; i < 9; i++ {
		c.Observe(0, 1000, 250)
	}
	c.BeginWindow()
	for i := 0; i < 9; i++ {
		c.Observe(0, 1000, 250)
	}
	c.Observe(0, 1000, 12500)
	cal, raw, n := c.WindowErr()
	if n != 10 {
		t.Fatalf("%d samples in the window, want 10", n)
	}
	if want := 0.1; math.Abs(cal-want) > 1e-9 {
		t.Fatalf("calibrated window error %g, want %g (nine exact samples and one capped miss)", cal, want)
	}
	if want := (9*0.75 + 1) / 10; math.Abs(raw-want) > 1e-9 {
		t.Fatalf("raw window error %g, want %g", raw, want)
	}
	if c.MeanAbsErr() > 1 {
		t.Fatalf("error EMA %g above the cap", c.MeanAbsErr())
	}
}

package hfx

import (
	"os"
	"sort"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/mprt"
	"hfxmd/internal/steal"
)

// TestStealBuildMatchesSingleRankBitwise is the acceptance gate for the
// work-stealing build: with a clean cost model, the stolen schedule must
// be bitwise identical — not approximately equal — to a single-rank
// Builder with Threads = Ranks×ThreadsPerRank×UnitsPerThread, for every
// rank count, thread count and collective schedule, with stealing both
// on and off.
func TestStealBuildMatchesSingleRankBitwise(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	const upt = 2
	for _, tpr := range []int{1, 2} {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			opts := DefaultOptions()
			opts.Threads = ranks * tpr * upt
			sb := NewBuilder(eng, scr, opts)
			jRef, kRef, _ := sb.BuildJK(p)

			for _, sch := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
				for _, stealing := range []bool{false, true} {
					b, err := NewStealBuilder(eng, scr, StealOptions{
						Ranks:          ranks,
						ThreadsPerRank: tpr,
						UnitsPerThread: upt,
						Schedule:       sch,
						Opts:           DefaultOptions(),
						Steal:          stealing,
						Seed:           7,
					})
					if err != nil {
						t.Fatal(err)
					}
					j, k, rep, err := b.BuildJK(p)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range jRef.Data {
						if j.Data[i] != v {
							t.Fatalf("ranks=%d tpr=%d %v steal=%v: J[%d] = %x, single-rank %x",
								ranks, tpr, sch, stealing, i, j.Data[i], v)
						}
					}
					for i, v := range kRef.Data {
						if k.Data[i] != v {
							t.Fatalf("ranks=%d tpr=%d %v steal=%v: K[%d] = %x, single-rank %x",
								ranks, tpr, sch, stealing, i, k.Data[i], v)
						}
					}
					if rep.QuartetsComputed == 0 {
						t.Fatal("no quartets computed")
					}
					if rep.Units != ranks*tpr*upt {
						t.Fatalf("report shows %d units, want %d", rep.Units, ranks*tpr*upt)
					}
					if rep.MeasuredSteps != int64(rep.PredictedSteps) {
						t.Fatalf("ranks=%d %v: measured steps %d, model predicts %d",
							ranks, sch, rep.MeasuredSteps, rep.PredictedSteps)
					}
					b.Close()
				}
			}
			sb.Close()
		}
	}
}

// TestStealBuildNoisyPinnedAcrossRankCounts pins the determinism
// contract under adversarial conditions: with injected cost-model noise,
// per-class skew and a straggler rank, every decomposition of the same
// total slot count — any rank count, thread count, schedule, stealing on
// or off — must produce identical bits, because the noise perturbs only
// the placement model (per task index, rank-count-independent) and the
// reduction order is canonical over slots.
func TestStealBuildNoisyPinnedAcrossRankCounts(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 3)
	noise := &steal.NoisePlan{
		Seed:          99,
		Pct:           0.3,
		ClassSkew:     map[int]float64{0: 0.4},
		StragglerRank: 1,
		StragglerSlow: 1.0,
	}
	// (ranks, threads/rank, units/thread) with ranks×tpr×upt = 16 slots.
	configs := [][3]int{{1, 2, 8}, {2, 2, 4}, {2, 1, 8}, {4, 1, 4}, {4, 2, 2}, {8, 2, 1}}
	var jPin, kPin []float64
	for _, cfg := range configs {
		for _, sch := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
			for _, stealing := range []bool{false, true} {
				b, err := NewStealBuilder(eng, scr, StealOptions{
					Ranks:          cfg[0],
					ThreadsPerRank: cfg[1],
					UnitsPerThread: cfg[2],
					Schedule:       sch,
					Opts:           DefaultOptions(),
					Steal:          stealing,
					Noise:          noise,
					Seed:           7,
				})
				if err != nil {
					t.Fatal(err)
				}
				j, k, _, err := b.BuildJK(p)
				if err != nil {
					t.Fatal(err)
				}
				if jPin == nil {
					jPin = append([]float64(nil), j.Data...)
					kPin = append([]float64(nil), k.Data...)
				} else {
					for i := range jPin {
						if j.Data[i] != jPin[i] || k.Data[i] != kPin[i] {
							t.Fatalf("cfg=%v %v steal=%v: noisy build diverged at element %d",
								cfg, sch, stealing, i)
						}
					}
				}
				b.Close()
			}
		}
	}
	// Non-power-of-two rank count with a different slot total: steal and
	// static arms of the same noisy plan must still agree bit for bit.
	var jRef, kRef []float64
	for _, stealing := range []bool{false, true} {
		b, err := NewStealBuilder(eng, scr, StealOptions{
			Ranks: 3, ThreadsPerRank: 2, UnitsPerThread: 4,
			Opts: DefaultOptions(), Steal: stealing, Noise: noise, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		j, k, _, err := b.BuildJK(p)
		if err != nil {
			t.Fatal(err)
		}
		if jRef == nil {
			jRef = append([]float64(nil), j.Data...)
			kRef = append([]float64(nil), k.Data...)
		} else {
			for i := range jRef {
				if j.Data[i] != jRef[i] || k.Data[i] != kRef[i] {
					t.Fatalf("ranks=3: steal arm diverged from static arm at element %d", i)
				}
			}
		}
		b.Close()
	}
}

// TestStealBuildReuseStableAcrossStealPatterns pins what makes the
// determinism structural: repeated builds on one StealBuilder take
// timing-dependent (and therefore different) steal decisions, yet every
// build must produce the same bits.
func TestStealBuildReuseStableAcrossStealPatterns(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 5)
	b, err := NewStealBuilder(eng, scr, StealOptions{
		Ranks: 4, UnitsPerThread: 4, Schedule: mprt.DimExchange,
		Opts: DefaultOptions(), Steal: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	j1, k1, rep1, err := b.BuildJK(p)
	if err != nil {
		t.Fatal(err)
	}
	jc := append([]float64(nil), j1.Data...)
	kc := append([]float64(nil), k1.Data...)
	for build := 2; build <= 4; build++ {
		j, k, rep, err := b.BuildJK(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range jc {
			if j.Data[i] != jc[i] || k.Data[i] != kc[i] {
				t.Fatalf("build %d diverged at element %d", build, i)
			}
		}
		if rep.MeasuredSteps != rep1.MeasuredSteps {
			t.Fatalf("build %d: %d collective steps, build 1 ran %d",
				build, rep.MeasuredSteps, rep1.MeasuredSteps)
		}
	}
}

// TestStealRecoversBalanceUnderStraggler is the load-recovery gate: with
// a straggler rank and mispredicted costs, the static placement never
// migrates work while stealing pulls blocks off the slow rank. When
// HFXMD_TIMED_TESTS is set and the race detector is off it also compares
// walls: static measured balance degrades (the predicted ratio stays
// blind to it) and stealing recovers it. Those walls last milliseconds,
// so busy neighbours decide them; scripts/check.sh runs them alone.
func TestStealRecoversBalanceUnderStraggler(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	noise := &steal.NoisePlan{
		Seed:          5,
		Pct:           0.3,
		StragglerRank: 2,
		StragglerSlow: 4.0,
	}
	// Each arm is three builds on one builder (same placement, same
	// noise) and reports the build with the median measured balance: the
	// builds take a few milliseconds, so one preempted unit can decide a
	// single sample.
	run := func(stealing bool) StealReport {
		b, err := NewStealBuilder(eng, scr, StealOptions{
			Ranks: 4, UnitsPerThread: 4, Opts: DefaultOptions(),
			Steal: stealing, Noise: noise, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		var reps [3]StealReport
		for i := range reps {
			if _, _, reps[i], err = b.BuildJK(p); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(reps[:], func(i, j int) bool {
			return reps[i].BalanceRatioMeasured < reps[j].BalanceRatioMeasured
		})
		return reps[1]
	}
	static := run(false)
	stolen := run(true)
	if static.BlocksMigrated != 0 {
		t.Fatalf("static run migrated %d blocks", static.BlocksMigrated)
	}
	if stolen.BlocksMigrated == 0 || stolen.StealsSucceeded == 0 {
		t.Fatalf("stealing run migrated %d blocks (%d successful steals)",
			stolen.BlocksMigrated, stolen.StealsSucceeded)
	}
	if stolen.IdleReclaimed <= 0 {
		t.Fatal("no idle wall reclaimed by stealing")
	}
	if os.Getenv("HFXMD_TIMED_TESTS") == "" || raceEnabled {
		return
	}
	// The straggler runs 5x slow; static-only measured imbalance must be
	// far above the predicted ratio, and stealing must claw most of it
	// back. The 10% margin keeps the gate robust on noisy CI walls.
	if static.BalanceRatioMeasured < 1.5 {
		t.Fatalf("straggler did not degrade static measured balance: %.3f",
			static.BalanceRatioMeasured)
	}
	if stolen.BalanceRatioMeasured > 0.9*static.BalanceRatioMeasured {
		t.Fatalf("stealing did not recover balance: static %.3f, steal %.3f",
			static.BalanceRatioMeasured, stolen.BalanceRatioMeasured)
	}
}

// TestStealBuilderRejectsInvalid pins the option validation.
func TestStealBuilderRejectsInvalid(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	if _, err := NewStealBuilder(eng, scr, StealOptions{Ranks: 2, ThreadsPerRank: 3}); err == nil {
		t.Fatal("expected error for non-power-of-two threads per rank")
	}
	if _, err := NewStealBuilder(eng, scr, StealOptions{Ranks: 2, UnitsPerThread: 6}); err == nil {
		t.Fatal("expected error for non-power-of-two units per thread")
	}
	if _, err := NewStealBuilder(eng, scr, StealOptions{Ranks: 0}); err == nil {
		t.Fatal("expected error for 0 ranks")
	}
}

// TestDynamicQueueMatchesPooledBitwise: one rank of two executors over
// eight steal units is the deterministic dynamic queue — which executor
// takes which unit changes from build to build — and its J and K equal a
// single-rank Builder with eight threads bit for bit, cold and replayed
// from the semi-direct cache.
func TestDynamicQueueMatchesPooledBitwise(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 5), 1e-10)
	p := testDensity(eng.Basis.NBasis, 41)
	opts := DefaultOptions()
	opts.Threads = 8
	ref := NewBuilder(eng, scr, opts)
	defer ref.Close()
	jRef, kRef, _ := ref.BuildJK(p)
	opts.CacheBudgetBytes = 64 << 20
	b, err := NewStealBuilder(eng, scr, StealOptions{
		Ranks: 1, ThreadsPerRank: 2, UnitsPerThread: 4, Opts: opts, Steal: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for build := 1; build <= 3; build++ {
		j, k, rep, _ := b.BuildJK(p)
		if build > 1 && rep.Cache.Misses != 0 {
			t.Fatalf("build %d: warm cache missed %d quartets", build, rep.Cache.Misses)
		}
		for i := range jRef.Data {
			if j.Data[i] != jRef.Data[i] || k.Data[i] != kRef.Data[i] {
				t.Fatalf("build %d diverged from the 8-thread pool at element %d", build, i)
			}
		}
	}
}

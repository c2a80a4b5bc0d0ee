package hfx

import (
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
)

// distBuild runs one J/K build on a fresh DistBuilder and closes it.
func distBuild(t testing.TB, eng *integrals.Engine, scr *screen.Result, pm DistOptions, p *linalg.Matrix) (j, k *linalg.Matrix, rep DistReport) {
	t.Helper()
	d, err := NewDistBuilder(eng, scr, pm)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	j, k, rep, _ = d.BuildJK(p)
	return j, k, rep
}

// TestDistributedBuildMatchesSingleRank is the acceptance gate for the
// distributed build: for every rank count, thread count and collective
// schedule, the distributed J and K must be bitwise identical — not
// approximately equal — to a single-rank Builder with the same total
// worker count Ranks×ThreadsPerRank.
func TestDistributedBuildMatchesSingleRank(t *testing.T) {
	for _, dw := range []bool{false, true} {
		eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
		p := testDensity(eng.Basis.NBasis, 11)
		for _, tpr := range []int{1, 2} {
			for _, ranks := range []int{1, 2, 3, 4, 8} {
				opts := DefaultOptions()
				opts.DensityWeighted = dw
				opts.Threads = ranks * tpr
				sb := NewBuilder(eng, scr, opts)
				jRef, kRef, _ := sb.BuildJK(p)

				for _, sched := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
					j, k, rep := distBuild(t, eng, scr, DistOptions{
						Ranks:          ranks,
						ThreadsPerRank: tpr,
						Schedule:       sched,
						Opts:           opts,
					}, p)
					for i, v := range jRef.Data {
						if j.Data[i] != v {
							t.Fatalf("dw=%v ranks=%d tpr=%d %v: J[%d] = %x, single-rank %x",
								dw, ranks, tpr, sched, i, j.Data[i], v)
						}
					}
					for i, v := range kRef.Data {
						if k.Data[i] != v {
							t.Fatalf("dw=%v ranks=%d tpr=%d %v: K[%d] = %x, single-rank %x",
								dw, ranks, tpr, sched, i, k.Data[i], v)
						}
					}
					if rep.QuartetsComputed == 0 {
						t.Fatal("no quartets computed")
					}
					if ranks > 1 && rep.CommBytes == 0 {
						t.Fatalf("ranks=%d: no communication recorded", ranks)
					}
					if rep.MeasuredSteps != int64(rep.PredictedSteps) {
						t.Fatalf("dw=%v ranks=%d %v: measured steps %d, model predicts %d",
							dw, ranks, sched, rep.MeasuredSteps, rep.PredictedSteps)
					}
				}
				sb.Close()
			}
		}
	}
}

// TestDistBuilderReuse checks the persistent form: repeated BuildJK calls
// on one DistBuilder stay bitwise stable and keep traffic accounting
// consistent across builds.
func TestDistBuilderReuse(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 5)
	d, err := NewDistBuilder(eng, scr, DistOptions{
		Ranks:    4,
		Schedule: mprt.DimExchange,
		Opts:     DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	j1, k1, rep1, err := d.BuildJK(p)
	if err != nil {
		t.Fatal(err)
	}
	jc := append([]float64(nil), j1.Data...)
	kc := append([]float64(nil), k1.Data...)
	j2, k2, rep2, err := d.BuildJK(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jc {
		if j2.Data[i] != jc[i] || k2.Data[i] != kc[i] {
			t.Fatalf("rebuild diverged at element %d", i)
		}
	}
	if rep1.MeasuredSteps != rep2.MeasuredSteps {
		t.Fatalf("per-build step deltas differ: %d vs %d", rep1.MeasuredSteps, rep2.MeasuredSteps)
	}
	if rep2.CommBytes != rep1.CommBytes {
		t.Fatalf("per-build comm bytes differ: %d vs %d", rep1.CommBytes, rep2.CommBytes)
	}
	if len(rep1.RankLoads) != 4 {
		t.Fatalf("want 4 rank loads, got %d", len(rep1.RankLoads))
	}
	if rep1.BalanceRatio < 1 {
		t.Fatalf("balance ratio %g < 1", rep1.BalanceRatio)
	}
	_, _ = k1, k2
}

// TestDistBuilderRejectsInvalid pins the option validation: a
// non-power-of-two thread count breaks the bitwise contract, so it must be
// refused up front, and the stealing knobs belong to NewStealBuilder.
func TestDistBuilderRejectsInvalid(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	if _, err := NewDistBuilder(eng, scr, DistOptions{Ranks: 2, ThreadsPerRank: 3}); err == nil {
		t.Fatal("expected error for non-power-of-two threads per rank")
	}
	if _, err := NewDistBuilder(eng, scr, DistOptions{Ranks: 2, Steal: true}); err == nil {
		t.Fatal("expected error for a stealing rank-distributed build")
	}
	if _, err := NewDistBuilder(eng, scr, DistOptions{Ranks: 2, UnitsPerThread: 4}); err == nil {
		t.Fatal("expected error for units per thread on a rank-distributed build")
	}
	if _, err := NewDistBuilder(eng, scr, DistOptions{Ranks: 0}); err == nil {
		t.Fatal("expected error for 0 ranks")
	}
}

// TestDistBuilderRankFaultRecovery pins the rank-restart contract: a
// rank killed during the compute phase has its task block re-executed
// and the collective re-formed, and the recovered build is bitwise
// identical — every bit of J and K — to the fault-free one. Each rank
// of the world is killed in turn, across both collective schedules.
func TestDistBuilderRankFaultRecovery(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	const ranks = 4
	for _, sched := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
		ref, err := NewDistBuilder(eng, scr, DistOptions{
			Ranks: ranks, Schedule: sched, Opts: DefaultOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		jRef, kRef, repRef, err := ref.BuildJK(p)
		if err != nil {
			t.Fatal(err)
		}
		if repRef.RankRestarts != 0 {
			t.Fatalf("fault-free build reports %d restarts", repRef.RankRestarts)
		}
		jc := append([]float64(nil), jRef.Data...)
		kc := append([]float64(nil), kRef.Data...)
		ref.Close()

		for victim := 0; victim < ranks; victim++ {
			d, err := NewDistBuilder(eng, scr, DistOptions{
				Ranks: ranks, Schedule: sched, Opts: DefaultOptions(),
				FaultPlan: &RankFaultPlan{Rank: victim, Build: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Build 1 is clean; the fault plan fires on build 2.
			if _, _, rep, err := d.BuildJK(p); err != nil || rep.RankRestarts != 0 {
				t.Fatalf("build 1 should be clean: restarts=%d err=%v", rep.RankRestarts, err)
			}
			j, k, rep, err := d.BuildJK(p)
			if err != nil {
				t.Fatalf("%v victim %d: recovered build failed: %v", sched, victim, err)
			}
			if rep.RankRestarts != 1 {
				t.Fatalf("%v victim %d: want 1 restart, got %d", sched, victim, rep.RankRestarts)
			}
			for i := range jc {
				if j.Data[i] != jc[i] || k.Data[i] != kc[i] {
					t.Fatalf("%v victim %d: recovered build diverged at element %d",
						sched, victim, i)
				}
			}
			if rep.MeasuredSteps != repRef.MeasuredSteps {
				t.Fatalf("%v victim %d: re-formed collective ran %d steps, fault-free %d",
					sched, victim, rep.MeasuredSteps, repRef.MeasuredSteps)
			}
			if got := rep.Metrics.Counter("mprt.rank_restarts").Value(); got != 1 {
				t.Fatalf("mprt.rank_restarts counter = %d, want 1", got)
			}
			d.Close()
		}
	}
}

// TestDistReportBalanceRatiosDivergeUnderNoise is the regression test
// for the predicted/measured balance split: BalanceRatio used to be
// computed from predicted loads only, hiding mispredict damage. With an
// injected straggler the measured ratio must rise far above the
// predicted one, while a clean run keeps the two close.
func TestDistReportBalanceRatiosDivergeUnderNoise(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)

	_, _, clean := distBuild(t, eng, scr, DistOptions{Ranks: 4, Opts: DefaultOptions()}, p)
	if clean.BalanceRatioPredicted < 1 || clean.BalanceRatioMeasured < 1 || len(clean.RankLoads) != 4 {
		t.Fatalf("balance ratios not populated: predicted %.4f, measured %.4f, %d rank loads",
			clean.BalanceRatioPredicted, clean.BalanceRatioMeasured, len(clean.RankLoads))
	}
	// One slot per rank: the slot schedule is the rank schedule.
	if clean.BalanceRatio != clean.BalanceRatioPredicted {
		t.Fatalf("BalanceRatio %.4f must keep the predicted meaning (%.4f)",
			clean.BalanceRatio, clean.BalanceRatioPredicted)
	}

	_, _, noisy := distBuild(t, eng, scr, DistOptions{
		Ranks: 4, Opts: DefaultOptions(),
		Noise: &steal.NoisePlan{Seed: 9, Pct: 0.3, StragglerRank: 1, StragglerSlow: 4.0},
	}, p)
	// The placement model cannot see the straggler, so the predicted
	// ratio stays modest while the measured one blows up.
	if noisy.BalanceRatioPredicted > 2 {
		t.Fatalf("predicted ratio %.4f should stay blind to the straggler",
			noisy.BalanceRatioPredicted)
	}
	if noisy.BalanceRatioMeasured < 1.5*noisy.BalanceRatioPredicted {
		t.Fatalf("measured ratio %.4f did not diverge from predicted %.4f under noise",
			noisy.BalanceRatioMeasured, noisy.BalanceRatioPredicted)
	}
}

package hfx

import (
	"fmt"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// TestSemiDirectMatchesDirect: cached replay must agree with direct builds
// to machine precision across several SCF-like iterations (fresh densities
// and one small-norm density), for both screening modes. The replay
// scatters the exact block bytes the direct path computed, so the matrices
// should in fact be bitwise identical; ≤1e-12 is the acceptance bound.
func TestSemiDirectMatchesDirect(t *testing.T) {
	for _, dw := range []bool{false, true} {
		t.Run(fmt.Sprintf("dw=%v", dw), func(t *testing.T) {
			eng, scr := setup(t, chem.WaterCluster(3, 1), 1e-8)
			n := eng.Basis.NBasis
			opts := DefaultOptions()
			opts.DensityWeighted = dw
			direct := NewBuilder(eng, scr, opts)
			defer direct.Close()
			sopts := opts
			sopts.CacheBudgetBytes = 256 << 20
			semi := NewBuilder(eng, scr, sopts)
			defer semi.Close()

			// Iterations 0..2: fresh densities. Iteration 3: a density
			// scaled by 1e-5, which the density-weighted screen thins out.
			densities := []*linalg.Matrix{
				testDensity(n, 1), testDensity(n, 2), testDensity(n, 3),
			}
			dp := testDensity(n, 4)
			for i := range dp.Data {
				dp.Data[i] *= 1e-5
			}
			densities = append(densities, dp)

			for it, p := range densities {
				jd, kd, _ := direct.BuildJK(p)
				js, ks, rep := semi.BuildJK(p)
				if diff := linalg.MaxAbsDiff(jd, js); diff > 1e-12 {
					t.Fatalf("iter %d: J semi-direct vs direct diff %g", it, diff)
				}
				if diff := linalg.MaxAbsDiff(kd, ks); diff > 1e-12 {
					t.Fatalf("iter %d: K semi-direct vs direct diff %g", it, diff)
				}
				if !rep.Cache.Enabled {
					t.Fatal("semi-direct builder reports cache disabled")
				}
				if it == 0 && rep.Cache.Hits != 0 {
					t.Fatalf("cold cache reported %d hits", rep.Cache.Hits)
				}
				if it > 0 && rep.Cache.Hits == 0 {
					t.Fatalf("iter %d: warm cache reported no hits", it)
				}
				if rep.Cache.Hits+rep.Cache.Misses != rep.QuartetsComputed {
					t.Fatalf("iter %d: hits %d + misses %d != computed %d", it,
						rep.Cache.Hits, rep.Cache.Misses, rep.QuartetsComputed)
				}
			}
		})
	}
}

// TestSemiDirectWarmHits pins the acceptance bookkeeping: with a budget
// covering every surviving quartet and an unchanged density, the second
// build's hits equal the first build's computed quartets and nothing
// misses.
func TestSemiDirectWarmHits(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(3, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	_, _, rep1 := builder.BuildJK(p)
	if rep1.Cache.Hits != 0 || rep1.Cache.Misses != rep1.QuartetsComputed {
		t.Fatalf("first build: hits=%d misses=%d computed=%d",
			rep1.Cache.Hits, rep1.Cache.Misses, rep1.QuartetsComputed)
	}
	if rep1.Cache.ResidentBlocks != rep1.QuartetsComputed {
		t.Fatalf("resident %d blocks after first build, computed %d",
			rep1.Cache.ResidentBlocks, rep1.QuartetsComputed)
	}
	_, _, rep2 := builder.BuildJK(p)
	if rep2.Cache.Hits != rep1.QuartetsComputed {
		t.Fatalf("warm hits %d, want first-build computed %d",
			rep2.Cache.Hits, rep1.QuartetsComputed)
	}
	if rep2.Cache.Misses != 0 {
		t.Fatalf("warm build missed %d quartets", rep2.Cache.Misses)
	}
	if got := rep2.Metrics.Counter("ericache.hits").Value(); got != rep2.Cache.Hits {
		t.Fatalf("ericache.hits counter %d, report %d", got, rep2.Cache.Hits)
	}
}

// TestEarlyExitMatchesExhaustive pins the sorted-pair early exit: with
// NoEarlyExit the quartet loop tests every ket individually (the old
// path); the default breaks out of the Q-sorted range at the first plain
// failure. J/K must be bitwise identical and the screened/computed
// bookkeeping must agree, in both screening modes.
func TestEarlyExitMatchesExhaustive(t *testing.T) {
	for _, dw := range []bool{false, true} {
		t.Run(fmt.Sprintf("dw=%v", dw), func(t *testing.T) {
			eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
			p := testDensity(eng.Basis.NBasis, 1)
			opts := DefaultOptions()
			opts.DensityWeighted = dw
			opts.Threads = 2
			fast := NewBuilder(eng, scr, opts)
			defer fast.Close()
			opts.NoEarlyExit = true
			slow := NewBuilder(eng, scr, opts)
			defer slow.Close()
			jf, kf, repF := fast.BuildJK(p)
			js, ks, repS := slow.BuildJK(p)
			if diff := linalg.MaxAbsDiff(jf, js); diff != 0 {
				t.Fatalf("J early-exit vs exhaustive diff %g, want bitwise 0", diff)
			}
			if diff := linalg.MaxAbsDiff(kf, ks); diff != 0 {
				t.Fatalf("K early-exit vs exhaustive diff %g, want bitwise 0", diff)
			}
			if repF.QuartetsComputed != repS.QuartetsComputed ||
				repF.QuartetsScreened != repS.QuartetsScreened {
				t.Fatalf("bookkeeping diverged: computed %d vs %d, screened %d vs %d",
					repF.QuartetsComputed, repS.QuartetsComputed,
					repF.QuartetsScreened, repS.QuartetsScreened)
			}
		})
	}
}

// TestQuartetAccountingPinned pins the quartet loop's bookkeeping on
// (H2O)4/STO-3G at ε = 1e-8, two threads and a cache budget that admits
// about a quarter of the surviving quartets: QuartetsComputed,
// QuartetsScreened, Cache.Hits and Cache.Misses of a cold build, a warm
// build and a ΔP build, for plain and density-weighted screening, with and
// without the early exit. Every screening decision and every cache lookup
// shows in these counts, so they may only move with the screen itself.
func TestQuartetAccountingPinned(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(4, 1), 1e-8)
	n := eng.Basis.NBasis
	p := testDensity(n, 1)
	dp := testDensity(n, 2)
	for i := range dp.Data {
		dp.Data[i] *= 1e-4
	}
	budget := int64(TotalQuartets(BuilderTasks(eng, scr, DefaultCostModel(), 0)))*cacheSlotIndexBytes + 256<<10
	plain := [3][4]int64{{15746, 3560, 0, 15746}, {15746, 3560, 3936, 11810}, {15746, 3560, 3936, 11810}}
	weighted := [3][4]int64{{15148, 4158, 0, 15148}, {15148, 4158, 3936, 11212}, {6213, 13093, 3936, 2277}}
	for _, dw := range []bool{false, true} {
		want := plain
		if dw {
			want = weighted
		}
		for _, noExit := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Threads = 2
			opts.DensityWeighted = dw
			opts.NoEarlyExit = noExit
			opts.CacheBudgetBytes = budget
			b := NewBuilder(eng, scr, opts)
			for i, d := range []*linalg.Matrix{p, p, dp} {
				_, _, rep := b.BuildJK(d)
				got := [4]int64{rep.QuartetsComputed, rep.QuartetsScreened, rep.Cache.Hits, rep.Cache.Misses}
				if got != want[i] {
					t.Errorf("dw=%v noEarlyExit=%v build %d: computed/screened/hits/misses %v, want %v", dw, noExit, i, got, want[i])
				}
			}
			b.Close()
		}
	}
}

// TestCacheBudgetAdmission: a tight budget admits only the top-priority
// quartets, stays within the byte budget, and partial replay still
// matches the direct build.
func TestCacheBudgetAdmission(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(3, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	direct := NewBuilder(eng, scr, opts)
	defer direct.Close()
	total := TotalQuartets(direct.Tasks())
	opts.CacheBudgetBytes = int64(total)*cacheSlotIndexBytes + 8<<10
	semi := NewBuilder(eng, scr, opts)
	defer semi.Close()

	jd, kd, _ := direct.BuildJK(p)
	_, _, rep1 := semi.BuildJK(p)
	if !rep1.Cache.Enabled {
		t.Fatal("tight budget disabled the cache entirely")
	}
	if rep1.Cache.AdmittedQuartets <= 0 || rep1.Cache.AdmittedQuartets >= int64(total) {
		t.Fatalf("admitted %d of %d quartets, want a strict subset", rep1.Cache.AdmittedQuartets, total)
	}
	if rep1.Cache.UsedBytes > opts.CacheBudgetBytes {
		t.Fatalf("used %d bytes over budget %d", rep1.Cache.UsedBytes, opts.CacheBudgetBytes)
	}
	js, ks, rep2 := semi.BuildJK(p)
	if rep2.Cache.Hits == 0 || rep2.Cache.Misses == 0 {
		t.Fatalf("partial cache should split traffic: hits=%d misses=%d",
			rep2.Cache.Hits, rep2.Cache.Misses)
	}
	if diff := linalg.MaxAbsDiff(jd, js); diff > 1e-12 {
		t.Fatalf("partial-cache J diff %g", diff)
	}
	if diff := linalg.MaxAbsDiff(kd, ks); diff > 1e-12 {
		t.Fatalf("partial-cache K diff %g", diff)
	}
}

// TestCacheInvalidate: dropping resident blocks forces a refill and counts
// evictions; results stay correct.
func TestCacheInvalidate(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	j1, k1, rep1 := builder.BuildJK(p)
	j1, k1 = j1.Clone(), k1.Clone()
	builder.InvalidateCache()
	j2, k2, rep2 := builder.BuildJK(p)
	if rep2.Cache.Evictions != rep1.QuartetsComputed {
		t.Fatalf("evictions %d, want %d resident blocks dropped",
			rep2.Cache.Evictions, rep1.QuartetsComputed)
	}
	if rep2.Cache.Hits != 0 {
		t.Fatalf("post-invalidate build reported %d hits", rep2.Cache.Hits)
	}
	if diff := linalg.MaxAbsDiff(j1, j2); diff != 0 {
		t.Fatalf("J changed across invalidate: %g", diff)
	}
	if diff := linalg.MaxAbsDiff(k1, k2); diff != 0 {
		t.Fatalf("K changed across invalidate: %g", diff)
	}
	_, _, rep3 := builder.BuildJK(p)
	if rep3.Cache.Misses != 0 {
		t.Fatalf("cache did not refill after invalidate: misses=%d", rep3.Cache.Misses)
	}
}

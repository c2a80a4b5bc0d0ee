package hfx

import (
	"fmt"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
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

// TestEarlyExitMatchesExhaustive pins the sorted-pair early exit: the
// quartet loop breaks out of the Q-sorted ket range at the first failure
// of the plain (or, density-weighted, the global-density) test, and must
// still compute exactly the quartets that pass the exact test one by one.
// Every computed quartet passed that test, so computing as many as the
// exhaustive count means computing the same set. Both screening modes.
func TestEarlyExitMatchesExhaustive(t *testing.T) {
	for _, dw := range []bool{false, true} {
		t.Run(fmt.Sprintf("dw=%v", dw), func(t *testing.T) {
			eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
			p := testDensity(eng.Basis.NBasis, 1)
			opts := DefaultOptions()
			opts.DensityWeighted = dw
			opts.Threads = 2
			b := NewBuilder(eng, scr, opts)
			defer b.Close()
			_, _, rep := b.BuildJK(p)
			var survivors, total int64
			for _, task := range b.Tasks() {
				bra := scr.Pairs[task.Bra]
				for _, ket := range scr.Pairs[task.KetLo:task.KetHi] {
					ok := scr.QuartetSurvives(bra, ket)
					if dw {
						pmax := screen.MaxDensityAbsQuartet(eng.Basis, p, bra.A, bra.B, ket.A, ket.B)
						ok = scr.QuartetSurvivesWeighted(bra, ket, pmax)
					}
					if ok {
						survivors++
					}
					total++
				}
			}
			if rep.QuartetsComputed != survivors || rep.QuartetsScreened != total-survivors {
				t.Fatalf("computed %d, screened %d; exhaustive: %d of %d survive",
					rep.QuartetsComputed, rep.QuartetsScreened, survivors, total)
			}
		})
	}
}

// TestQuartetAccountingPinned pins the quartet loop's bookkeeping on
// (H2O)4/STO-3G at ε = 1e-8, two threads and a cache budget that admits
// about a quarter of the surviving quartets: QuartetsComputed,
// QuartetsScreened, Cache.Hits and Cache.Misses of a cold build, a warm
// build and a ΔP build, for plain and density-weighted screening. Every
// screening decision and every cache lookup shows in these counts, so they
// may only move with the screen itself.
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
		opts := DefaultOptions()
		opts.Threads = 2
		opts.DensityWeighted = dw
		opts.CacheBudgetBytes = budget
		b := NewBuilder(eng, scr, opts)
		for i, d := range []*linalg.Matrix{p, p, dp} {
			_, _, rep := b.BuildJK(d)
			got := [4]int64{rep.QuartetsComputed, rep.QuartetsScreened, rep.Cache.Hits, rep.Cache.Misses}
			if got != want[i] {
				t.Errorf("dw=%v build %d: computed/screened/hits/misses %v, want %v", dw, i, got, want[i])
			}
		}
		b.Close()
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

// TestOnePricingPassPerBuild: a semi-direct NewBuilder prices each
// canonical quartet once — the task cut's pass, whose prices the ERI
// cache ranks its admission by — and NewPricedBuilder on PricedTasks'
// decomposition prices nothing, on one rank or two: it schedules that
// task slice itself and admits what NewBuilder admits. A pricing that
// plans no ERI cache keeps no per-quartet prices.
func TestOnePricingPassPerBuild(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-10)
	opts := DefaultOptions()
	opts.Threads = 1
	opts.CacheBudgetBytes = 1 << 20
	passes := func(f func()) int64 {
		n := pricingPasses.Load()
		f()
		return pricingPasses.Load() - n
	}
	var own *Builder
	if n := passes(func() { own = NewBuilder(eng, scr, opts) }); n != 1 {
		t.Fatalf("a semi-direct NewBuilder made %d pricing passes, want 1", n)
	}
	defer own.Close()
	tasks, prices := PricedTasks(eng, scr, opts)
	if len(prices) != TotalQuartets(tasks) {
		t.Fatalf("%d prices for %d canonical quartets", len(prices), TotalQuartets(tasks))
	}
	for _, ranks := range []int{1, 2} {
		var b *Builder
		var err error
		if n := passes(func() { b, err = NewPricedBuilder(eng, scr, Placement{Ranks: ranks, Opts: opts}, tasks, prices) }); n != 0 {
			t.Fatalf("%d ranks: NewPricedBuilder made %d pricing passes, want 0", ranks, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Tasks(); len(got) != len(tasks) || &got[0] != &tasks[0] {
			t.Errorf("%d ranks: the builder does not schedule the priced task slice", ranks)
		}
		if got, want := b.pl.cache.admitted, own.pl.cache.admitted; got != want || b.pl.cache.usedBytes != own.pl.cache.usedBytes {
			t.Errorf("%d ranks: admitted %d quartets, NewBuilder %d", ranks, got, want)
		}
		if ranks == 1 && b.SpillKey() != own.SpillKey() {
			t.Errorf("SpillKey %s, NewBuilder's %s", b.SpillKey(), own.SpillKey())
		}
		b.Close()
	}
	for _, budget := range []int64{0, 4} { // none, and less than the slot index
		opts.CacheBudgetBytes = budget
		if _, prices := PricedTasks(eng, scr, opts); prices != nil {
			t.Fatalf("budget %d: a pricing that plans no ERI cache kept %d prices", budget, len(prices))
		}
	}
}

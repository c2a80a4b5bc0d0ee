package hfx

import (
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
)

// BenchmarkBuildJKPooled measures the steady-state Fock build on the
// persistent pool. One warm-up build runs before the timer so lazily
// sized scratch buffers reach their final capacity; after that every
// BuildJK must reuse the pool's buffers — the benchmark's allocation
// report (b.ReportAllocs) is the regression guard and must show
// 0 allocs/op.
func BenchmarkBuildJKPooled(b *testing.B) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	builder := NewBuilder(eng, scr, DefaultOptions())
	defer builder.Close()
	builder.BuildJK(p) // warm-up: size scratch, create timer phases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.BuildJK(p)
	}
}

// BenchmarkDirectBuild is the fully direct build hfxd's buildjk jobs run —
// one thread, default options, ε = 1e-8 — on the bench's cold_fock system
// and on a split-valence basis with d shells, with what the
// primitive-level cut made of it: primitive quartets evaluated per build
// and the share of the surviving shell quartets' primitive quartets it
// skipped. Must stay 0 allocs/op.
func BenchmarkDirectBuild(b *testing.B) {
	for _, sys := range []struct {
		name, basis string
		waters      int
	}{
		{"H2O3-STO3G", "STO-3G", 3},
		{"H2O2-631Gs", "6-31G*", 2},
	} {
		b.Run(sys.name, func(b *testing.B) {
			eng := integrals.NewEngine(basis.MustBuild(sys.basis, chem.WaterCluster(sys.waters, 1)))
			scr := screen.BuildPairList(eng, screen.DefaultOptions())
			p := testDensity(eng.Basis.NBasis, 1)
			opts := DefaultOptions()
			opts.Threads = 1
			builder := NewBuilder(eng, scr, opts)
			defer builder.Close()
			_, _, rep := builder.BuildJK(p) // warm-up: size scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				builder.BuildJK(p)
			}
			b.StopTimer()
			b.ReportMetric(float64(rep.Prim.Evaluated), "primquartets/op")
			b.ReportMetric(rep.Prim.SkipRatio(), "skipratio")
		})
	}
}

// BenchmarkBuildJKSemiDirect measures the warm-cache semi-direct build on
// the same system as BenchmarkBuildJKPooled: every surviving quartet is
// resident after the warm-up, so the timed builds replay cached ERI blocks
// and only re-contract against the density. Must stay 0 allocs/op and
// ≥2× below BenchmarkBuildJKPooled ns/op.
func BenchmarkBuildJKSemiDirect(b *testing.B) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p) // warm-up 1: fill the cache
	_, _, rep := builder.BuildJK(p)
	if rep.Cache.Misses != 0 {
		b.Fatalf("warm cache still misses %d quartets; raise the budget", rep.Cache.Misses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep = builder.BuildJK(p)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.QuartetsComputed), "quartets/op")
	b.ReportMetric(rep.Cache.HitRatio(), "hitratio")
}

// BenchmarkBuildJKSemiDirect631Gs is the warm-cache replay on a basis with
// d shells, (H2O)2/6-31G* on one thread, where the blocks the digestion
// walks run to 6⁴ integrals. Must stay 0 allocs/op.
func BenchmarkBuildJKSemiDirect631Gs(b *testing.B) {
	eng := integrals.NewEngine(basis.MustBuild("6-31G*", chem.WaterCluster(2, 1)))
	scr := screen.BuildPairList(eng, screen.DefaultOptions())
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.Threads = 1
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p) // warm-up 1: fill the cache
	_, _, rep := builder.BuildJK(p)
	if rep.Cache.Misses != 0 {
		b.Fatalf("warm cache still misses %d quartets; raise the budget", rep.Cache.Misses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep = builder.BuildJK(p)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.QuartetsComputed), "quartets/op")
	b.ReportMetric(rep.Cache.HitRatio(), "hitratio")
}

// TestSemiDirectReplayAllocs guards the replay hot path: once the cache
// is warm, a semi-direct BuildJK must not allocate.
func TestSemiDirectReplayAllocs(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p)
	var rep Report
	allocs := testing.AllocsPerRun(10, func() {
		_, _, rep = builder.BuildJK(p)
	})
	if allocs != 0 {
		t.Fatalf("semi-direct replay allocates %.1f objects per call, want 0", allocs)
	}
	if rep.Cache.Misses != 0 || rep.Cache.Hits != rep.QuartetsComputed {
		t.Fatalf("replay not fully cached: hits=%d misses=%d computed=%d",
			rep.Cache.Hits, rep.Cache.Misses, rep.QuartetsComputed)
	}
}

// TestSteadyStateBuildAllocs is the in-suite form of the benchmark
// guard: after one warm-up, repeated BuildJK calls must not allocate.
func TestSteadyStateBuildAllocs(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	builder := NewBuilder(eng, scr, DefaultOptions())
	defer builder.Close()
	builder.BuildJK(p)
	var j, k *linalg.Matrix
	allocs := testing.AllocsPerRun(10, func() {
		j, k, _ = builder.BuildJK(p)
	})
	if allocs != 0 {
		t.Fatalf("steady-state BuildJK allocates %.1f objects per call, want 0", allocs)
	}
	if j == nil || k == nil {
		t.Fatal("no result")
	}
}

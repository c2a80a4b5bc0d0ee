package screen

import (
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

func waterEngine(n int) *integrals.Engine {
	var mol *chem.Molecule
	if n == 1 {
		mol = chem.Water()
	} else {
		mol = chem.WaterCluster(n, 1)
	}
	return integrals.NewEngine(basis.MustBuild("STO-3G", mol))
}

func TestPairListMonomerKeepsEverything(t *testing.T) {
	eng := waterEngine(1)
	res := BuildPairList(eng, DefaultOptions())
	ns := eng.Basis.NShells()
	want := ns * (ns + 1) / 2
	if res.Stats.TotalPairs != want {
		t.Fatalf("total pairs %d want %d", res.Stats.TotalPairs, want)
	}
	if len(res.Pairs) != want {
		t.Fatalf("a single water should keep all %d pairs, kept %d", want, len(res.Pairs))
	}
}

func TestPairListSortedDescending(t *testing.T) {
	res := BuildPairList(waterEngine(4), DefaultOptions())
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i].Q > res.Pairs[i-1].Q {
			t.Fatal("pair list not sorted by descending Q")
		}
	}
}

func TestScreeningRemovesDistantPairs(t *testing.T) {
	// Two waters 40 bohr apart: the cross pairs must be screened out.
	m := chem.Water()
	w2 := chem.Water()
	w2.Translate(chem.Vec3{40, 0, 0})
	m = m.Merge(w2)
	eng := integrals.NewEngine(basis.MustBuild("STO-3G", m))
	res := BuildPairList(eng, DefaultOptions())
	for _, p := range res.Pairs {
		sa := &eng.Basis.Shells[p.A]
		sb := &eng.Basis.Shells[p.B]
		if sa.Atom < 3 != (sb.Atom < 3) {
			t.Fatalf("cross-molecule pair (%d,%d) at R=%.1f survived", p.A, p.B, p.R)
		}
	}
	if res.Stats.SchwarzSurvived >= res.Stats.TotalPairs {
		t.Fatal("screening removed nothing")
	}
}

func TestTighterThresholdKeepsMorePairs(t *testing.T) {
	eng := waterEngine(8)
	loose := BuildPairList(eng, Options{Threshold: 1e-4, ExtentEps: 1e-10})
	tight := BuildPairList(eng, Options{Threshold: 1e-12, ExtentEps: 1e-10})
	if len(tight.Pairs) < len(loose.Pairs) {
		t.Fatalf("tight %d < loose %d", len(tight.Pairs), len(loose.Pairs))
	}
}

func TestNoDistanceAblation(t *testing.T) {
	eng := waterEngine(8)
	with := BuildPairList(eng, Options{Threshold: 1e-8, ExtentEps: 1e-10})
	without := BuildPairList(eng, Options{Threshold: 1e-8, ExtentEps: 1e-10, NoDistance: true})
	if without.Stats.DistanceSurvived != without.Stats.TotalPairs {
		t.Fatal("NoDistance should pass every pair through the pre-screen")
	}
	// Schwarz alone must keep at least as many pairs as distance+Schwarz.
	if len(without.Pairs) < len(with.Pairs) {
		t.Fatalf("schwarz-only %d < combined %d", len(without.Pairs), len(with.Pairs))
	}
}

func TestQuartetSurvives(t *testing.T) {
	res := &Result{Opts: Options{Threshold: 1e-8}}
	strong := Pair{Q: 1.0}
	weak := Pair{Q: 1e-5}
	if !res.QuartetSurvives(strong, strong) {
		t.Fatal("strong quartet rejected")
	}
	if res.QuartetSurvives(weak, Pair{Q: 1e-4}) {
		t.Fatal("weak quartet accepted")
	}
	if res.QuartetSurvivesWeighted(strong, strong, 1e-9) {
		t.Fatal("density weighting ignored")
	}
	if !res.QuartetSurvivesWeighted(weak, weak, 1e8) {
		t.Fatal("large density should rescue quartet")
	}
}

func TestMaxDensityAbs(t *testing.T) {
	eng := waterEngine(1)
	n := eng.Basis.NBasis
	p := linalg.NewSquare(n)
	// Put a large element coupling shell 0 (O 1s, index 0) and shell 4
	// (H 1s, last index).
	p.Set(0, n-1, -3.5)
	got := MaxDensityAbs(eng.Basis, p, 0, 1, 4, 3)
	if math.Abs(got-3.5) > 1e-15 {
		t.Fatalf("MaxDensityAbs got %g want 3.5", got)
	}
	// A quartet not touching that element sees 0.
	if got := MaxDensityAbs(eng.Basis, p, 1, 2, 2, 3); got != 0 {
		t.Fatalf("expected 0, got %g", got)
	}
}

// TestMaxDensityAbsQuartetMatchesTwoCalls: the fused bound must equal the
// max of the two MaxDensityAbs calls it replaces in the HFX hot loop, for
// every quartet of an asymmetric dense matrix.
func TestMaxDensityAbsQuartetMatchesTwoCalls(t *testing.T) {
	eng := waterEngine(1)
	n := eng.Basis.NBasis
	p := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Set(i, j, math.Sin(float64(3*i+7*j+1))*float64(1+i-j))
		}
	}
	ns := len(eng.Basis.Shells)
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			for c := 0; c < ns; c++ {
				for d := c; d < ns; d++ {
					want := MaxDensityAbs(eng.Basis, p, a, b, c, d)
					if w2 := MaxDensityAbs(eng.Basis, p, a, c, b, d); w2 > want {
						want = w2
					}
					got := MaxDensityAbsQuartet(eng.Basis, p, a, b, c, d)
					if got != want {
						t.Fatalf("quartet (%d%d|%d%d): fused %g, two-call %g", a, b, c, d, got, want)
					}
				}
			}
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{TotalPairs: 100, DistanceSurvived: 60, SchwarzSurvived: 40}
	if got := s.String(); got == "" {
		t.Fatal("empty stats string")
	}
}

func TestBuildPairListThreadsDeterministic(t *testing.T) {
	eng := waterEngine(4)
	opts := DefaultOptions()
	opts.Threads = 1
	ref := BuildPairList(eng, opts)
	for _, nw := range []int{2, 3, 8} {
		opts.Threads = nw
		got := BuildPairList(eng, opts)
		if len(got.Pairs) != len(ref.Pairs) {
			t.Fatalf("threads=%d: %d pairs, want %d", nw, len(got.Pairs), len(ref.Pairs))
		}
		for i := range ref.Pairs {
			if got.Pairs[i] != ref.Pairs[i] {
				t.Fatalf("threads=%d: pair %d = %+v, want %+v", nw, i, got.Pairs[i], ref.Pairs[i])
			}
		}
		if got.Stats.TotalPairs != ref.Stats.TotalPairs ||
			got.Stats.DistanceSurvived != ref.Stats.DistanceSurvived ||
			got.Stats.SchwarzSurvived != ref.Stats.SchwarzSurvived {
			t.Fatalf("threads=%d: counts differ: %+v vs %+v", nw, got.Stats, ref.Stats)
		}
		if d := linalg.MaxAbsDiff(got.Q, ref.Q); d != 0 {
			t.Fatalf("threads=%d: Schwarz matrix differs by %g", nw, d)
		}
	}
}

func TestBuildPairListWallTimesRecorded(t *testing.T) {
	res := BuildPairList(waterEngine(4), DefaultOptions())
	if res.Stats.SchwarzWall <= 0 || res.Stats.PairWall <= 0 {
		t.Fatalf("wall times not recorded: %+v", res.Stats)
	}
	if res.Stats.Wall() != res.Stats.SchwarzWall+res.Stats.PairWall {
		t.Fatal("Wall() is not the phase sum")
	}
	if res.Stats.Threads <= 0 {
		t.Fatalf("thread count not recorded: %d", res.Stats.Threads)
	}
}

// benchPairListEngine builds the (H2O)_8 / 6-31G system of the scaling
// acceptance test, warming the engine's shell-pair cache so the benchmark
// times screening work rather than one-time pair setup.
func benchPairListEngine(b *testing.B) *integrals.Engine {
	b.Helper()
	eng := integrals.NewEngine(basis.MustBuild("6-31G", chem.WaterCluster(8, 1)))
	BuildPairList(eng, DefaultOptions())
	return eng
}

func benchmarkBuildPairList(b *testing.B, threads int) {
	eng := benchPairListEngine(b)
	opts := DefaultOptions()
	opts.Threads = threads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPairList(eng, opts)
	}
}

func BenchmarkBuildPairListThreads1(b *testing.B) { benchmarkBuildPairList(b, 1) }
func BenchmarkBuildPairListThreads4(b *testing.B) { benchmarkBuildPairList(b, 4) }

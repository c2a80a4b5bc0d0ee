package screen

import (
	"math"
	"sort"
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
	got := MaxDensityAbsQuartet(eng.Basis, p, 0, 1, 4, 3)
	if math.Abs(got-3.5) > 1e-15 {
		t.Fatalf("MaxDensityAbsQuartet got %g want 3.5", got)
	}
	// A quartet not touching that element sees 0.
	if got := MaxDensityAbsQuartet(eng.Basis, p, 1, 2, 2, 3); got != 0 {
		t.Fatalf("expected 0, got %g", got)
	}
}

// maxDensityAbs returns max |P_ij| over the four cross blocks (a,c) (a,d)
// (b,c) (b,d) — the reference the fused MaxDensityAbsQuartet is checked
// against.
func maxDensityAbs(set *basis.Set, p *linalg.Matrix, a, b, c, d int) float64 {
	blockMax := func(s1, s2 int) float64 {
		sh1, sh2 := &set.Shells[s1], &set.Shells[s2]
		var m float64
		for i := sh1.Index; i < sh1.Index+sh1.NFuncs(); i++ {
			row := p.Row(i)
			for j := sh2.Index; j < sh2.Index+sh2.NFuncs(); j++ {
				if v := math.Abs(row[j]); v > m {
					m = v
				}
			}
		}
		return m
	}
	m := blockMax(a, c)
	for _, bm := range []float64{blockMax(a, d), blockMax(b, c), blockMax(b, d)} {
		if bm > m {
			m = bm
		}
	}
	return m
}

// TestMaxDensityAbsQuartetMatchesTwoCalls: the fused bound must equal the
// max of two four-block scans, maxDensityAbs(a,b,c,d) and
// maxDensityAbs(a,c,b,d), for every quartet of an asymmetric dense matrix.
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
					want := maxDensityAbs(eng.Basis, p, a, b, c, d)
					if w2 := maxDensityAbs(eng.Basis, p, a, c, b, d); w2 > want {
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
	}
}

// TestBuildPairListMatchesTwoPassOracle: the one-sweep list equals the
// two-pass definition it replaced — the full Schwarz matrix and Q_max over
// every pair, then the distance test, the Schwarz test and a stable sort by
// descending Q — bit for bit and in order, with the same counts. On
// (H2O)27/STO-3G the distance test drops 1 889 of 9 180 pairs, so the
// sweep's Q_max is taken over the survivors alone.
func TestBuildPairListMatchesTwoPassOracle(t *testing.T) {
	eng := waterEngine(27)
	opts := DefaultOptions()
	set := eng.Basis
	ns := set.NShells()
	q := eng.SchwarzMatrix()
	var qmax float64
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			qmax = max(qmax, q.At(a, b))
		}
	}
	var want []Pair
	distSurvived := 0
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			sa, sb := &set.Shells[a], &set.Shells[b]
			d := [3]float64{sa.Center[0] - sb.Center[0], sa.Center[1] - sb.Center[1], sa.Center[2] - sb.Center[2]}
			r := math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
			if r > sa.Extent(opts.ExtentEps)+sb.Extent(opts.ExtentEps) {
				continue
			}
			distSurvived++
			if q.At(a, b)*qmax < opts.Threshold {
				continue
			}
			want = append(want, Pair{A: a, B: b, Q: q.At(a, b), R: r})
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Q > want[j].Q })
	if total := ns * (ns + 1) / 2; total != 9180 || distSurvived != 7291 {
		t.Fatalf("oracle: %d pairs, %d pass the distance test; want 9180 and 7291", total, distSurvived)
	}

	for _, threads := range []int{1, 3} {
		opts.Threads = threads
		got := BuildPairList(eng, opts)
		st := got.Stats
		if st.TotalPairs != ns*(ns+1)/2 || st.DistanceSurvived != distSurvived || st.SchwarzSurvived != len(want) {
			t.Fatalf("threads=%d: counts %d/%d/%d, oracle %d/%d/%d", threads,
				st.TotalPairs, st.DistanceSurvived, st.SchwarzSurvived, ns*(ns+1)/2, distSurvived, len(want))
		}
		if len(got.Pairs) != len(want) {
			t.Fatalf("threads=%d: %d pairs, oracle %d", threads, len(got.Pairs), len(want))
		}
		for i := range want {
			if got.Pairs[i] != want[i] {
				t.Fatalf("threads=%d: pair %d = %+v, oracle %+v", threads, i, got.Pairs[i], want[i])
			}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPairList(eng, opts)
	}
}

func BenchmarkBuildPairListThreads1(b *testing.B) { benchmarkBuildPairList(b, 1) }
func BenchmarkBuildPairListThreads4(b *testing.B) { benchmarkBuildPairList(b, 4) }

package boys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReferenceAgainstClosedFormF0(t *testing.T) {
	out := make([]float64, 1)
	for _, T := range []float64{1e-14, 1e-6, 0.01, 0.5, 1, 2.5, 7, 15, 29, 35, 50, 200} {
		Reference(0, T, out)
		want := F0(T)
		if math.Abs(out[0]-want) > 1e-13*math.Max(1, want) {
			t.Fatalf("F0(%g): ref %.16g closed %.16g", T, out[0], want)
		}
	}
}

func TestReferenceAtZero(t *testing.T) {
	out := make([]float64, 9)
	Reference(8, 0, out)
	for k := 0; k <= 8; k++ {
		want := 1.0 / float64(2*k+1)
		if math.Abs(out[k]-want) > 1e-15 {
			t.Fatalf("F_%d(0) = %g want %g", k, out[k], want)
		}
	}
}

func TestReferenceKnownValues(t *testing.T) {
	// Independently computed values (Mathematica-grade) of F_m(T).
	cases := []struct {
		m    int
		t    float64
		want float64
	}{
		{0, 1.0, 0.7468241328124270},  // ½√π·erf(1)
		{0, 10.0, 0.2802473905066427}, // ½√(π/10)·erf(√10)
		{1, 1.0, 0.18947234582049235}, // (F0 - e^-1)/2
		{2, 1.0, 0.10026879814501755}, // (3F1 - e^-1)/2
	}
	out := make([]float64, 3)
	for _, c := range cases {
		Reference(c.m, c.t, out)
		if math.Abs(out[c.m]-c.want) > 1e-13 {
			t.Fatalf("F_%d(%g) = %.16g want %.16g", c.m, c.t, out[c.m], c.want)
		}
	}
}

func TestRecursionConsistency(t *testing.T) {
	// Upward recursion identity: F_{m+1} = ((2m+1)F_m − e^{-T})/(2T).
	out := make([]float64, 13)
	for _, T := range []float64{0.1, 1, 5, 20, 40, 80} {
		Reference(12, T, out)
		et := math.Exp(-T)
		for m := 0; m < 12; m++ {
			want := (float64(2*m+1)*out[m] - et) / (2 * T)
			if math.Abs(out[m+1]-want) > 1e-12*math.Max(out[m], 1e-30) {
				t.Fatalf("T=%g m=%d: recursion violated: %.16g vs %.16g", T, m, out[m+1], want)
			}
		}
	}
}

func TestEvalMatchesReference(t *testing.T) {
	ref := make([]float64, MaxOrder+1)
	fast := make([]float64, MaxOrder+1)
	for T := 0.0; T < 60; T += 0.0317 {
		Reference(MaxOrder, T, ref)
		Eval(MaxOrder, T, fast)
		for m := 0; m <= MaxOrder; m++ {
			diff := math.Abs(ref[m] - fast[m])
			if diff > 5e-13 {
				t.Fatalf("T=%g m=%d: table %.16g ref %.16g (diff %g)", T, m, fast[m], ref[m], diff)
			}
		}
	}
}

// TestEvalRelativeError: every order is interpolated on its own, so the
// relative error must hold order by order — also where F_m is tiny — on
// both sides of TableTMax.
func TestEvalRelativeError(t *testing.T) {
	const m = 16
	ref := make([]float64, m+1)
	fast := make([]float64, m+1)
	var worst float64
	for T := 0.0; T <= 80; T += 0.00917 {
		Reference(m, T, ref)
		Eval(m, T, fast)
		for k := 0; k <= m; k++ {
			rel := math.Abs(fast[k]-ref[k]) / ref[k]
			worst = math.Max(worst, rel)
			if !(rel <= 5e-13) {
				t.Fatalf("T=%g m=%d: fast %.16g ref %.16g (rel %g)", T, k, fast[k], ref[k], rel)
			}
		}
	}
	t.Logf("worst relative error %.2g", worst)
}

// TestEvalBatchMatchesEvalBitwise: an element of a gathered list is the
// Eval value bit for bit whatever the list's length, the element's
// position in it and its neighbours' branches — tabulated, asymptotic,
// T = 0, and grid points and the table edge to within an ulp.
func TestEvalBatchMatchesEvalBitwise(t *testing.T) {
	grid := 137 * tableStep
	pool := []float64{
		0, 0.3, 7.2, 29.9, 50, 120,
		math.Nextafter(tableTMax, 0), tableTMax, math.Nextafter(tableTMax, 100),
		math.Nextafter(grid, 0), grid, math.Nextafter(grid, 100),
		math.Nextafter(grid+tableStep/2, 0), grid + tableStep/2, math.Nextafter(grid+tableStep/2, 100),
	}
	want := make([]float64, MaxOrder+1)
	for _, m := range []int{0, 1, 4, 8, MaxOrder} {
		m1 := m + 1
		for n := 1; n <= 9; n++ {
			ts := make([]float64, n)
			out := make([]float64, n*m1)
			for rot := range pool {
				for q := range ts {
					ts[q] = pool[(rot+q)%len(pool)]
				}
				EvalBatch(m, ts, out)
				for q, T := range ts {
					Eval(m, T, want)
					for k := 0; k <= m; k++ {
						if math.Float64bits(out[q*m1+k]) != math.Float64bits(want[k]) {
							t.Fatalf("m=%d len=%d pos=%d T=%g k=%d: batch %.17g, Eval %.17g",
								m, n, q, T, k, out[q*m1+k], want[k])
						}
					}
				}
			}
		}
	}
}

func TestEvalPanicsOnBadArgs(t *testing.T) {
	out := make([]float64, MaxOrder+2)
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { Eval(MaxOrder+1, 1, out) })
	mustPanic(func() { Eval(0, -1, out) })
	mustPanic(func() { EvalBatch(MaxOrder+1, []float64{1}, out) })
	mustPanic(func() { EvalBatch(0, []float64{1, -1}, out) })
	mustPanic(func() { Reference(0, -1, out) })
}

func TestPropertyMonotoneDecreasingInOrder(t *testing.T) {
	// F_{m+1}(T) < F_m(T) for T ≥ 0 (integrand shrinks with m).
	out := make([]float64, 11)
	f := func(raw float64) bool {
		T := math.Mod(math.Abs(raw), 80)
		if math.IsNaN(T) {
			T = 1
		}
		Eval(10, T, out)
		for m := 0; m < 10; m++ {
			if out[m+1] >= out[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBounds(t *testing.T) {
	// 0 < F_m(T) ≤ 1/(2m+1) with equality at T=0.
	out := make([]float64, 7)
	f := func(raw float64) bool {
		T := math.Mod(math.Abs(raw), 100)
		if math.IsNaN(T) {
			T = 1
		}
		Eval(6, T, out)
		for m := 0; m <= 6; m++ {
			if out[m] <= 0 || out[m] > 1.0/float64(2*m+1)+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTAsymptotics(t *testing.T) {
	// For large T, F_0 → ½√(π/T).
	out := make([]float64, 1)
	for _, T := range []float64{50, 100, 400} {
		Eval(0, T, out)
		want := 0.5 * math.Sqrt(math.Pi/T)
		if math.Abs(out[0]-want) > 1e-14 {
			t.Fatalf("T=%g: %.16g want %.16g", T, out[0], want)
		}
	}
}

func BenchmarkReference(b *testing.B) {
	out := make([]float64, 9)
	for i := 0; i < b.N; i++ {
		Reference(8, 7.3, out)
	}
}

func BenchmarkEvalTable(b *testing.B) {
	out := make([]float64, 9)
	for i := 0; i < b.N; i++ {
		Eval(8, 7.3, out)
	}
}

package dft

import (
	"math"
	"os"
	"testing"
	"time"
	"unsafe"
)

// rhoTableProbes returns every cell's centre and both edges, each binade
// boundary, ρ just above rhoFloor and points of the fallback binade.
func rhoTableProbes() []float64 {
	var rs []float64
	for c := 0; c < rhoCells; c++ {
		e, sub := c>>rhoSubBits+rhoMinExp, c&(1<<rhoSubBits-1)
		lo := math.Ldexp(1+float64(sub)/(1<<rhoSubBits), e)
		hi := math.Ldexp(1+float64(sub+1)/(1<<rhoSubBits), e)
		rs = append(rs, lo, math.Nextafter(lo, 0), (lo+hi)/2, math.Nextafter(hi, 0))
	}
	rs = append(rs, rhoFloor, math.Nextafter(rhoFloor, 1), rhoFloor*(1+1e-9))
	top := math.Ldexp(1, rhoMaxExp)
	for _, s := range []float64{1, 1.1, 1.5, math.Nextafter(2, 0)} {
		rs = append(rs, top*s)
	}
	return rs
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestRhoTableMatchesClosedForm(t *testing.T) {
	var worst [4]float64
	for _, rho := range rhoTableProbes() {
		if rho < rhoFloor {
			continue
		}
		got, want := lookupRhoTerms(rho), closedRhoTerms(rho)
		g := [4]float64{got.r13, got.ec, got.vc, got.b}
		w := [4]float64{want.r13, want.ec, want.vc, want.b}
		for q := range g {
			e := relErr(g[q], w[q])
			worst[q] = max(worst[q], e)
			if !(e <= 1e-13) {
				t.Fatalf("ρ=%.17g quantity %d: table %.17g closed form %.17g (rel %.3g)", rho, q, g[q], w[q], e)
			}
		}
		// LDA: closed-form Slater + VWN5.
		f, v, _ := (LDA{}).Eval(rho, 0)
		ec, vc := vwn5(rho)
		r13 := math.Cbrt(rho)
		if fw, vw := -cx*rho*r13+rho*ec, -4.0/3*cx*r13+vc; relErr(f, fw) > 1e-13 || relErr(v, vw) > 1e-13 {
			t.Fatalf("ρ=%.17g: LDA f %.17g v %.17g, closed form %.17g %.17g", rho, f, v, fw, vw)
		}
	}
	t.Logf("worst relative error: r13 %.2g, ec %.2g, vc %.2g, b %.2g", worst[0], worst[1], worst[2], worst[3])
}

// The table is built once per process: it must stay within 512 KiB and,
// when HFXMD_TIMED_TESTS is set, build in 2 ms.
func TestRhoTableCost(t *testing.T) {
	if n := unsafe.Sizeof(rhoTable); n > 512<<10 {
		t.Fatalf("table is %d bytes, want ≤ 512 KiB", n)
	}
	if os.Getenv("HFXMD_TIMED_TESTS") == "" {
		return
	}
	best, tab := time.Duration(math.MaxInt64), new([rhoCells]rhoCell)
	for range 5 {
		start := time.Now()
		buildRhoTable(tab)
		best = min(best, time.Since(start))
	}
	t.Logf("%d bytes, built in %v", unsafe.Sizeof(rhoTable), best)
	if best > 2*time.Millisecond {
		t.Fatalf("table builds in %v, want ≤ 2 ms", best)
	}
}

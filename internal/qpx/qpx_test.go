package qpx

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"hfxmd/internal/boys"
)

func TestBoysBatchMatchesScalar(t *testing.T) {
	const m = 8
	out := make([]Vec4, m+1)
	ref := make([]float64, m+1)
	ts := []Vec4{
		{0.1, 1.5, 7.2, 29.9},  // all tabulated
		{0.0, 35.9, 36.1, 120}, // mixed tabulated/asymptotic
		{50, 60, 70, 80},       // all asymptotic
	}
	for _, tv := range ts {
		BoysBatch(m, tv, out)
		for lane := 0; lane < Width; lane++ {
			boys.Eval(m, tv[lane], ref)
			for k := 0; k <= m; k++ {
				if out[k][lane] != ref[k] {
					t.Fatalf("T=%g lane=%d k=%d: batch %.16g scalar %.16g",
						tv[lane], lane, k, out[k][lane], ref[k])
				}
			}
		}
	}
}

func TestBoysBatchProperty(t *testing.T) {
	const m = 4
	out := make([]Vec4, m+1)
	ref := make([]float64, m+1)
	f := func(a, b, c, d float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(math.Abs(x), 90)
		}
		tv := Vec4{clamp(a), clamp(b), clamp(c), clamp(d)}
		BoysBatch(m, tv, out)
		for lane := 0; lane < Width; lane++ {
			boys.Eval(m, tv[lane], ref)
			for k := 0; k <= m; k++ {
				if out[k][lane] != ref[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBoysBatchUniformFastPath drives batches whose four lanes all lie
// inside the tabulated range, across the full span of supported orders
// and grid offsets: every lane must be the scalar boys.Eval value bit for
// bit.
func TestBoysBatchUniformFastPath(t *testing.T) {
	out := make([]Vec4, boys.MaxOrder+1)
	ref := make([]float64, boys.MaxOrder+1)
	ts := []Vec4{
		{0, 0.024, 0.025, 0.026},      // near grid points and midpoints
		{0.3, 1.7, 8.9, 14.2},         // generic spread
		{11.111, 22.222, 33.333, 3.5}, // large tabulated arguments
		{35.94, 35.95, 35.96, 35.99},  // just below the table edge
		{0.7, 0.7, 0.7, 0.7},          // identical lanes
	}
	for _, m := range []int{0, 1, 4, 8, boys.MaxOrder} {
		for _, tv := range ts {
			for _, x := range tv {
				if x >= boys.TableTMax || x < 0 {
					t.Fatalf("test vector %v leaves the tabulated range", tv)
				}
			}
			BoysBatch(m, tv, out)
			for lane := 0; lane < Width; lane++ {
				boys.Eval(m, tv[lane], ref)
				for k := 0; k <= m; k++ {
					if out[k][lane] != ref[k] {
						t.Fatalf("m=%d T=%g lane=%d k=%d: batch %.16g scalar %.16g",
							m, tv[lane], lane, k, out[k][lane], ref[k])
					}
				}
			}
		}
	}
}

func TestBoysBatchOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order beyond boys.MaxOrder")
		}
	}()
	out := make([]Vec4, boys.MaxOrder+2)
	BoysBatch(boys.MaxOrder+1, Vec4{1, 1, 1, 1}, out)
}

func TestStats(t *testing.T) {
	var s Stats
	s.Record(1, 4)
	s.Record(1, 2)
	if s.Batches() != 2 {
		t.Fatalf("batches %d", s.Batches())
	}
	if got := s.Utilization(); math.Abs(got-0.75) > 1e-15 {
		t.Fatalf("utilization %g", got)
	}
	s.Record(1, -3) // clamped to 0
	s.Record(1, 9)  // clamped to 4
	if got := s.Utilization(); math.Abs(got-10.0/16.0) > 1e-15 {
		t.Fatalf("clamped utilization %g", got)
	}
	s.Record(21, 81) // a gathered list: 81 primitive quartets in 21 batches
	if s.Batches() != 25 || math.Abs(s.Utilization()-91.0/100.0) > 1e-15 {
		t.Fatalf("gathered list: batches %d utilization %g", s.Batches(), s.Utilization())
	}
	s.Reset()
	if s.Utilization() != 0 || s.Batches() != 0 {
		t.Fatal("reset failed")
	}
}

func TestStatsConcurrent(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record(1, 3)
			}
		}()
	}
	wg.Wait()
	if s.Batches() != 8000 {
		t.Fatalf("batches %d", s.Batches())
	}
	if math.Abs(s.Utilization()-0.75) > 1e-15 {
		t.Fatalf("utilization %g", s.Utilization())
	}
}

func BenchmarkBoysScalar4(b *testing.B) {
	out := make([]float64, 9)
	ts := [4]float64{0.3, 1.7, 8.9, 14.2}
	for i := 0; i < b.N; i++ {
		for _, T := range ts {
			boys.Eval(8, T, out)
		}
	}
}

func BenchmarkBoysBatch(b *testing.B) {
	out := make([]Vec4, 9)
	tv := Vec4{0.3, 1.7, 8.9, 14.2}
	for i := 0; i < b.N; i++ {
		BoysBatch(8, tv, out)
	}
}

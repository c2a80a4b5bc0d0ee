// Package qpx emulates the Blue Gene/Q QPX short-vector unit: a 4-wide
// double-precision SIMD datapath. The paper's integral kernels gather four
// primitive quartets at a time, evaluate the Boys function and Hermite
// recurrences across all four lanes, and scatter the results back. This
// package reproduces exactly that restructuring in portable Go:
//
//   - Vec4 value type with lane-parallel arithmetic (the Go compiler
//     auto-vectorises fixed-size array loops on amd64, so the structure is
//     faithful even though no intrinsics are used);
//   - batched Boys evaluation (the hot kernel of HFX);
//   - lane-utilisation accounting, because screening produces ragged
//     batches: the final batch of a screened quartet list is usually
//     partially full, and the paper's vector efficiency depends on the
//     fraction of useful lanes.
package qpx

import (
	"math"
	"sync/atomic"

	"hfxmd/internal/boys"
)

// Width is the QPX vector width in doubles.
const Width = 4

// Vec4 is a 4-lane double-precision vector.
type Vec4 [Width]float64

// Splat returns a vector with all lanes equal to x.
func Splat(x float64) Vec4 { return Vec4{x, x, x, x} }

// Add returns a+b lanewise.
func (a Vec4) Add(b Vec4) Vec4 {
	return Vec4{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}
}

// Sub returns a-b lanewise.
func (a Vec4) Sub(b Vec4) Vec4 {
	return Vec4{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]}
}

// Mul returns a*b lanewise.
func (a Vec4) Mul(b Vec4) Vec4 {
	return Vec4{a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]}
}

// Div returns a/b lanewise.
func (a Vec4) Div(b Vec4) Vec4 {
	return Vec4{a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]}
}

// FMA returns a*b+c lanewise (fused in spirit; Go guarantees correct
// rounding per operation, which is sufficient for our accuracy targets).
func FMA(a, b, c Vec4) Vec4 {
	return Vec4{
		a[0]*b[0] + c[0],
		a[1]*b[1] + c[1],
		a[2]*b[2] + c[2],
		a[3]*b[3] + c[3],
	}
}

// Scale returns s*a lanewise.
func (a Vec4) Scale(s float64) Vec4 {
	return Vec4{s * a[0], s * a[1], s * a[2], s * a[3]}
}

// Exp returns e^a lanewise.
func (a Vec4) Exp() Vec4 {
	return Vec4{math.Exp(a[0]), math.Exp(a[1]), math.Exp(a[2]), math.Exp(a[3])}
}

// Sqrt returns √a lanewise.
func (a Vec4) Sqrt() Vec4 {
	return Vec4{math.Sqrt(a[0]), math.Sqrt(a[1]), math.Sqrt(a[2]), math.Sqrt(a[3])}
}

// Recip returns 1/a lanewise.
func (a Vec4) Recip() Vec4 {
	return Vec4{1 / a[0], 1 / a[1], 1 / a[2], 1 / a[3]}
}

// HSum returns the horizontal sum of the lanes.
func (a Vec4) HSum() float64 { return a[0] + a[1] + a[2] + a[3] }

// Max returns the lanewise maximum of a and b.
func (a Vec4) Max(b Vec4) Vec4 {
	return Vec4{
		math.Max(a[0], b[0]), math.Max(a[1], b[1]),
		math.Max(a[2], b[2]), math.Max(a[3], b[3]),
	}
}

// BoysBatch evaluates the Boys function orders 0..m for four T arguments
// at once, writing out[k][lane] = F_k(t[lane]). out must have length m+1.
// This is the vectorised hot kernel: the table lookup and Taylor expansion
// are performed lane-parallel, mirroring the QPX implementation.
func BoysBatch(m int, t Vec4, out []Vec4) {
	if m > boys.MaxOrder {
		panic("qpx: order exceeds boys.MaxOrder")
	}
	// Lane-parallel fast path is only uniform when all four T fall in the
	// tabulated range; mixed batches take the scalar path per lane, which
	// is exactly the lane-divergence penalty the real hardware pays.
	uniform := true
	for _, x := range t {
		if x >= boys.TableTMax || x < 0 {
			uniform = false
			break
		}
	}
	if !uniform {
		var buf [boys.MaxOrder + 1]float64
		for lane := 0; lane < Width; lane++ {
			boys.Eval(m, t[lane], buf[:m+1])
			for k := 0; k <= m; k++ {
				out[k][lane] = buf[k]
			}
		}
		return
	}
	// Uniform fast path: every lane lies in the tabulated range, so the
	// nearest-grid-point lookup, the downward Taylor expansion of order m
	// and the downward recursion to order 0 all proceed lane-parallel —
	// the gather/SIMD/scatter structure of the QPX kernel. The per-lane
	// arithmetic matches boys.Eval step for step.
	var rows [Width]*[boys.MaxOrder + boys.TaylorTerms + 1]float64
	var md Vec4 // −δ per lane
	for lane, x := range t {
		gi := int(x/boys.TableStep + 0.5)
		rows[lane] = boys.TableRow(gi)
		md[lane] = -(x - float64(gi)*boys.TableStep)
	}
	pow := Splat(1)
	var fm Vec4
	for k := 0; k < boys.TaylorTerms; k++ {
		ck := boys.TaylorCoeff(k)
		var rv Vec4
		for lane := 0; lane < Width; lane++ {
			rv[lane] = rows[lane][m+k]
		}
		fm = FMA(rv.Mul(pow), Splat(ck), fm)
		pow = pow.Mul(md)
	}
	out[m] = fm
	if m == 0 {
		return
	}
	et := t.Scale(-1).Exp()
	t2 := t.Add(t)
	for k := m; k > 0; k-- {
		out[k-1] = FMA(t2, out[k], et).Div(Splat(float64(2*k - 1)))
	}
}

// Stats accumulates lane-utilisation counters across batched kernels. It
// is safe for concurrent use.
type Stats struct {
	batches     atomic.Int64
	activeLanes atomic.Int64
}

// Record notes batches batches that together carried active useful lanes
// (clamped to [0, batches×Width]) — one pair of shared atomic adds for a
// whole gathered primitive list, not one per batch.
func (s *Stats) Record(batches, active int) {
	batches = max(batches, 0)
	active = min(max(active, 0), batches*Width)
	s.batches.Add(int64(batches))
	s.activeLanes.Add(int64(active))
}

// Batches returns the number of batches recorded.
func (s *Stats) Batches() int64 { return s.batches.Load() }

// Utilization returns the mean fraction of useful lanes, in [0,1].
func (s *Stats) Utilization() float64 {
	b := s.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(s.activeLanes.Load()) / float64(b*Width)
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.batches.Store(0)
	s.activeLanes.Store(0)
}

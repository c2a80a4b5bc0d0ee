// Package boys evaluates the Boys function
//
//	F_m(T) = ∫₀¹ t^{2m} e^{-T t²} dt,
//
// the kernel of every Gaussian Coulomb integral. Two evaluation paths are
// provided:
//
//   - Reference: a convergent power series for small T combined with the
//     asymptotic/erf closed form plus stable recursions for large T. This
//     is accurate to near machine precision and is used for validation.
//   - Table (Eval, EvalBatch): a pre-tabulated grid with a 6-term Taylor
//     expansion of every order, the production fast path; it runs over a
//     whole gathered argument list. Accuracy ≈ 2e-13 relative.
//
// Both paths fill all orders 0..m in one call, which is how integral
// kernels consume them.
package boys

import "math"

// MaxOrder is the highest Boys order supported by the fast table. With
// Cartesian d functions the ERI engine needs orders up to 4·2 = 8; the
// table carries margin for the Taylor expansion terms.
const MaxOrder = 24

const (
	tableTMax   = 36.0  // switch to asymptotic form beyond this T
	tableStep   = 0.05  // grid spacing
	taylorTerms = 6     // Taylor terms per order
	seriesEps   = 1e-17 // series truncation
)

// Reference fills out[0..m] with F_0(T)..F_m(T) using the high-accuracy
// path. len(out) must be at least m+1. T must be non-negative.
func Reference(m int, t float64, out []float64) {
	if t < 0 {
		panic("boys: negative argument")
	}
	switch {
	case t < 1e-13:
		// F_m(0) = 1/(2m+1).
		for k := 0; k <= m; k++ {
			out[k] = 1.0 / float64(2*k+1)
		}
	case t < 30+2*float64(m):
		// Evaluate the highest order by its convergent series
		//   F_m(T) = e^{-T} Σ_k (2T)^k / (2m+1)(2m+3)...(2m+2k+1)
		// then recur downward: F_{m-1} = (2T F_m + e^{-T})/(2m-1).
		et := math.Exp(-t)
		sum := 1.0 / float64(2*m+1)
		term := sum
		for k := 1; ; k++ {
			term *= 2 * t / float64(2*m+2*k+1)
			sum += term
			if term < sum*seriesEps {
				break
			}
		}
		out[m] = et * sum
		for k := m; k > 0; k-- {
			out[k-1] = (2*t*out[k] + et) / float64(2*k-1)
		}
	default:
		// Large T: F_0 = ½√(π/T)·erf(√T) and upward recursion
		//   F_{k+1} = ((2k+1) F_k − e^{-T}) / (2T),
		// which is stable when T is large compared to m.
		st := math.Sqrt(t)
		out[0] = 0.5 * math.Sqrt(math.Pi) / st * math.Erf(st)
		et := math.Exp(-t)
		for k := 0; k < m; k++ {
			out[k+1] = (float64(2*k+1)*out[k] - et) / (2 * t)
		}
	}
}

// table[i][k] = F_k(i·tableStep) for k = 0..MaxOrder+taylorTerms.
var table [][MaxOrder + taylorTerms + 1]float64

func init() {
	n := int(tableTMax/tableStep) + 2
	table = make([][MaxOrder + taylorTerms + 1]float64, n)
	buf := make([]float64, MaxOrder+taylorTerms+1)
	for i := 0; i < n; i++ {
		Reference(MaxOrder+taylorTerms, float64(i)*tableStep, buf)
		copy(table[i][:], buf)
	}
}

// Eval fills out[0..m] with F_0(T)..F_m(T) using the fast tabulated path.
// It panics if m exceeds MaxOrder or T is negative.
func Eval(m int, t float64, out []float64) {
	if m > MaxOrder {
		panic("boys: order exceeds MaxOrder; use Reference")
	}
	eval(t, out[:m+1])
}

// EvalBatch is Eval over a gathered argument list: out[q·(m+1)+k] =
// F_k(ts[q]), job-major, with exactly Eval's arithmetic per element, so
// a value does not depend on the length of the list or its position in it.
func EvalBatch(m int, ts, out []float64) {
	if m > MaxOrder {
		panic("boys: order exceeds MaxOrder; use Reference")
	}
	m1 := m + 1
	out = out[:len(ts)*m1]
	for q, t := range ts {
		eval(t, out[q*m1:(q+1)*m1])
	}
}

// eval is the one fast-path arithmetic: out[k] = F_k(t) for every k below
// len(out) ≤ MaxOrder+1.
//
// Below TableTMax every order is interpolated on its own from the row of
// the nearest grid point T0 = t−δ, |δ| ≤ TableStep/2. Since dF_k/dT =
// −F_{k+1}, the Taylor series is
//
//	F_k(T0+δ) = Σ_j F_{k+j}(T0)·(−δ)^j / j!
//
// and cutting it after TaylorTerms = 6 terms leaves a remainder below
// F_{k+6}(T0)·δ⁶/6! ≤ 0.025⁶/720/(2k+13) < 3e-14 in absolute terms, i.e.
// at most 3.4e-13·(2k+1)/(2k+13) of F_k — the same truncation the top
// order always had. No order is reached from its neighbour, so no exp(−t),
// no division and no error carried down a recursion.
//
// From TableTMax on, erf(√t) is 1 to machine precision: F_0 = ½√(π/t) and
// the upward recursion F_{k+1} = ((2k+1)·F_k − e^{−t})/(2t), stable while
// 2k+1 < 2t, gives the rest; F_0 alone needs no exponential. The two forms
// meet at TableTMax to the Taylor remainder above.
func eval(t float64, out []float64) {
	if t < 0 {
		panic("boys: negative argument")
	}
	if t >= tableTMax {
		f := 0.5 * math.Sqrt(math.Pi/t)
		out[0] = f
		if len(out) == 1 {
			return
		}
		et, inv := math.Exp(-t), 0.5/t
		for k := 1; k < len(out); k++ {
			f = (float64(2*k-1)*f - et) * inv
			out[k] = f
		}
		return
	}
	gi := int(t*(1/tableStep) + 0.5)
	d1 := float64(gi)*tableStep - t // −δ
	d2, d3, d4, d5 := d1*(1.0/2), d1*(1.0/3), d1*(1.0/4), d1*(1.0/5)
	row := table[gi][:len(out)+taylorTerms-1]
	for k := range out {
		r := row[k : k+taylorTerms]
		out[k] = r[0] + d1*(r[1]+d2*(r[2]+d3*(r[3]+d4*(r[4]+d5*r[5]))))
	}
}

// TableTMax is the upper end of the tabulated range; arguments at or
// beyond it take the asymptotic form.
const TableTMax = tableTMax

// F0 returns F_0(T) via the closed form ½√(π/T)·erf(√T); exact for
// validation purposes.
func F0(t float64) float64 {
	if t < 1e-13 {
		return 1 - t/3 // series limit, avoids 0/0
	}
	st := math.Sqrt(t)
	return 0.5 * math.Sqrt(math.Pi) / st * math.Erf(st)
}

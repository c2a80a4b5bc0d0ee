package integrals

import "math"

func sqrt(x float64) float64 { return math.Sqrt(x) }

// eTable holds the Hermite expansion coefficients E_t^{ij} for one
// Cartesian dimension of a primitive pair: the product of Gaussians with
// exponents a (angular power up to imax) and b (up to jmax) expands as
//
//	x_A^i x_B^j e^{-a x_A²} e^{-b x_B²} = Σ_t E_t^{ij} Λ_t(x_P; p)
//
// with p = a+b and Λ_t Hermite Gaussians. Storage is a flat slice indexed
// by (i, j, t) with t ≤ i+j.
type eTable struct {
	imax, jmax int
	data       []float64
}

func (e *eTable) at(i, j, t int) float64 {
	if t < 0 || t > i+j {
		return 0
	}
	return e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t]
}

func (e *eTable) set(i, j, t int, v float64) {
	e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t] = v
}

// buildETable computes the E coefficients for one dimension. ab is the
// separation A_x − B_x, a and b the primitive exponents.
func buildETable(imax, jmax int, ab, a, b float64) *eTable {
	e := new(eTable)
	e.build(imax, jmax, ab, a, b)
	return e
}

// build fills e in place, reusing its storage when it is large enough
// (the shell-pair builder runs it once per primitive pair and dimension).
//
// Recurrences (McMurchie–Davidson):
//
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + X_PA·E_t^{ij} + (t+1)·E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + X_PB·E_t^{ij} + (t+1)·E_{t+1}^{ij}
//	E_0^{00}    = exp(−μ·X_AB²),  μ = ab/(a+b)
func (e *eTable) build(imax, jmax int, ab, a, b float64) {
	size := (imax + 1) * (jmax + 1) * (imax + jmax + 1)
	if cap(e.data) < size {
		e.data = make([]float64, size)
	}
	e.imax, e.jmax, e.data = imax, jmax, e.data[:size]
	p := a + b
	mu := a * b / p
	xpa := -b * ab / p // P_x − A_x with X_AB = A_x − B_x
	xpb := a * ab / p  // P_x − B_x
	e.set(0, 0, 0, math.Exp(-mu*ab*ab))
	// Build up in i first (j=0), then extend in j for each i.
	for i := 0; i < imax; i++ {
		for t := 0; t <= i+1; t++ {
			v := xpa*e.at(i, 0, t) + float64(t+1)*e.at(i, 0, t+1)
			if t > 0 {
				v += e.at(i, 0, t-1) / (2 * p)
			}
			e.set(i+1, 0, t, v)
		}
	}
	for i := 0; i <= imax; i++ {
		for j := 0; j < jmax; j++ {
			for t := 0; t <= i+j+1; t++ {
				v := xpb*e.at(i, j, t) + float64(t+1)*e.at(i, j, t+1)
				if t > 0 {
					v += e.at(i, j, t-1) / (2 * p)
				}
				e.set(i, j+1, t, v)
			}
		}
	}
}

// maxHermL is the highest Hermite degree t+u+v one shell pair can reach.
const maxHermL = 2 * maxSupportedL

// The Hermite index (t,u,v) of a shell pair is stored compactly: hermTUV
// enumerates every triple with t+u+v ≤ maxHermL by increasing degree, so
// the triples a pair of total angular momentum l can produce are the
// prefix hermTUV[:hermCount[l]] and one byte names a term's triple.
// hermSign[h] = (−1)^{t+u+v} is the relative phase of the bra and ket
// expansions (see eriQuartet).
var (
	hermTUV   [][3]uint8
	hermCount [maxHermL + 1]int
	hermIndex [maxHermL + 1][maxHermL + 1][maxHermL + 1]uint8
	hermSign  []float64
)

func init() {
	for l := 0; l <= maxHermL; l++ {
		sign := 1.0 - 2*float64(l&1)
		for t := l; t >= 0; t-- {
			for u := l - t; u >= 0; u-- {
				hermIndex[t][u][l-t-u] = uint8(len(hermTUV))
				hermTUV = append(hermTUV, [3]uint8{uint8(t), uint8(u), uint8(l - t - u)})
				hermSign = append(hermSign, sign)
			}
		}
		hermCount[l] = len(hermTUV)
	}
}

// rTensor computes the Hermite Coulomb auxiliary integrals
//
//	R^0_{tuv}(p, PC) with t+u+v ≤ ltot
//
// from the Boys values F_n(p·|PC|²). The result is stored flat
// with stride (ltot+1) per dimension, so the offset of (t+t', u+u', v+v')
// is the sum of the offsets of the two triples; entries with t+u+v > ltot
// are garbage and never read.
//
// Recurrences:
//
//	R^n_{000}      = (−2p)^n F_n(T)
//	R^n_{t+1,u,v}  = t·R^{n+1}_{t−1,u,v} + X_PC·R^{n+1}_{tuv}   (etc.)
type rTensor struct {
	ltot int
	data []float64
}

func (r *rTensor) at(t, u, v int) float64 {
	n := r.ltot + 1
	return r.data[(t*n+u)*n+v]
}

// rScratch provides two reusable ping-pong buffers for buildRTensor; it
// removes the dominant allocation of the primitive-quartet loop. The
// recurrence for auxiliary order m only reads order m+1, so two buffers
// of alternating parity suffice.
type rScratch struct {
	bufs [2][]float64
	rt   rTensor
}

// rSeeds turns the Boys values fn[m] = F_m(T) in place into the R-tensor
// seeds R^m_{000} = scale·(−2p)^m·F_m(T). R is linear in its seeds, so a
// prefactor folded in here multiplies the whole tensor.
func rSeeds(fn []float64, p, scale float64) {
	for m := range fn {
		fn[m] *= scale
		scale *= -2 * p
	}
}

// buildRTensor computes the order-0 Hermite Coulomb tensor from the seeds
// R^m_{000}, m ≤ ltot (see rSeeds). The returned tensor aliases the scratch
// buffers: it is valid only until the next buildRTensor call with the same
// scratch. Entries with t+u+v > ltot are never written and must not be
// read. A nil scratch allocates fresh buffers (used by the cold
// one-electron path).
func buildRTensor(ltot int, pc [3]float64, seed []float64, sc *rScratch) *rTensor {
	if sc == nil {
		sc = new(rScratch)
	}
	n := ltot + 1
	su, st := n, n*n
	size := st * n

	var cur []float64
	for m := ltot; m >= 0; m-- {
		up := cur
		sc.bufs[m&1] = grow(sc.bufs[m&1], size)
		cur = sc.bufs[m&1]
		cur[0] = seed[m]
		// Order m needs the triples of degree ≤ deg; each is lowered
		// along its first nonzero axis, so the three axes are three
		// branch-free loop nests over the order-(m+1) tensor.
		deg := ltot - m
		// A triple at 1 along its axis has no second term: its weight is
		// zero and its second source aliases the first.
		for v := 1; v <= deg; v++ {
			cur[v] = pc[2]*up[v-1] + float64(v-1)*up[max(v-2, 0)]
		}
		for u := 1; u <= deg; u++ {
			o, w := u*su, float64(u-1)
			o1 := o - su
			o2 := max(o1-su, 0)
			for v := 0; v <= deg-u; v++ {
				cur[o+v] = pc[1]*up[o1+v] + w*up[o2+v]
			}
		}
		for t := 1; t <= deg; t++ {
			w := float64(t - 1)
			for u := 0; u <= deg-t; u++ {
				o := t*st + u*su
				o1 := o - st
				o2 := max(o1-st, u*su)
				for v := 0; v <= deg-t-u; v++ {
					cur[o+v] = pc[0]*up[o1+v] + w*up[o2+v]
				}
			}
		}
	}
	sc.rt.ltot = ltot
	sc.rt.data = cur
	return &sc.rt
}

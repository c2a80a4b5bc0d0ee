package integrals

import (
	"math"
	"sync"
)

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

// derive sets d to the derivative of the E coefficients e with respect to
// centre A of exponent x (or, with onB, centre B):
//
//	∂A: 2x·E_t^{i+1,j} − i·E_t^{i−1,j}    ∂B: 2x·E_t^{i,j+1} − j·E_t^{i,j−1}
//
// for i ≤ la and j ≤ lb, e being built one degree higher. Each is stored
// at its raised power, (i+1, j) or (i, j+1), so that at reaches t = i+j+1.
func (d *eTable) derive(e *eTable, la, lb int, onB bool, x float64) {
	if cap(d.data) < len(e.data) {
		d.data = make([]float64, len(e.data))
	}
	d.imax, d.jmax, d.data = e.imax, e.jmax, d.data[:len(e.data)]
	for i := 0; i <= la; i++ {
		for j := 0; j <= lb; j++ {
			// (i1, j1) is the raised power, n the factor of the lowered
			// one, (2i−i1, 2j−j1).
			i1, j1, n := i+1, j, i
			if onB {
				i1, j1, n = i, j+1, j
			}
			for t := 0; t <= i+j+1; t++ {
				v := 2 * x * e.at(i1, j1, t)
				if n > 0 {
					v -= float64(n) * e.at(2*i-i1, 2*j-j1, t)
				}
				d.set(i1, j1, t, v)
			}
		}
	}
}

// build computes the E coefficients for one dimension in place, reusing
// e's storage when it is large enough (the shell-pair builder and the
// one-electron pass run it once per primitive pair and dimension). ab is
// the separation A_x − B_x, a and b the primitive exponents.
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

// maxHermL is the highest Hermite degree t+u+v one shell pair can reach,
// maxRL the highest a shell quartet's R tensor can.
const (
	maxHermL = 2 * maxSupportedL
	maxRL    = 2 * maxHermL
)

// The Hermite index (t,u,v) of a shell pair is stored compactly: hermTUV
// enumerates every triple with t+u+v ≤ maxRL by increasing degree, so the
// triples a pair of total angular momentum l can produce are the prefix
// hermTUV[:hermCount[l]] and one byte names a term's triple (hermIndex,
// degrees ≤ maxHermL; hermPos computes the index at any degree).
// hermSign[h] = (−1)^{t+u+v} is the relative phase of the bra and ket
// expansions (see eriQuartet).
var (
	hermTUV   [][3]uint8
	hermCount [maxRL + 1]int
	hermIndex [maxHermL + 1][maxHermL + 1][maxHermL + 1]uint8
	hermSign  []float64
)

func init() {
	for l := 0; l <= maxRL; l++ {
		sign := 1.0 - 2*float64(l&1)
		for t := l; t >= 0; t-- {
			for u := l - t; u >= 0; u-- {
				if l <= maxHermL {
					hermIndex[t][u][l-t-u] = uint8(len(hermTUV))
				}
				hermTUV = append(hermTUV, [3]uint8{uint8(t), uint8(u), uint8(l - t - u)})
				hermSign = append(hermSign, sign)
			}
		}
		hermCount[l] = len(hermTUV)
	}
}

// hermPos returns the index of (t,u,v) in hermTUV.
func hermPos(t, u, v int) int {
	d := t + u + v
	pos := (d-t)*(d-t+1)/2 + v
	if d > 0 {
		pos += hermCount[d-1]
	}
	return pos
}

// The Hermite Coulomb auxiliary integrals
//
//	R^0_{tuv}(p, X) with t+u+v ≤ l
//
// follow from the Boys values F_n(p·|X|²) by
//
//	R^n_{000}      = (−2p)^n F_n(T)
//	R^n_{t+1,u,v}  = t·R^{n+1}_{t−1,u,v} + X_x·R^{n+1}_{tuv}   (etc.)
//
// lowering each triple along its first nonzero axis. The order-0 tensor is
// stored flat with stride l+1 per dimension, so the offset of
// (t+t', u+u', v+v') is the sum of the offsets of the two triples; entries
// with t+u+v > l are garbage and never read.

// rStep is one recurrence step of an R program:
// w[dst] = X[axis]·w[src1] + weight·w[src2]. A triple at 1 along its axis
// has no second term: its weight is zero and src2 aliases src1.
type rStep struct {
	dst, src1, src2 uint16
	axis            uint8
	weight          float64
}

// rProgram is the recurrence for one l, unrolled into steps over a single
// buffer of size floats: the order-0 cube first, then for every auxiliary
// order n = 1..l its hermCount[l−n] entries of degree ≤ l−n, indexed like
// hermTUV (so the seed R^n_{000} leads its order). Steps run from order l−1
// down to 0, so a step's sources are final when it runs.
type rProgram struct {
	once  sync.Once
	size  int
	steps []rStep
}

var rPrograms [maxRL + 1]rProgram

// rProgramFor returns the program of total angular momentum l, building
// it on first use (a few KiB for the s/p/d classes).
func rProgramFor(l int) *rProgram {
	p := &rPrograms[l]
	p.once.Do(func() {
		n := l + 1
		base := make([]int, l+2) // first slot of every auxiliary order
		base[1] = n * n * n
		for m := 1; m <= l; m++ {
			base[m+1] = base[m] + hermCount[l-m]
		}
		p.size = base[l+1]
		slot := func(m int, tuv [3]int) uint16 {
			if m == 0 {
				return uint16((tuv[0]*n+tuv[1])*n + tuv[2])
			}
			return uint16(base[m] + hermPos(tuv[0], tuv[1], tuv[2]))
		}
		for m := l - 1; m >= 0; m-- {
			for h := 1; h < hermCount[l-m]; h++ {
				tuv := [3]int{int(hermTUV[h][0]), int(hermTUV[h][1]), int(hermTUV[h][2])}
				axis := 0
				for tuv[axis] == 0 {
					axis++
				}
				st := rStep{dst: slot(m, tuv), axis: uint8(axis), weight: float64(tuv[axis] - 1)}
				tuv[axis]--
				st.src1 = slot(m+1, tuv)
				st.src2 = st.src1
				if tuv[axis] > 0 {
					tuv[axis]--
					st.src2 = slot(m+1, tuv)
				}
				p.steps = append(p.steps, st)
			}
		}
	})
	return p
}

// rSize returns the buffer length buildR needs at total angular momentum l.
func rSize(l int) int {
	if l <= 4 {
		return (l + 1) * (l + 1) * (l + 1)
	}
	return rProgramFor(l).size
}

// buildR writes the order-0 Hermite Coulomb tensor at separation (x, y, z)
// into w (length ≥ rSize(l)) from the Boys values f[m] = F_m(T), m ≤ l,
// seeding with R^m_{000} = scale·(−2p)^m·f[m]: R is linear in its seeds, so
// the prefactor folded in here multiplies the whole tensor. l = 1 and 2 —
// 4 and 10 live entries, the bulk of an s/p census — are written out,
// l = 3 and 4 run their rProgram as generated straight-line code (rgen.go,
// which writes the cube only) and the rest interpret it.
func buildR(l int, f []float64, p, scale, x, y, z float64, w []float64) {
	p2 := -2 * p
	switch l {
	case 0:
		w[0] = scale * f[0]
	case 1:
		w = w[:8]
		s1 := f[1] * (scale * p2)
		w[0] = f[0] * scale
		w[1], w[2], w[4] = z*s1, y*s1, x*s1
	case 2:
		w = w[:27]
		scale1 := scale * p2
		s1, s2 := f[1]*scale1, f[2]*(scale1*p2)
		az, ay, ax := z*s2, y*s2, x*s2 // R^1 at degree 1
		w[0] = f[0] * scale
		w[1], w[3], w[9] = z*s1, y*s1, x*s1
		w[2], w[6], w[18] = z*az+s1, y*ay+s1, x*ax+s1
		w[4], w[10], w[12] = y*az, x*az, x*ay
	case 3:
		buildR3(f, p, scale, x, y, z, w)
	case 4:
		buildR4(f, p, scale, x, y, z, w)
	default:
		prog := rProgramFor(l)
		w = w[:prog.size]
		xyz := [3]float64{x, y, z}
		w[0] = f[0] * scale
		o := (l + 1) * (l + 1) * (l + 1)
		for m := 1; m <= l; m++ {
			scale *= p2
			w[o] = f[m] * scale
			o += hermCount[l-m]
		}
		for i := range prog.steps {
			st := &prog.steps[i]
			w[st.dst] = xyz[st.axis]*w[st.src1] + st.weight*w[st.src2]
		}
	}
}

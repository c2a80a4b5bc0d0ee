package integrals

import (
	"math"
	"slices"

	"hfxmd/internal/basis"
	"hfxmd/internal/boys"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// Nuclear-coordinate derivatives of the integrals, for analytic forces.
//
// A Cartesian primitive x_A^i·e^{−a·x_A²} differentiates with respect to
// its centre into 2a·x_A^{i+1}·e^{…} − i·x_A^{i−1}·e^{…}, and the product
// with a second primitive keeps the Gaussian-product centre and exponent,
// so the derivative of a primitive pair has the Hermite expansion
//
//	∂/∂A_x : Σ_t (2a·E_t^{i+1,j} − i·E_t^{i−1,j})·Λ_t
//	∂/∂B_x : Σ_t (2b·E_t^{i,j+1} − j·E_t^{i,j−1})·Λ_t
//
// with t reaching i+j+1. The derivative of a shell pair is therefore an
// ordinary pairData one Hermite degree higher, and every Coulomb-type
// derivative integral runs through the unchanged eriQuartet / buildR core.

// derivStack is the number of derivative components a derivative pair
// table stacks per Cartesian component pair: centre (a, then b) × axis.
const derivStack = 6

// buildDerivPairData is buildPairData for the six centre derivatives of a
// shell pair: a pairData with l = la+lb+1 whose component index runs
// [centre][axis][a][b], i.e. ncomp = 6·na·nb, in contraction order and
// without bounds.
func buildDerivPairData(sa, sb *basis.Shell) *pairData {
	if sa.L+sb.L+1 > maxHermL {
		panic("integrals: derivative tables unsupported for this angular momentum")
	}
	pb := getPairBuilder()
	pb.terms(sa, sb, true)
	pd := &pairData{
		l: sa.L + sb.L + 1, ncomp: derivStack * NCart(sa.L) * NCart(sb.L),
		prims: slices.Clone(pb.prims), off: slices.Clone(pb.off),
		hidx: slices.Clone(pb.hidx), val: slices.Clone(pb.val),
	}
	putPairBuilder(pb)
	return pd
}

// ERIShellDeriv computes the derivatives of the quartet block (ab|cd) with
// respect to the centres of its bra shells and writes them into out as
// [centre][axis][na][nb][nc][nd] (centre 0 = shell a, 1 = shell b; length
// 6·na·nb·nc·nd). The ket-centre derivatives are the transposed blocks of
// ERIShellDeriv(c, d, a, b): (ab|cd) = (cd|ab).
func (e *Engine) ERIShellDeriv(a, b, c, d int, out []float64, scratch *Scratch) {
	eriQuartet(e.derivPairDataFor(a, b), e.pairDataFor(c, d), out, false, nil, scratch)
}

// MaxERIDerivBufLen returns the largest ERIShellDeriv block over the basis.
func (e *Engine) MaxERIDerivBufLen() int { return derivStack * e.MaxERIBufLen() }

// OneElectronGradient returns the nuclear-coordinate gradient of
// Tr(p·(T+V)) − Tr(w·S) at fixed symmetric p and w — the core-Hamiltonian
// and orthonormality terms of an SCF energy gradient, one vector per atom.
func (e *Engine) OneElectronGradient(p, w *linalg.Matrix) []chem.Vec3 {
	g := make([]chem.Vec3, e.Basis.Mol.NAtoms())
	e.overlapGradient(w, -1, g)
	e.kineticGradient(p, g)
	e.nuclearGradient(p, g, g)
	return g
}

// forShellPairs calls fn for every canonical shell pair i ≤ j with the
// weight its block carries in a trace against a symmetric matrix.
func (e *Engine) forShellPairs(fn func(i, j int, weight float64)) {
	for i := range e.Basis.Shells {
		for j := i; j < len(e.Basis.Shells); j++ {
			weight := 2.0
			if i == j {
				weight = 1
			}
			fn(i, j, weight)
		}
	}
}

// overlapGradient adds scale·∂Tr(w·S)/∂R to g. The overlap of a primitive
// pair is the Λ_000 coefficient times (π/p)^{3/2}, so its derivative is
// the leading term of the pair's derivative table.
func (e *Engine) overlapGradient(w *linalg.Matrix, scale float64, g []chem.Vec3) {
	set := e.Basis
	e.forShellPairs(func(i, j int, weight float64) {
		sa, sb := &set.Shells[i], &set.Shells[j]
		if sa.Atom == sb.Atom {
			return // ∂/∂A + ∂/∂B = 0 lands on one atom
		}
		pd := e.derivPairDataFor(i, j)
		na, nb := sa.NFuncs(), sb.NFuncs()
		nab := na * nb
		for ip := range pd.prims {
			pp := pd.prims[ip].p
			// val carries 1/p (the ERI convention); undo it.
			norm := weight * scale * pp * math.Pow(math.Pi/pp, 1.5)
			off := pd.off[ip*pd.ncomp : (ip+1)*pd.ncomp+1]
			for centre, atom := range [2]int{sa.Atom, sb.Atom} {
				for axis := 0; axis < 3; axis++ {
					base := (centre*3 + axis) * nab
					var acc float64
					for ab := 0; ab < nab; ab++ {
						k := off[base+ab]
						if k < off[base+ab+1] && pd.hidx[k] == 0 {
							acc += w.At(sa.Index+ab/nb, sb.Index+ab%nb) * pd.val[k]
						}
					}
					g[atom][axis] += norm * acc
				}
			}
		}
	})
}

// kineticGradient adds ∂Tr(p·T)/∂R to g, differentiating the kinetic
// integral's per-dimension factors (primWalk.kinetic) with respect to
// centre A (∂/∂B = −∂/∂A).
func (e *Engine) kineticGradient(p *linalg.Matrix, g []chem.Vec3) {
	set := e.Basis
	pw := new(primWalk)
	e.forShellPairs(func(i, j int, weight float64) {
		sa, sb := &set.Shells[i], &set.Shells[j]
		if sa.Atom == sb.Atom {
			return
		}
		var d chem.Vec3
		pw.walk(sa, sb, sa.L+1, sb.L+2, func() {
			ea, coef := pw.ea, pw.coef
			pw.kinetic(sa.L+1, sb.L)
			s := func(k, i, j int) float64 {
				if i < 0 || j < 0 {
					return 0
				}
				return pw.s[k][i][j]
			}
			t := func(k, i, j int) float64 {
				if i < 0 {
					return 0
				}
				return pw.t[k][i][j]
			}
			// da differentiates a 1D factor with respect to A.
			da := func(f func(k, i, j int) float64, k, i, j int) float64 {
				return 2*ea*f(k, i+1, j) - float64(i)*f(k, i-1, j)
			}
			for a, cA := range Components(sa.L) {
				ai := [3]int{cA.X, cA.Y, cA.Z}
				for b, cB := range Components(sb.L) {
					bi := [3]int{cB.X, cB.Y, cB.Z}
					wt := weight * coef * cartNorms[sa.L][a] * cartNorms[sb.L][b] *
						p.At(sa.Index+a, sb.Index+b)
					if wt == 0 {
						continue
					}
					var sv, tv, dsv, dtv [3]float64
					for k := 0; k < 3; k++ {
						sv[k], tv[k] = s(k, ai[k], bi[k]), t(k, ai[k], bi[k])
						dsv[k], dtv[k] = da(s, k, ai[k], bi[k]), da(t, k, ai[k], bi[k])
					}
					for k := 0; k < 3; k++ {
						k1, k2 := (k+1)%3, (k+2)%3
						d[k] += wt * (dtv[k]*sv[k1]*sv[k2] + dsv[k]*(tv[k1]*sv[k2]+sv[k1]*tv[k2]))
					}
				}
			}
		})
		for k := 0; k < 3; k++ {
			g[sa.Atom][k] += d[k]
			g[sb.Atom][k] -= d[k]
		}
	})
}

// nuclearGradient adds ∂Tr(p·V)/∂R to gBasis (the basis-function centres,
// from the pair's derivative table) and gOp (the attracting nuclei:
// ∂R_tuv(P−C)/∂C_x = −R_{t+1,u,v}, from the pair's plain table). Both
// contract against one R tensor of degree la+lb+1 per primitive pair and
// nucleus.
func (e *Engine) nuclearGradient(p *linalg.Matrix, gBasis, gOp []chem.Vec3) {
	set := e.Basis
	maxl := 2*set.MaxL() + 1
	fn := make([]float64, maxl+1)
	r := make([]float64, rSize(maxl))
	var pblk []float64
	e.forShellPairs(func(i, j int, weight float64) {
		sa, sb := &set.Shells[i], &set.Shells[j]
		plain, deriv := e.pairDataFor(i, j), e.derivPairDataFor(i, j)
		na, nb := sa.NFuncs(), sb.NFuncs()
		nab := na * nb
		pblk = grow(pblk, nab)
		for ab := range pblk {
			pblk[ab] = weight * p.At(sa.Index+ab/nb, sb.Index+ab%nb)
		}
		l := deriv.l
		n := l + 1
		step := [3]int{n * n, n, 1} // cube offset of one more degree along an axis
		cube := func(h uint8) int {
			tuv := hermTUV[h]
			return (int(tuv[0])*n+int(tuv[1]))*n + int(tuv[2])
		}
		for ip := range plain.prims {
			pr := &plain.prims[ip]
			offP := plain.off[ip*plain.ncomp : (ip+1)*plain.ncomp+1]
			// The plain table is stored by descending Schwarz factor, the
			// derivative table in contraction order.
			id := int(plain.order[ip])
			offD := deriv.off[id*deriv.ncomp : (id+1)*deriv.ncomp+1]
			for ci, atom := range set.Mol.Atoms {
				x, y, z := pr.px[0]-atom.Pos[0], pr.px[1]-atom.Pos[1], pr.px[2]-atom.Pos[2]
				boys.Eval(l, pr.p*(x*x+y*y+z*z), fn)
				buildR(l, fn, pr.p, -2*math.Pi*float64(atom.El), x, y, z, r)
				for centre, at := range [2]int{sa.Atom, sb.Atom} {
					for axis := 0; axis < 3; axis++ {
						base := (centre*3 + axis) * nab
						var acc float64
						for ab, pw := range pblk {
							var v float64
							for k := offD[base+ab]; k < offD[base+ab+1]; k++ {
								v += deriv.val[k] * r[cube(deriv.hidx[k])]
							}
							acc += pw * v
						}
						gBasis[at][axis] += acc
					}
				}
				var op chem.Vec3
				for ab, pw := range pblk {
					var v chem.Vec3
					for k := offP[ab]; k < offP[ab+1]; k++ {
						o, val := cube(plain.hidx[k]), plain.val[k]
						v[0] += val * r[o+step[0]]
						v[1] += val * r[o+step[1]]
						v[2] += val * r[o+step[2]]
					}
					op[0] += pw * v[0]
					op[1] += pw * v[1]
					op[2] += pw * v[2]
				}
				gOp[ci][0] -= op[0]
				gOp[ci][1] -= op[1]
				gOp[ci][2] -= op[2]
			}
		}
	})
}

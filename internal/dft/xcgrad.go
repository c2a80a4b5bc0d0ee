package dft

import (
	"math"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// The nuclear-coordinate gradient of the integrated XC energy
// E = Σ_g w_g·f(ρ_g, γ_g) at fixed density matrix has three parts, all
// evaluated point by point on the integrator's tables:
//
//   - basis centres: with T = P·φ, a_ν = w·f_ρ·φ_ν + 2w·f_γ·(∇ρ·∇φ_ν) and
//     Q = P·a, function μ contributes −2[∇φ_μ·Q_μ + 2w·f_γ·(∇∇φ_μ·∇ρ)·T_μ]
//     to its atom;
//   - moving grid: a point is rigidly attached to the atom that owns it, and
//     ρ and γ at the point depend only on positions relative to it, so the
//     owner receives minus the sum of the point's basis-centre terms (and
//     functions on the owner contribute nothing at all);
//   - weights: f·∂w/∂R with the Becke partition differentiated in closed
//     form for every atom but the owner, which again takes minus the sum.
//
// The result is the exact derivative of what Integrate computes on a grid
// rebuilt at the displaced geometry, not of the continuum integral.

// xcGradTables is what Gradient needs beyond Integrate's tables. It is
// built by the first Gradient call, so an integrator that only ever serves
// SCF iterations never carries it.
type xcGradTables struct {
	dphi   [][3]float64 // ∇φ, points × n: the integrator's own table for a GGA
	hphi   [][6]float64 // ∇∇φ (xx, xy, xz, yy, yz, zz), points × n; nil for an LDA
	fnAtom []int        // atom of every basis function
}

// xcGradScratch is one chunk's working set and partial gradient.
type xcGradScratch struct {
	g     []float64 // 3 × atoms
	t, a  []float64 // n each
	part  becke     // Becke partition with the chunk's own per-point scratch
	u, dw []chem.Vec3
}

// Gradient returns the nuclear-coordinate gradient of the XC energy
// Integrate(p).Energy at fixed density p, one vector per atom. The chunks'
// partial gradients are merged in index order, so like Integrate the bits
// do not depend on GOMAXPROCS. After the first call on an integrator it
// allocates only its result.
func (it *Integrator) Gradient(p *linalg.Matrix) []chem.Vec3 {
	natoms := it.set.Mol.NAtoms()
	if it.grad == nil {
		it.grad = newXCGradTables(it)
		// One slab each for all the chunks' scratch.
		scratch := make([]xcGradScratch, len(it.chunks))
		shared := newBecke(it.set.Mol)
		floats := make([]float64, len(it.chunks)*(5*natoms+2*it.n))
		vecs := make([]chem.Vec3, len(it.chunks)*2*natoms)
		cut := func(n int) []float64 {
			s := floats[:n:n]
			floats = floats[n:]
			return s
		}
		for ci := range it.chunks {
			s := &scratch[ci]
			s.g, s.t, s.a = cut(3*natoms), cut(it.n), cut(it.n)
			s.part = becke{atoms: shared.atoms, dist: shared.dist, r: cut(natoms), cell: cut(natoms)}
			s.u, s.dw = vecs[:natoms:natoms], vecs[natoms:2*natoms:2*natoms]
			vecs = vecs[2*natoms:]
			it.chunks[ci].grad = s
		}
	}
	it.run(p, true)
	out := make([]chem.Vec3, natoms)
	for ci := range it.chunks {
		g := it.chunks[ci].grad.g
		for a := range out {
			out[a][0] += g[3*a]
			out[a][1] += g[3*a+1]
			out[a][2] += g[3*a+2]
		}
	}
	return out
}

func newXCGradTables(it *Integrator) *xcGradTables {
	set, n, np := it.set, it.n, len(it.pts)
	gt := &xcGradTables{dphi: it.dphi, fnAtom: make([]int, n)}
	for si := range set.Shells {
		sh := &set.Shells[si]
		for k := 0; k < sh.NFuncs(); k++ {
			gt.fnAtom[sh.Index+k] = sh.Atom
		}
	}
	if gt.dphi == nil {
		gt.dphi = make([][3]float64, np*n)
		vals := make([]float64, n)
		for i, pt := range it.pts {
			EvalBasis(set, pt.Pos, vals, gt.dphi[i*n:(i+1)*n])
		}
	} else {
		gt.hphi = make([][6]float64, np*n)
		for i, pt := range it.pts {
			evalBasisHessian(set, pt.Pos, gt.hphi[i*n:(i+1)*n])
		}
	}
	return gt
}

// evalBasisHessian computes the second derivatives of every basis function
// at point r, in the order xx, xy, xz, yy, yz, zz. hess must have length
// set.NBasis.
func evalBasisHessian(set *basis.Set, r chem.Vec3, hess [][6]float64) {
	for si := range set.Shells {
		sh := &set.Shells[si]
		d := [3]float64{r[0] - sh.Center[0], r[1] - sh.Center[1], r[2] - sh.Center[2]}
		r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		// Radial sums R_k = Σ c·α^k·e^{−αr²}.
		var rad0, rad1, rad2 float64
		for pi, alpha := range sh.Exps {
			e := sh.Coefs[pi] * math.Exp(-alpha*r2)
			rad0 += e
			rad1 += alpha * e
			rad2 += alpha * alpha * e
		}
		for ci, comp := range integrals.Components(sh.L) {
			// m = x^l, dm = l·x^{l−1}, ddm = l(l−1)·x^{l−2} per axis.
			m, dm, ddm := [3]float64{1, 1, 1}, [3]float64{}, [3]float64{}
			for k, l := range [3]int{comp.X, comp.Y, comp.Z} {
				for ; l > 0; l-- {
					ddm[k] = ddm[k]*d[k] + 2*dm[k]
					dm[k] = dm[k]*d[k] + m[k]
					m[k] *= d[k]
				}
			}
			ang := m[0] * m[1] * m[2]
			da := [3]float64{dm[0] * m[1] * m[2], m[0] * dm[1] * m[2], m[0] * m[1] * dm[2]}
			norm := integrals.ComponentNorm(comp)
			// ∂_i∂_j[ang·R(r²)] = ∂_i∂_j ang·R_0 − 2(d_j·∂_i ang + d_i·∂_j ang + δ_ij·ang)·R_1 + 4d_i·d_j·ang·R_2.
			second := func(i, j int, dda float64) float64 {
				v := dda*rad0 - 2*(d[j]*da[i]+d[i]*da[j])*rad1 + 4*d[i]*d[j]*ang*rad2
				if i == j {
					v -= 2 * ang * rad1
				}
				return norm * v
			}
			hess[sh.Index+ci] = [6]float64{
				second(0, 0, ddm[0]*m[1]*m[2]),
				second(0, 1, dm[0]*dm[1]*m[2]),
				second(0, 2, dm[0]*m[1]*dm[2]),
				second(1, 1, m[0]*ddm[1]*m[2]),
				second(1, 2, m[0]*dm[1]*dm[2]),
				second(2, 2, m[0]*m[1]*ddm[2]),
			}
		}
	}
}

// gradientChunk accumulates the chunk's share of the gradient.
func (it *Integrator) gradientChunk(c *xcChunk) {
	gt, s, n := it.grad, c.grad, it.n
	clear(s.g)
	for i := c.lo; i < c.hi; i++ {
		phi, dphi := it.phi[i*n:(i+1)*n], gt.dphi[i*n:(i+1)*n]
		var rho float64
		for mu := range s.t {
			var v float64
			for nu, x := range it.p.Row(mu) {
				v += x * phi[nu]
			}
			s.t[mu] = v
			rho += v * phi[mu]
		}
		if rho < rhoFloor {
			continue
		}
		var grho [3]float64
		if gt.hphi != nil {
			for mu, x := range s.t {
				grho[0] += x * dphi[mu][0]
				grho[1] += x * dphi[mu][1]
				grho[2] += x * dphi[mu][2]
			}
			grho = [3]float64{2 * grho[0], 2 * grho[1], 2 * grho[2]}
		}
		pt := &it.pts[i]
		fv, dfdrho, dfdgamma := it.f.Eval(rho, grho[0]*grho[0]+grho[1]*grho[1]+grho[2]*grho[2])
		it.weightGradient(pt, pt.W*fv, s)

		ar, ag := pt.W*dfdrho, 2*pt.W*dfdgamma
		for nu := range s.a {
			s.a[nu] = ar*phi[nu] + ag*(grho[0]*dphi[nu][0]+grho[1]*dphi[nu][1]+grho[2]*dphi[nu][2])
		}
		own := s.g[3*pt.Atom : 3*pt.Atom+3]
		for mu, atom := range gt.fnAtom {
			if atom == pt.Atom {
				continue // moves with the point
			}
			var q float64
			for nu, x := range it.p.Row(mu) {
				q += x * s.a[nu]
			}
			v := [3]float64{dphi[mu][0] * q, dphi[mu][1] * q, dphi[mu][2] * q}
			if gt.hphi != nil {
				h, tg := &gt.hphi[i*n+mu], ag*s.t[mu]
				v[0] += tg * (h[0]*grho[0] + h[1]*grho[1] + h[2]*grho[2])
				v[1] += tg * (h[1]*grho[0] + h[3]*grho[1] + h[4]*grho[2])
				v[2] += tg * (h[2]*grho[0] + h[4]*grho[1] + h[5]*grho[2])
			}
			g := s.g[3*atom : 3*atom+3]
			for k := range g {
				g[k] -= 2 * v[k]
				own[k] += 2 * v[k]
			}
		}
	}
}

// weightGradient adds e·∂ln w/∂R to s.g for the Becke weight w of point
// pt, for every atom. With cells p_i = Π_{j≠i} s(μ_ij), μ_ij = (r_i −
// r_j)/R_ij and w ∝ p_o/Σp (o the owner),
//
//	∂ln w/∂R_A = Σ_i (δ_io − p_i/Σp)·∂ln p_i/∂R_A,
//
// and with the point held fixed μ_ij depends on R_A only for A = i or j:
//
//	∂μ_ij/∂R_i = −(u_i + μ_ij·e_ij)/R_ij,  ∂μ_ij/∂R_j = (u_j + μ_ij·e_ij)/R_ij,
//
// u_i the unit vector from atom i to the point, e_ij the one from j to i.
// The owner carries the point along, so by translational invariance it
// takes minus the sum over the other atoms.
func (it *Integrator) weightGradient(pt *GridPoint, e float64, s *xcGradScratch) {
	atoms := it.set.Mol.Atoms
	na := len(atoms)
	if na == 1 {
		return
	}
	part := &s.part
	total := part.cells(pt.Pos)
	if total <= 0 {
		return
	}
	for i, a := range atoms {
		s.u[i] = chem.Vec3{}
		if part.r[i] > 0 {
			s.u[i] = pt.Pos.Sub(a.Pos).Scale(1 / part.r[i])
		}
		s.dw[i] = chem.Vec3{}
	}
	// smooth returns Becke's thrice-iterated polynomial of μ and its
	// derivative.
	smooth := func(mu float64) (f, df float64) {
		f, df = mu, 1
		for k := 0; k < 3; k++ {
			df *= 1.5 * (1 - f*f)
			f = 1.5*f - 0.5*f*f*f
		}
		return f, df
	}
	o := pt.Atom
	for i := 0; i < na; i++ {
		ci := -part.cell[i] / total
		if i == o {
			ci++
		}
		for j := i + 1; j < na; j++ {
			cj := -part.cell[j] / total
			if j == o {
				cj++
			}
			inv := 1 / part.dist[i*na+j]
			mu := (part.r[i] - part.r[j]) * inv
			f, df := smooth(mu)
			// k = ∂ln w/∂μ_ij: cell i holds s = (1−f)/2, cell j holds (1+f)/2;
			// a factor that underflowed to zero took its cell with it.
			var k float64
			if f < 1 {
				k -= ci * df / (1 - f)
			}
			if f > -1 {
				k += cj * df / (1 + f)
			}
			if k == 0 {
				continue
			}
			k *= inv
			eij := atoms[i].Pos.Sub(atoms[j].Pos).Scale(mu * inv)
			if i != o {
				s.dw[i] = s.dw[i].Sub(s.u[i].Add(eij).Scale(k))
			}
			if j != o {
				s.dw[j] = s.dw[j].Add(s.u[j].Add(eij).Scale(k))
			}
		}
	}
	own := s.g[3*o : 3*o+3]
	for a, dw := range s.dw {
		if a == o {
			continue
		}
		g := s.g[3*a : 3*a+3]
		for k := range g {
			g[k] += e * dw[k]
			own[k] -= e * dw[k]
		}
	}
}

package dft

import (
	"hfxmd/internal/chem"
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

// xcGradScratch is one chunk's working set and partial gradient.
type xcGradScratch struct {
	g     []float64 // 3 × atoms
	t, a  []float64 // n each
	part  becke     // Becke partition with the chunk's own per-point scratch
	u, dw []chem.Vec3
}

// bindGradScratch points the chunks' Becke partitions at the bound
// molecule, (re)allocating every chunk's gradient scratch — one slab each
// for the floats and the vectors — when the atom count or basis size moved.
func (it *Integrator) bindGradScratch() {
	mol, n := it.set.Mol, it.n
	natoms := mol.NAtoms()
	first := &it.slab[0].grad
	if len(first.g) != 3*natoms || len(first.t) != n {
		floats := make([]float64, xcChunks*(5*natoms+2*n)+natoms*natoms)
		vecs := make([]chem.Vec3, xcChunks*2*natoms)
		cut := func(k int) []float64 {
			s := floats[:k:k]
			floats = floats[k:]
			return s
		}
		dist := cut(natoms * natoms)
		for ci := range it.slab {
			s := &it.slab[ci].grad
			s.g, s.t, s.a = cut(3*natoms), cut(n), cut(n)
			s.part = becke{dist: dist, r: cut(natoms), cell: cut(natoms)}
			s.u, s.dw = vecs[:natoms:natoms], vecs[natoms:2*natoms:2*natoms]
			vecs = vecs[2*natoms:]
		}
	}
	first.part.bind(mol) // dist is shared by all the chunks
	for ci := range it.slab {
		it.slab[ci].grad.part.atoms = mol.Atoms
	}
}

// Gradient returns the nuclear-coordinate gradient of the XC energy
// Integrate(p).Energy at fixed density p, one vector per atom. The chunks'
// partial gradients are merged in index order, so like Integrate the bits
// do not depend on GOMAXPROCS. On an integrator bound for forces it
// allocates only its result.
func (it *Integrator) Gradient(p *linalg.Matrix) []chem.Vec3 {
	if !it.forces {
		it.Rebind(it.f, it.set, it.grid, true)
	}
	it.run(p, true)
	out := make([]chem.Vec3, it.set.Mol.NAtoms())
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

// gradientChunk accumulates the chunk's share of the gradient.
func (it *Integrator) gradientChunk(c *xcChunk) {
	s, n, gga := &c.grad, it.n, it.f.NeedsGradient()
	clear(s.g)
	for i := c.lo; i < c.hi; i++ {
		phi, dphi := it.phi[i*n:(i+1)*n], it.dphi[i*n:(i+1)*n]
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
		if gga {
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
		for mu, atom := range it.fnAtom {
			if atom == pt.Atom {
				continue // moves with the point
			}
			var q float64
			for nu, x := range it.p.Row(mu) {
				q += x * s.a[nu]
			}
			v := [3]float64{dphi[mu][0] * q, dphi[mu][1] * q, dphi[mu][2] * q}
			if gga {
				h, tg := &it.hphi[i*n+mu], ag*s.t[mu]
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

package dft

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// XCResult holds the integrated exchange–correlation quantities.
type XCResult struct {
	// Energy is the semilocal XC energy in hartree.
	Energy float64
	// V is the Kohn–Sham XC matrix.
	V *linalg.Matrix
	// NElec is the grid-integrated electron count (grid diagnostic).
	NElec float64
}

// EvalBasis computes every basis-function value and, unless grads is nil,
// gradient at point r. vals and grads must have length set.NBasis.
func EvalBasis(set *basis.Set, r chem.Vec3, vals []float64, grads [][3]float64) {
	tabulate(set, r, vals, grads, nil, -1)
}

// tabulate is the one basis-function evaluator: values into vals, gradients
// into grads unless it is nil, and second derivatives (xx, xy, xz, yy, yz,
// zz) into hess unless it is nil — except for the functions on atom skip,
// whose second derivatives the gradient never reads (they move with the
// points that atom owns). Every slice has length set.NBasis. A shell's
// radial sums R_k = Σ c·α^k·e^{−αr²} are shared by all its components and
// all three orders, one exp per primitive:
//
//	∂_i[a·R] = ∂_i a·R_0 − 2d_i·a·R_1,
//	∂_i∂_j[a·R] = ∂_i∂_j a·R_0 − 2(d_j·∂_i a + d_i·∂_j a + δ_ij·a)·R_1 + 4d_i·d_j·a·R_2,
//
// a the angular monomial and d the vector from the shell centre to r.
func tabulate(set *basis.Set, r chem.Vec3, vals []float64, grads [][3]float64, hess [][6]float64, skip int) {
	for si := range set.Shells {
		sh := &set.Shells[si]
		d := [3]float64{r[0] - sh.Center[0], r[1] - sh.Center[1], r[2] - sh.Center[2]}
		r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		second := hess != nil && sh.Atom != skip
		var rad0, rad1, rad2 float64
		for pi, alpha := range sh.Exps {
			e := sh.Coefs[pi] * math.Exp(-alpha*r2)
			rad0 += e
			rad1 += alpha * e
			if second {
				rad2 += alpha * alpha * e
			}
		}
		for ci, comp := range integrals.Components(sh.L) {
			// m = x^l, dm = l·x^{l−1}, ddm = l(l−1)·x^{l−2} per axis, built
			// up by the product rule.
			m, dm, ddm := [3]float64{1, 1, 1}, [3]float64{}, [3]float64{}
			for k, l := range [3]int{comp.X, comp.Y, comp.Z} {
				for ; l > 0; l-- {
					ddm[k] = ddm[k]*d[k] + 2*dm[k]
					dm[k] = dm[k]*d[k] + m[k]
					m[k] *= d[k]
				}
			}
			norm := integrals.ComponentNorm(comp)
			ang := m[0] * m[1] * m[2]
			vals[sh.Index+ci] = norm * ang * rad0
			if grads == nil {
				continue
			}
			da := [3]float64{dm[0] * m[1] * m[2], m[0] * dm[1] * m[2], m[0] * m[1] * dm[2]}
			a1 := 2 * ang * rad1
			grads[sh.Index+ci] = [3]float64{
				norm * (da[0]*rad0 - a1*d[0]),
				norm * (da[1]*rad0 - a1*d[1]),
				norm * (da[2]*rad0 - a1*d[2]),
			}
			if !second {
				continue
			}
			h := func(i, j int, dda float64) float64 {
				v := dda*rad0 - 2*(d[j]*da[i]+d[i]*da[j])*rad1 + 4*d[i]*d[j]*ang*rad2
				if i == j {
					v -= a1
				}
				return norm * v
			}
			hess[sh.Index+ci] = [6]float64{
				h(0, 0, ddm[0]*m[1]*m[2]),
				h(0, 1, dm[0]*dm[1]*m[2]),
				h(0, 2, dm[0]*m[1]*dm[2]),
				h(1, 1, m[0]*ddm[1]*m[2]),
				h(1, 2, m[0]*dm[1]*dm[2]),
				h(2, 2, m[0]*m[1]*ddm[2]),
			}
		}
	}
}

const (
	// xcChunks is the number of pieces the live points are cut into. It is
	// fixed, not derived from the worker count, and the pieces' partial
	// sums are merged in index order, so the result does not depend on how
	// many workers shared them out.
	xcChunks = 16
	// xcBlock is the number of grid points processed together.
	xcBlock = 32
	// liveFloor is the Σ_μφ_μ² below which a grid point is dropped from the
	// tables. The density there is at most λ_max(P)·Σφ², so with four
	// orders of magnitude between liveFloor and rhoFloor a point is only
	// lost if the functional would have skipped it anyway.
	liveFloor = 1e-16
)

// Integrator evaluates the semilocal XC energy and Kohn–Sham matrix of one
// functional on one geometry's grid, once per SCF iteration, and the
// nuclear gradient of that energy once per force evaluation. Rebind
// tabulates the basis functions at the grid points that carry any basis
// amplitude — the live points; point-major rows, so a block of consecutive
// points is one contiguous panel of Φ — and every later pass runs on those
// tables alone. The integrator owns every buffer and keeps it from one
// geometry to the next; its zero value is ready for Rebind.
type Integrator struct {
	f      Functional
	set    *basis.Set
	n      int
	grid   *Grid // every point of the bound geometry, live or not
	forces bool  // the tables hold what Gradient reads

	pts    []GridPoint  // the live points
	phi    []float64    // live × n
	dphi   [][3]float64 // ∇φ, live × n; filled for a GGA or for forces
	hphi   [][6]float64 // ∇∇φ, live × n; filled for a GGA's forces, off-owner functions only
	fnAtom []int        // atom of every basis function

	slab   []xcChunk // xcChunks of them, buffers sized for n
	chunks []xcChunk // the slab's prefix that covers the live points
	res    XCResult
	passes int64
	// keepDead makes every grid point live: the tests' full-table
	// reference.
	keepDead bool

	// State of the Integrate or Gradient call in flight.
	p        *linalg.Matrix
	gradient bool // drain differentiates the chunks instead of integrating them
	next     atomic.Int32
	wg       sync.WaitGroup
	work     func() // drain + wg.Done, bound once so that `go` allocates nothing
}

// xcChunk is a contiguous range of live points with its partial sums.
type xcChunk struct {
	lo, hi        int
	v             []float64 // n × n; the chunk's share of V is (v + vᵀ)/2
	t             []float64 // xcBlock × n scratch
	energy, nelec float64
	grad          xcGradScratch // sized by the first Rebind for forces
}

// NewIntegrator returns an integrator for functional f bound to set on g.
func NewIntegrator(f Functional, set *basis.Set, g *Grid) *Integrator {
	it := new(Integrator)
	it.Rebind(f, set, g, false)
	return it
}

// grow returns s with length n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rebind points the integrator at a new geometry: set on grid g, for
// functional f. It tabulates φ, ∇φ (for a GGA, or when forces is set) and
// ∇∇φ (for a GGA's forces) in one pass over the grid, keeping only the live
// points. forces announces that Gradient will be called on this geometry;
// a Gradient that was not announced re-tabulates. After the first call for
// a given basis size and atom count Rebind allocates only when the grid
// outgrows the tables.
func (it *Integrator) Rebind(f Functional, set *basis.Set, g *Grid, forces bool) {
	n, np := set.NBasis, len(g.Points)
	if it.work == nil {
		it.work = func() {
			defer it.wg.Done()
			it.drain()
		}
	}
	if n != it.n {
		it.slab = make([]xcChunk, xcChunks)
		buf := make([]float64, xcChunks*(n*n+xcBlock*n))
		for ci := range it.slab {
			c := &it.slab[ci]
			c.v, buf = buf[:n*n:n*n], buf[n*n:]
			c.t, buf = buf[:xcBlock*n:xcBlock*n], buf[xcBlock*n:]
		}
		it.res.V = linalg.NewSquare(n)
		it.fnAtom = make([]int, n)
	}
	it.f, it.set, it.n, it.grid, it.forces = f, set, n, g, forces
	for si := range set.Shells {
		sh := &set.Shells[si]
		for k := 0; k < sh.NFuncs(); k++ {
			it.fnAtom[sh.Index+k] = sh.Atom
		}
	}

	it.pts, it.phi = grow(it.pts, np), grow(it.phi, np*n)
	it.dphi, it.hphi = it.dphi[:0], it.hphi[:0]
	if f.NeedsGradient() || forces {
		it.dphi = grow(it.dphi, np*n)
	}
	if f.NeedsGradient() && forces {
		it.hphi = grow(it.hphi, np*n)
	}
	live := 0
	for i := range g.Points {
		pt := &g.Points[i]
		lo, hi := live*n, (live+1)*n
		var grads [][3]float64
		var hess [][6]float64
		if len(it.dphi) != 0 {
			grads = it.dphi[lo:hi]
		}
		if len(it.hphi) != 0 {
			hess = it.hphi[lo:hi]
		}
		vals := it.phi[lo:hi]
		tabulate(set, pt.Pos, vals, grads, hess, pt.Atom)
		var amp float64
		for _, v := range vals {
			amp += v * v
		}
		if amp >= liveFloor || it.keepDead {
			it.pts[live] = *pt
			live++
		}
	}
	it.pts = it.pts[:live]

	size := (live + xcChunks - 1) / xcChunks
	size = (size + xcBlock - 1) / xcBlock * xcBlock
	it.chunks = it.slab[:0]
	for lo := 0; lo < live; lo += size {
		it.chunks = it.chunks[:len(it.chunks)+1]
		c := &it.chunks[len(it.chunks)-1]
		c.lo, c.hi = lo, min(lo+size, live)
	}
	if forces {
		it.bindGradScratch()
	}
}

// Points returns how many of the bound grid's points are live, and how
// many it has; zeros before the first Rebind.
func (it *Integrator) Points() (live, total int) {
	if it.grid == nil {
		return 0, 0
	}
	return len(it.pts), len(it.grid.Points)
}

// Passes returns the number of Integrate and Gradient passes made over the
// tables since the integrator was created.
func (it *Integrator) Passes() int64 { return it.passes }

// Integrate evaluates the XC energy and matrix for density p. The
// returned V is the integrator's own buffer, valid until the next call;
// an Integrator serves one caller at a time.
func (it *Integrator) Integrate(p *linalg.Matrix) XCResult {
	it.run(p, false)

	v := it.res.V
	v.Zero()
	it.res.Energy, it.res.NElec = 0, 0
	for ci := range it.chunks {
		c := &it.chunks[ci]
		for i, x := range c.v {
			v.Data[i] += x
		}
		it.res.Energy += c.energy
		it.res.NElec += c.nelec
	}
	v.Symmetrize()
	return it.res
}

// run integrates (or, for a gradient, differentiates) every chunk for
// density p, sharing the chunks out over up to GOMAXPROCS goroutines.
func (it *Integrator) run(p *linalg.Matrix, gradient bool) {
	it.passes++
	it.p, it.gradient = p, gradient
	it.next.Store(0)
	for w := min(runtime.GOMAXPROCS(0), len(it.chunks)); w > 1; w-- {
		it.wg.Add(1)
		go it.work()
	}
	it.drain()
	it.wg.Wait()
}

// drain works through chunks until none are left.
func (it *Integrator) drain() {
	for {
		ci := int(it.next.Add(1)) - 1
		if ci >= len(it.chunks) {
			return
		}
		if it.gradient {
			it.gradientChunk(&it.chunks[ci])
		} else {
			it.integrateChunk(&it.chunks[ci])
		}
	}
}

// integrateChunk forms the chunk's partial sums block by block in the
// standard GGA shape: T = Φ·P; ρ = Σ T∘Φ; ∇ρ = 2 Σ T∘∇Φ; then
// v += Φᵀ·A with A = w·∂f/∂ρ·Φ + 4w·∂f/∂γ·(∇ρ·∇Φ), whose symmetrisation
// (v + vᵀ)/2 is w[∂f/∂ρ·φμφν + 2∂f/∂γ·∇ρ·∇(φμφν)].
func (it *Integrator) integrateChunk(c *xcChunk) {
	n, gga := it.n, it.f.NeedsGradient()
	clear(c.v)
	c.energy, c.nelec = 0, 0
	for lo := c.lo; lo < c.hi; lo += xcBlock {
		nb := min(xcBlock, c.hi-lo)
		phi := it.phi[lo*n : (lo+nb)*n]
		t := c.t[:nb*n]
		rowProducts(t, phi, it.p)
		// Per point: density, functional, and the row of A over T's.
		for b := 0; b < nb; b++ {
			tb, pb := t[b*n:(b+1)*n], phi[b*n:(b+1)*n]
			rho, grho, low := it.density(tb, lo+b)
			if low {
				clear(tb)
				continue
			}
			w := it.pts[lo+b].W
			fv, dfdrho, dfdgamma := it.f.Eval(rho, grho[0]*grho[0]+grho[1]*grho[1]+grho[2]*grho[2])
			c.energy += w * fv
			c.nelec += w * rho
			ar, ag := w*dfdrho, 4*w*dfdgamma
			for nu := range tb {
				tb[nu] = ar * pb[nu]
			}
			if gga {
				gb, gx, gy, gz := it.dphi[(lo+b)*n:(lo+b+1)*n], ag*grho[0], ag*grho[1], ag*grho[2]
				for nu := range tb {
					tb[nu] += gx*gb[nu][0] + gy*gb[nu][1] + gz*gb[nu][2]
				}
			}
		}
		for mu := 0; mu < n; mu++ {
			row := c.v[mu*n : (mu+1)*n]
			for b := 0; b < nb; b++ {
				if pm := phi[b*n+mu]; pm != 0 {
					ab := t[b*n:][:len(row)]
					for nu := range row {
						row[nu] += pm * ab[nu]
					}
				}
			}
		}
	}
}

// rowProducts sets dst to rows·P, one n-wide row per row of rows: Σ_μ
// rows_b,μ·P_μν over μ in order, skipping rows' zeros. For a symmetric P
// that is the row (P·rows_b)ᵀ, term for term.
func rowProducts(dst, rows []float64, p *linalg.Matrix) {
	n := p.Rows
	clear(dst)
	for mu := 0; mu < n; mu++ {
		row := p.Row(mu)
		for off := 0; off < len(rows); off += n {
			if pm := rows[off+mu]; pm != 0 {
				db := dst[off:][:len(row)]
				for nu, x := range row {
					db[nu] += pm * x
				}
			}
		}
	}
}

// density returns ρ = Σ t∘φ at live point i from its row t of T = Φ·P,
// whether ρ is below rhoFloor, where the functional is skipped, and
// otherwise for a GGA ∇ρ = 2 Σ t∘∇φ.
func (it *Integrator) density(t []float64, i int) (rho float64, grho [3]float64, low bool) {
	for nu, x := range it.phi[i*it.n : (i+1)*it.n] {
		rho += t[nu] * x
	}
	low = rho < rhoFloor
	if !low && it.f.NeedsGradient() {
		var gx, gy, gz float64 // scalars, so they stay in registers
		for nu, g := range it.dphi[i*it.n : (i+1)*it.n] {
			gx += t[nu] * g[0]
			gy += t[nu] * g[1]
			gz += t[nu] * g[2]
		}
		grho = [3]float64{2 * gx, 2 * gy, 2 * gz}
	}
	return rho, grho, low
}

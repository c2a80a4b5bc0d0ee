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
	for si := range set.Shells {
		sh := &set.Shells[si]
		d := [3]float64{r[0] - sh.Center[0], r[1] - sh.Center[1], r[2] - sh.Center[2]}
		r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		// Radial sums shared by every component of the shell, one exp per
		// primitive: R0 = Σ c·e^{−αr²} and R1 = Σ c·α·e^{−αr²}.
		var rad0, rad1 float64
		for pi, alpha := range sh.Exps {
			e := sh.Coefs[pi] * math.Exp(-alpha*r2)
			rad0 += e
			rad1 += alpha * e
		}
		for ci, comp := range integrals.Components(sh.L) {
			// m[k] = x_k^l and dm[k] = l·x_k^{l−1}, built up by the product rule.
			m, dm := [3]float64{1, 1, 1}, [3]float64{}
			for k, l := range [3]int{comp.X, comp.Y, comp.Z} {
				for ; l > 0; l-- {
					dm[k] = dm[k]*d[k] + m[k]
					m[k] *= d[k]
				}
			}
			norm := integrals.ComponentNorm(comp)
			ang := m[0] * m[1] * m[2]
			vals[sh.Index+ci] = norm * ang * rad0
			if grads != nil {
				// ∇[ang·e^{−αr²}] = (∇ang − 2α·(r−R)·ang)·e^{−αr²}.
				a1 := 2 * ang * rad1
				grads[sh.Index+ci] = [3]float64{
					norm * (dm[0]*m[1]*m[2]*rad0 - a1*d[0]),
					norm * (m[0]*dm[1]*m[2]*rad0 - a1*d[1]),
					norm * (m[0]*m[1]*dm[2]*rad0 - a1*d[2]),
				}
			}
		}
	}
}

const (
	// xcChunks is the number of pieces the grid is cut into. It is fixed,
	// not derived from the worker count, and the pieces' partial sums are
	// merged in index order, so the result does not depend on how many
	// workers shared them out.
	xcChunks = 16
	// xcBlock is the number of grid points processed together.
	xcBlock = 32
)

// Integrator evaluates the semilocal XC energy and Kohn–Sham matrix of one
// functional on one geometry's grid, once per SCF iteration. It tabulates
// the basis functions (and, for a GGA, their gradients) at every grid
// point when it is built — point-major rows, so a block of consecutive
// points is one contiguous panel of Φ and one of ∇Φ — and owns every
// buffer Integrate needs.
type Integrator struct {
	f    Functional
	set  *basis.Set
	n    int
	pts  []GridPoint
	phi  []float64    // points × n
	dphi [][3]float64 // points × n; nil unless f.NeedsGradient()

	chunks []xcChunk
	res    XCResult
	grad   *xcGradTables // nil until the first Gradient

	// State of the Integrate or Gradient call in flight.
	p        *linalg.Matrix
	gradient bool // drain differentiates the chunks instead of integrating them
	next     atomic.Int32
	wg       sync.WaitGroup
	work     func() // drain + wg.Done, bound once so that `go` allocates nothing
}

// xcChunk is a contiguous range of grid points with its partial sums.
type xcChunk struct {
	lo, hi        int
	v             []float64 // n × n; the chunk's share of V is (v + vᵀ)/2
	t             []float64 // xcBlock × n scratch
	energy, nelec float64
	grad          *xcGradScratch // nil until the first Gradient
}

// NewIntegrator tabulates set on g for functional f.
func NewIntegrator(f Functional, set *basis.Set, g *Grid) *Integrator {
	n, np := set.NBasis, len(g.Points)
	it := &Integrator{f: f, set: set, n: n, pts: g.Points, phi: make([]float64, np*n), res: XCResult{V: linalg.NewSquare(n)}}
	if f.NeedsGradient() {
		it.dphi = make([][3]float64, np*n)
	}
	for i, pt := range g.Points {
		var grads [][3]float64
		if it.dphi != nil {
			grads = it.dphi[i*n : (i+1)*n]
		}
		EvalBasis(set, pt.Pos, it.phi[i*n:(i+1)*n], grads)
	}
	size := (np + xcChunks - 1) / xcChunks
	size = (size + xcBlock - 1) / xcBlock * xcBlock
	for lo := 0; lo < np; lo += size {
		it.chunks = append(it.chunks, xcChunk{
			lo: lo, hi: min(lo+size, np),
			v: make([]float64, n*n), t: make([]float64, xcBlock*n),
		})
	}
	it.work = func() {
		defer it.wg.Done()
		it.drain()
	}
	return it
}

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
	n := it.n
	clear(c.v)
	c.energy, c.nelec = 0, 0
	for lo := c.lo; lo < c.hi; lo += xcBlock {
		nb := min(xcBlock, c.hi-lo)
		phi := it.phi[lo*n : (lo+nb)*n]
		t := c.t[:nb*n]
		clear(t)
		for mu := 0; mu < n; mu++ {
			row := it.p.Row(mu)
			for b := 0; b < nb; b++ {
				if pm := phi[b*n+mu]; pm != 0 {
					tb := t[b*n:][:len(row)]
					for nu, x := range row {
						tb[nu] += pm * x
					}
				}
			}
		}
		// Per point: density, functional, and the row of A over T's.
		for b := 0; b < nb; b++ {
			tb, pb := t[b*n:(b+1)*n], phi[b*n:(b+1)*n]
			var rho float64
			for nu, x := range tb {
				rho += x * pb[nu]
			}
			var grho [3]float64
			var gb [][3]float64
			if it.dphi != nil {
				gb = it.dphi[(lo+b)*n : (lo+b+1)*n]
				for nu, x := range tb {
					grho[0] += x * gb[nu][0]
					grho[1] += x * gb[nu][1]
					grho[2] += x * gb[nu][2]
				}
				grho = [3]float64{2 * grho[0], 2 * grho[1], 2 * grho[2]}
			}
			if rho < rhoFloor {
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
			if gb != nil {
				gx, gy, gz := ag*grho[0], ag*grho[1], ag*grho[2]
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

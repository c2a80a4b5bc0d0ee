package dft

import (
	"math"
	"runtime"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// testDensity returns a symmetric, diagonally dominant (hence positive
// definite) density with no zero element, so every term of ρ, ∇ρ and V is
// exercised.
func testDensity(n int) *linalg.Matrix {
	p := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Set(i, j, 0.03+0.01*float64((i+j)%3))
		}
		p.Set(i, i, 1+0.1*float64(i))
	}
	return p
}

func waterIntegrator(f Functional) (*Integrator, *basis.Set, *Grid) {
	mol := chem.Water()
	set := basis.MustBuild("STO-3G", mol)
	g := BuildGrid(mol, DefaultGridSpec())
	return NewIntegrator(f, set, g), set, g
}

func TestIntegrateBitwiseAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range []Functional{LDA{}, PBE0{}} {
		it, set, _ := waterIntegrator(f)
		p := testDensity(set.NBasis)
		var want XCResult
		for i, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := it.Integrate(p)
			if i == 0 {
				want = got
				want.V = got.V.Clone()
				continue
			}
			if got.Energy != want.Energy || got.NElec != want.NElec {
				t.Fatalf("%s GOMAXPROCS=%d: energy %.17g nelec %.17g, want %.17g %.17g",
					f.Name(), procs, got.Energy, got.NElec, want.Energy, want.NElec)
			}
			for k, v := range got.V.Data {
				if v != want.V.Data[k] {
					t.Fatalf("%s GOMAXPROCS=%d: V[%d] = %.17g, want %.17g", f.Name(), procs, k, v, want.V.Data[k])
				}
			}
		}
	}
}

// V must be the derivative of the integrated energy with respect to the
// density matrix — an oracle that shares nothing with how V is assembled.
// Off-diagonal elements are moved in symmetric pairs (the integrator
// takes P symmetric), which differentiates to V_μν + V_νμ.
func TestXCMatrixIsEnergyDerivative(t *testing.T) {
	const h = 1e-4
	for _, f := range []Functional{LDA{}, PBE{}, PBE0{}} {
		it, set, _ := waterIntegrator(f)
		n := set.NBasis
		p := testDensity(n)
		v := it.Integrate(p).V.Clone()
		if !v.IsSymmetric(0) {
			t.Fatalf("%s: V not exactly symmetric", f.Name())
		}
		energy := func(mu, nu int, step float64) float64 {
			q := p.Clone()
			q.Add(mu, nu, step)
			if mu != nu {
				q.Add(nu, mu, step)
			}
			return it.Integrate(q).Energy
		}
		for mu := 0; mu < n; mu++ {
			for nu := 0; nu <= mu; nu++ {
				fd := (energy(mu, nu, h) - energy(mu, nu, -h)) / (2 * h)
				want := v.At(mu, nu)
				if mu != nu {
					want *= 2
				}
				if math.Abs(fd-want) > 1e-7*(1+math.Abs(want)) {
					t.Fatalf("%s: dE/dP[%d,%d] = %.10g, V gives %.10g", f.Name(), mu, nu, fd, want)
				}
			}
		}
	}
}

func TestIntegrateSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	it, set, _ := waterIntegrator(PBE0{})
	p := testDensity(set.NBasis)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		it.Integrate(p) // warm the runtime's goroutine free list
		if a := testing.AllocsPerRun(20, func() { it.Integrate(p) }); a != 0 {
			t.Fatalf("GOMAXPROCS=%d: %g allocs per steady-state Integrate, want 0", procs, a)
		}
	}
}

// The tables hold exactly EvalBasis's values at the live points, in grid
// order, and every point left out has no basis amplitude.
func TestTablesMatchEvalBasis(t *testing.T) {
	for _, f := range []Functional{LDA{}, PBE{}} {
		it, set, g := waterIntegrator(f)
		n := set.NBasis
		if (len(it.dphi) != 0) != f.NeedsGradient() || len(it.hphi) != 0 {
			t.Fatalf("%s: ∇φ table present = %v, ∇∇φ table present = %v", f.Name(), len(it.dphi) != 0, len(it.hphi) != 0)
		}
		vals := make([]float64, n)
		grads := make([][3]float64, n)
		live := 0
		for _, pt := range g.Points {
			EvalBasis(set, pt.Pos, vals, grads)
			var amp float64
			for _, v := range vals {
				amp += v * v
			}
			if amp < liveFloor {
				continue
			}
			if live >= len(it.pts) || it.pts[live] != pt {
				t.Fatalf("%s: live point %d is not grid point %v", f.Name(), live, pt)
			}
			for k := 0; k < n; k++ {
				if it.phi[live*n+k] != vals[k] {
					t.Fatalf("%s: φ table differs at live point %d function %d", f.Name(), live, k)
				}
				if len(it.dphi) != 0 && it.dphi[live*n+k] != grads[k] {
					t.Fatalf("%s: ∇φ table differs at live point %d function %d", f.Name(), live, k)
				}
			}
			live++
		}
		if got, total := it.Points(); got != live || total != len(g.Points) || live == total {
			t.Fatalf("%s: Points() = %d/%d, counted %d live of %d", f.Name(), got, total, live, len(g.Points))
		}
	}
}

// bound returns an integrator for f on mol's default grid, tabulated for
// forces; with dead set it keeps every grid point in its tables.
func bound(f Functional, mol *chem.Molecule, dead bool) (*Integrator, *basis.Set) {
	set := basis.MustBuild("STO-3G", mol)
	it := &Integrator{keepDead: dead}
	it.Rebind(f, set, BuildGrid(mol, DefaultGridSpec()), true)
	return it, set
}

// relClose reports whether a and b agree to tol relative to scale.
func relClose(a, b, scale, tol float64) bool { return math.Abs(a-b) <= tol*scale }

// Dropping the points without basis amplitude changes nothing the functional
// would have seen: energy, electron count, V and the gradient on live-point
// tables agree with the full-table values to rounding (the chunk boundaries
// move, so the sums are taken in a different order).
func TestLivePointTablesMatchFullTables(t *testing.T) {
	const tol = 1e-13
	for _, sys := range []struct {
		name string
		mol  *chem.Molecule
	}{
		{"LiH", chem.LithiumHydride()},
		{"H2O", chem.Water()},
		{"(H2O)2", chem.WaterCluster(2, 1)},
	} {
		for _, f := range []Functional{LDA{}, PBE{}, PBE0{}} {
			live, set := bound(f, sys.mol, false)
			full, _ := bound(f, sys.mol, true)
			nl, total := live.Points()
			if nf, _ := full.Points(); nf != total || nl >= total {
				t.Fatalf("%s %s: %d live and %d kept of %d points", sys.name, f.Name(), nl, nf, total)
			}
			p := testDensity(set.NBasis)
			got, want := live.Integrate(p), full.Integrate(p)
			if !relClose(got.Energy, want.Energy, math.Abs(want.Energy), tol) || !relClose(got.NElec, want.NElec, want.NElec, tol) {
				t.Errorf("%s %s: energy %.17g nelec %.17g on live points, %.17g %.17g on all", sys.name, f.Name(), got.Energy, got.NElec, want.Energy, want.NElec)
			}
			var vmax, gmax float64
			for _, x := range want.V.Data {
				vmax = math.Max(vmax, math.Abs(x))
			}
			for k, x := range want.V.Data {
				if !relClose(got.V.Data[k], x, vmax, tol) {
					t.Fatalf("%s %s: V[%d] = %.17g on live points, %.17g on all", sys.name, f.Name(), k, got.V.Data[k], x)
				}
			}
			gl, gf := live.Gradient(p), full.Gradient(p)
			for _, g := range gf {
				gmax = math.Max(gmax, g.Norm())
			}
			for a := range gf {
				if d := gl[a].Sub(gf[a]).Norm(); d > tol*gmax {
					t.Errorf("%s %s: gradient on atom %d differs by %.3g (scale %.3g)", sys.name, f.Name(), a, d, gmax)
				}
			}
		}
	}
}

// A rebound integrator is a fresh one, bit for bit — whatever it was bound
// to before: a neighbouring geometry, a larger system or a smaller one, with
// or without force tables — and once it has seen a geometry's sizes a
// Rebind allocates nothing.
func TestRebindMatchesFreshIntegrator(t *testing.T) {
	lih, moved := chem.LithiumHydride(), chem.LithiumHydride()
	moved.Atoms[1].Pos[2] += 0.05
	it := new(Integrator)
	for i, step := range []struct {
		mol    *chem.Molecule
		f      Functional
		forces bool
	}{
		{lih, PBE0{}, true},
		{moved, PBE0{}, true},
		{chem.WaterCluster(2, 1), PBE{}, false},
		{chem.Water(), LDA{}, true},
		{lih, PBE0{}, false},
		{moved, PBE0{}, true},
	} {
		set := basis.MustBuild("STO-3G", step.mol)
		g := BuildGrid(step.mol, DefaultGridSpec())
		it.Rebind(step.f, set, g, step.forces)
		fresh := new(Integrator)
		fresh.Rebind(step.f, set, g, step.forces)
		p := testDensity(set.NBasis)
		got, want := it.Integrate(p), fresh.Integrate(p)
		if got.Energy != want.Energy || got.NElec != want.NElec {
			t.Fatalf("step %d: rebound energy %.17g nelec %.17g, fresh %.17g %.17g", i, got.Energy, got.NElec, want.Energy, want.NElec)
		}
		for k, x := range want.V.Data {
			if got.V.Data[k] != x {
				t.Fatalf("step %d: rebound V[%d] = %.17g, fresh %.17g", i, k, got.V.Data[k], x)
			}
		}
		gr, gf := it.Gradient(p), fresh.Gradient(p)
		for a := range gf {
			if gr[a] != gf[a] {
				t.Fatalf("step %d atom %d: rebound gradient %v, fresh %v", i, a, gr[a], gf[a])
			}
		}
	}
	set := basis.MustBuild("STO-3G", lih)
	grids := []*Grid{BuildGrid(lih, DefaultGridSpec()), BuildGrid(moved, DefaultGridSpec())}
	sets := []*basis.Set{set, basis.MustBuild("STO-3G", moved)}
	i := 0
	if a := testing.AllocsPerRun(10, func() {
		it.Rebind(PBE0{}, sets[i%2], grids[i%2], true)
		i++
	}); a != 0 {
		t.Fatalf("%g allocs per steady-state Rebind, want 0", a)
	}
}

var benchSystems = []struct {
	name string
	mol  func() *chem.Molecule
}{{"LiH", chem.LithiumHydride}, {"H2O", chem.Water}}

func BenchmarkIntegratePBE0(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			mol := sys.mol()
			set := basis.MustBuild("STO-3G", mol)
			g := BuildGrid(mol, DefaultGridSpec())
			it := NewIntegrator(PBE0{}, set, g)
			p := testDensity(set.NBasis)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it.Integrate(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Points)), "ns/point")
		})
	}
}

// BenchmarkPBE0Eval times one PBE0 point on the sweep of the bench probe
// dft.pbe0_eval_ns (ρ = 1e-3 + 1e-4·i over 2^16 points, γ = 0.3ρ): "table"
// is the production PBE0.Eval, "closed" the same point with the density
// factors in closed form.
func BenchmarkPBE0Eval(b *testing.B) {
	const points = 1 << 16
	paths := []struct {
		name string
		eval func(rho, gamma float64) (float64, float64, float64)
	}{
		{"table", PBE0{}.Eval},
		{"closed", func(rho, gamma float64) (float64, float64, float64) {
			return pbeTerms(closedRhoTerms(rho), rho, gamma, 0.25)
		}},
	}
	for _, path := range paths {
		b.Run(path.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				for j := 0; j < points; j++ {
					rho := 1e-3 + 1e-4*float64(j)
					f, _, _ := path.eval(rho, 0.3*rho)
					sink += f
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
			if math.IsNaN(sink) {
				b.Fatal("NaN")
			}
		})
	}
}

// BenchmarkXCTabulate times what a force evaluation pays once per geometry:
// rebinding a warm integrator, φ, ∇φ and ∇∇φ tabulated and compacted to the
// live points.
func BenchmarkXCTabulate(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			mol := sys.mol()
			set := basis.MustBuild("STO-3G", mol)
			g := BuildGrid(mol, DefaultGridSpec())
			it := NewIntegrator(PBE0{}, set, g)
			it.Rebind(PBE0{}, set, g, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it.Rebind(PBE0{}, set, g, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Points)), "ns/point")
		})
	}
}

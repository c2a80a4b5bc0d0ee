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

func TestTablesMatchEvalBasis(t *testing.T) {
	for _, f := range []Functional{LDA{}, PBE{}} {
		it, set, g := waterIntegrator(f)
		n := set.NBasis
		if (it.dphi != nil) != f.NeedsGradient() {
			t.Fatalf("%s: gradient table present = %v", f.Name(), it.dphi != nil)
		}
		vals := make([]float64, n)
		grads := make([][3]float64, n)
		for i, pt := range g.Points {
			EvalBasis(set, pt.Pos, vals, grads)
			for k := 0; k < n; k++ {
				if it.phi[i*n+k] != vals[k] {
					t.Fatalf("%s: φ table differs at point %d function %d", f.Name(), i, k)
				}
				if it.dphi != nil && it.dphi[i*n+k] != grads[k] {
					t.Fatalf("%s: ∇φ table differs at point %d function %d", f.Name(), i, k)
				}
			}
		}
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

func BenchmarkXCTabulate(b *testing.B) {
	for _, sys := range benchSystems {
		b.Run(sys.name, func(b *testing.B) {
			mol := sys.mol()
			set := basis.MustBuild("STO-3G", mol)
			g := BuildGrid(mol, DefaultGridSpec())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewIntegrator(PBE0{}, set, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(g.Points)), "ns/point")
		})
	}
}

package dft

import (
	"math"
	"runtime"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// frozenDensity wraps a functional so that only its value survives: the
// gradient of Σ w·f then consists of the weight-derivative part alone.
type frozenDensity struct{ Functional }

func (f frozenDensity) Eval(rho, gamma float64) (float64, float64, float64) {
	v, _, _ := f.Functional.Eval(rho, gamma)
	return v, 0, 0
}

// pointEnergyDensity evaluates f(ρ, γ) of density p at one point from
// scratch (EvalBasis, no tables).
func pointEnergyDensity(f Functional, set *basis.Set, p *linalg.Matrix, r chem.Vec3) float64 {
	n := set.NBasis
	vals, grads := make([]float64, n), make([][3]float64, n)
	EvalBasis(set, r, vals, grads)
	var rho float64
	var g [3]float64
	for mu := 0; mu < n; mu++ {
		for nu := 0; nu < n; nu++ {
			pv := p.At(mu, nu)
			rho += pv * vals[mu] * vals[nu]
			for k := range g {
				g[k] += 2 * pv * grads[mu][k] * vals[nu]
			}
		}
	}
	if rho < rhoFloor {
		return 0
	}
	v, _, _ := f.Eval(rho, g[0]*g[0]+g[1]*g[1]+g[2]*g[2])
	return v
}

func richardson(f func(x float64) float64, h float64) float64 {
	d1 := (f(h) - f(-h)) / (2 * h)
	d2 := (f(h/2) - f(-h/2)) / h
	return (4*d2 - d1) / 3
}

// TestXCGradientMatchesFiniteDifference is the XC component oracle. At a
// fixed density matrix the analytic gradient must reproduce central
// differences of Integrate's energy over geometries displaced atom by
// atom, in three ways that share no code with it: everything rebuilt at
// the displaced geometry (the whole gradient); the grid carried along with
// its atoms but the weights frozen (basis-centre and moving-grid terms);
// and the weights rebuilt but every point's energy density frozen (the
// Becke weight derivatives). Each must also sum to zero over the atoms.
func TestXCGradientMatchesFiniteDifference(t *testing.T) {
	water := chem.Water()
	water.Atoms[1].Pos[2] += 0.2
	for _, tc := range []struct {
		name, basis string
		mol         *chem.Molecule
		fs          []Functional
	}{
		{"LiH/STO-3G", "STO-3G", chem.LithiumHydride(), []Functional{PBE0{}}},
		{"H2O/STO-3G", "STO-3G", water, []Functional{LDA{}, PBE{}, PBE0{}}},
		{"H2O/6-31G*", "6-31G*", water, []Functional{PBE{}}},
	} {
		mol := tc.mol
		set := basis.MustBuild(tc.basis, mol)
		grid := BuildGrid(mol, DefaultGridSpec())
		p := testDensity(set.NBasis)
		moved := func(a, k int, x float64) *chem.Molecule {
			m := mol.Clone()
			m.Atoms[a].Pos[k] += x
			return m
		}
		for _, f := range tc.fs {
			total := NewIntegrator(f, set, grid).Gradient(p)
			weights := NewIntegrator(frozenDensity{f}, set, grid).Gradient(p)
			fpt := make([]float64, len(grid.Points))
			for i, pt := range grid.Points {
				fpt[i] = pointEnergyDensity(f, set, p, pt.Pos)
			}
			oracles := []struct {
				part   string
				got    func(a int) chem.Vec3
				energy func(m *chem.Molecule, a, k int, x float64) float64
			}{
				{"whole", func(a int) chem.Vec3 { return total[a] },
					func(m *chem.Molecule, a, k int, x float64) float64 {
						return NewIntegrator(f, basis.MustBuild(tc.basis, m), BuildGrid(m, DefaultGridSpec())).Integrate(p).Energy
					}},
				{"frozen weights", func(a int) chem.Vec3 { return total[a].Sub(weights[a]) },
					func(m *chem.Molecule, a, k int, x float64) float64 {
						g := &Grid{Points: append([]GridPoint(nil), grid.Points...)}
						for i := range g.Points {
							if g.Points[i].Atom == a {
								g.Points[i].Pos[k] += x
							}
						}
						return NewIntegrator(f, basis.MustBuild(tc.basis, m), g).Integrate(p).Energy
					}},
				{"weight derivatives", func(a int) chem.Vec3 { return weights[a] },
					func(m *chem.Molecule, a, k int, x float64) float64 {
						// Not BuildGrid: it drops points below 1e-16 in weight, and
						// which ones depends on the geometry.
						part0, part := newBecke(mol), newBecke(m)
						var e float64
						for i, pt := range grid.Points {
							pos := pt.Pos
							if pt.Atom == a {
								pos[k] += x
							}
							e += fpt[i] * pt.W * part.weight(pt.Atom, pos) / part0.weight(pt.Atom, pt.Pos)
						}
						return e
					}},
			}
			for _, o := range oracles {
				var sum chem.Vec3
				for a := range mol.Atoms {
					got := o.got(a)
					sum = sum.Add(got)
					for k := 0; k < 3; k++ {
						want := richardson(func(x float64) float64 { return o.energy(moved(a, k, x), a, k, x) }, 2e-3)
						if d := math.Abs(got[k] - want); !(d <= 2e-8) {
							t.Errorf("%s %s %s atom %d axis %d: analytic %.12g, FD %.12g (|Δ| %.3g)",
								tc.name, f.Name(), o.part, a, k, got[k], want, d)
						}
					}
				}
				if sum.Norm() > 1e-10 {
					t.Errorf("%s %s %s: gradient sums to %.3g over the atoms, want 0", tc.name, f.Name(), o.part, sum.Norm())
				}
			}
		}
	}
}

// TestXCGradientBitwiseAndAllocs: the gradient does not depend on
// GOMAXPROCS, leaves Integrate's results untouched, builds its extra
// tables once, and from then on allocates only its result.
func TestXCGradientBitwiseAndAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, f := range []Functional{LDA{}, PBE0{}} {
		it, set, _ := waterIntegrator(f)
		p := testDensity(set.NBasis)
		before := it.Integrate(p).Energy
		want := it.Gradient(p)
		if (len(it.hphi) != 0) != f.NeedsGradient() || len(it.dphi) == 0 {
			t.Fatalf("%s: ∇∇φ table present = %v, ∇φ table present = %v", f.Name(), len(it.hphi) != 0, len(it.dphi) != 0)
		}
		if after := it.Integrate(p).Energy; after != before {
			t.Fatalf("%s: Integrate energy moved from %.17g to %.17g across a Gradient", f.Name(), before, after)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := it.Gradient(p)
			for a := range want {
				if got[a] != want[a] {
					t.Fatalf("%s GOMAXPROCS=%d atom %d: %v != %v", f.Name(), procs, a, got[a], want[a])
				}
			}
			if a := testing.AllocsPerRun(10, func() { it.Gradient(p) }); a > 1 {
				t.Fatalf("%s GOMAXPROCS=%d: %g allocs per steady-state Gradient, want the result only", f.Name(), procs, a)
			}
		}
	}
}

package integrals

import (
	"math"
	"math/rand"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// richardson returns the O(h⁴) central-difference derivative of f at 0
// from steps h and h/2, element by element.
func richardson(f func(x float64) []float64, h float64) []float64 {
	diff := func(h float64) []float64 {
		p, m := f(h), f(-h)
		for i := range p {
			p[i] = (p[i] - m[i]) / (2 * h)
		}
		return p
	}
	d1, d2 := diff(h), diff(h/2)
	for i := range d1 {
		d1[i] = (4*d2[i] - d1[i]) / 3
	}
	return d1
}

// TestERIDerivMatchesFiniteDifference sweeps every class ssss…dddd over
// distinct and pairwise-coincident centres: the derivative-table blocks of
// all four centres must reproduce the finite difference of the energy
// kernel's own block under a displaced shell centre, and add up to zero
// (translational invariance, which the production path never assumes).
func TestERIDerivMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewScratch()
	randCentre := func() chem.Vec3 {
		return chem.Vec3{3*rng.Float64() - 1.5, 3*rng.Float64() - 1.5, 3*rng.Float64() - 1.5}
	}
	for cls := 0; cls < 81; cls++ {
		l := [4]int{cls / 27, cls / 9 % 3, cls / 3 % 3, cls % 3}
		for geom := 0; geom < 2; geom++ {
			c := [4]chem.Vec3{randCentre(), randCentre(), randCentre(), randCentre()}
			if geom == 1 { // bra on one atom, ket on another, moved shell by shell
				c[1], c[3] = c[0], c[2]
			}
			var sh [4]basis.Shell
			for i := range sh {
				sh[i] = randShell(rng, l[i], c[i])
				for k := range sh[i].Exps { // keep third derivatives tame for the FD oracle
					sh[i].Exps[k] = 0.2 + 2*rng.Float64()
				}
			}
			n := [4]int{sh[0].NFuncs(), sh[1].NFuncs(), sh[2].NFuncs(), sh[3].NFuncs()}
			nab, ncd := n[0]*n[1], n[2]*n[3]
			bra := make([]float64, derivStack*nab*ncd)
			ket := make([]float64, derivStack*nab*ncd)
			eriQuartet(buildDerivPairData(&sh[0], &sh[1]), buildPairData(&sh[2], &sh[3]), bra, false, nil, s)
			eriQuartet(buildDerivPairData(&sh[2], &sh[3]), buildPairData(&sh[0], &sh[1]), ket, false, nil, s)
			// got(centre, axis)[ab·ncd+cd]
			got := func(centre, axis int) []float64 {
				out := make([]float64, nab*ncd)
				if centre < 2 {
					copy(out, bra[(centre*3+axis)*nab*ncd:])
					return out
				}
				blk := ket[((centre-2)*3+axis)*nab*ncd:]
				for ab := 0; ab < nab; ab++ {
					for cd := 0; cd < ncd; cd++ {
						out[ab*ncd+cd] = blk[cd*nab+ab]
					}
				}
				return out
			}
			scale := maxAbs(kernelBlock(&sh[0], &sh[1], &sh[2], &sh[3], false, nil, s))
			for axis := 0; axis < 3; axis++ {
				sum := make([]float64, nab*ncd)
				for centre := 0; centre < 4; centre++ {
					want := richardson(func(x float64) []float64 {
						moved := sh
						moved[centre].Center[axis] += x
						return kernelBlock(&moved[0], &moved[1], &moved[2], &moved[3], false, nil, s)
					}, 1e-2)
					g := got(centre, axis)
					for i := range want {
						sum[i] += g[i]
						if d := math.Abs(g[i] - want[i]); !(d <= 2e-7*scale) {
							t.Fatalf("class %v geom %d centre %d axis %d [%d]: analytic %.12g, FD %.12g (|Δ| %.3g, block scale %.3g)",
								l, geom, centre, axis, i, g[i], want[i], d, scale)
						}
					}
				}
				if m := maxAbs(sum); m > 1e-12*scale {
					t.Fatalf("class %v geom %d axis %d: centre derivatives sum to %.3g, want 0", l, geom, axis, m)
				}
			}
		}
	}
}

// randSymmetric returns a random symmetric n×n matrix.
func randSymmetric(rng *rand.Rand, n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// TestOneElectronGradientTerms checks each one-electron term against a
// central difference of the energy path's own matrices at fixed P on
// displaced geometries — H2O/6-31G* so that d shells take part: Tr(P·S),
// Tr(P·T), and Tr(P·V) with only the basis centres and only the nuclei
// displaced. Each term must also sum to zero over the atoms.
func TestOneElectronGradientTerms(t *testing.T) {
	mol := chem.Water()
	mol.Atoms[1].Pos[1] += 0.1 // break the symmetry
	set := basis.MustBuild("6-31G*", mol)
	e := NewEngine(set)
	p := randSymmetric(rand.New(rand.NewSource(5)), set.NBasis)
	n := mol.NAtoms()

	// engineAt builds an engine with the basis centres taken from
	// basisMol and the attracting nuclei from nucMol.
	engineAt := func(basisMol, nucMol *chem.Molecule) *Engine {
		s := basis.MustBuild("6-31G*", basisMol)
		s.Mol = nucMol
		return NewEngine(s)
	}
	moved := func(atom, axis int, x float64) *chem.Molecule {
		m := mol.Clone()
		m.Atoms[atom].Pos[axis] += x
		return m
	}
	fd := func(energy func(atom, axis int, x float64) float64) []chem.Vec3 {
		g := make([]chem.Vec3, n)
		for a := range g {
			for k := 0; k < 3; k++ {
				g[a][k] = richardson(func(x float64) []float64 { return []float64{energy(a, k, x)} }, 1e-3)[0]
			}
		}
		return g
	}
	check := func(name string, got, want []chem.Vec3, sumsToZero bool) {
		t.Helper()
		var sum chem.Vec3
		for a := range got {
			sum = sum.Add(got[a])
			for k := 0; k < 3; k++ {
				// Relative above 1: the oxygen core functions against their own
				// nucleus are tens of hartree per bohr and stiff for the FD.
				if d := math.Abs(got[a][k] - want[a][k]); !(d <= 1e-8*math.Max(1, math.Abs(want[a][k]))) {
					t.Errorf("%s atom %d axis %d: analytic %.12g, FD %.12g (|Δ| %.3g)", name, a, k, got[a][k], want[a][k], d)
				}
			}
		}
		if sumsToZero && sum.Norm() > 1e-10 {
			t.Errorf("%s: gradient sums to %.3g over the atoms, want 0", name, sum.Norm())
		}
	}

	gs := make([]chem.Vec3, n)
	e.overlapGradient(p, 1, gs)
	check("overlap", gs, fd(func(a, k int, x float64) float64 {
		m := moved(a, k, x)
		return linalg.TraceMul(p, engineAt(m, m).Overlap())
	}), true)

	gt := make([]chem.Vec3, n)
	e.kineticGradient(p, gt)
	check("kinetic", gt, fd(func(a, k int, x float64) float64 {
		m := moved(a, k, x)
		return linalg.TraceMul(p, engineAt(m, m).Kinetic())
	}), true)

	gb, gop := make([]chem.Vec3, n), make([]chem.Vec3, n)
	e.nuclearGradient(p, gb, gop)
	check("nuclear (basis centres)", gb, fd(func(a, k int, x float64) float64 {
		return linalg.TraceMul(p, engineAt(moved(a, k, x), mol).Nuclear())
	}), false)
	check("nuclear (operator centres)", gop, fd(func(a, k int, x float64) float64 {
		return linalg.TraceMul(p, engineAt(mol, moved(a, k, x)).Nuclear())
	}), false)
	for a := range gb {
		gb[a] = gb[a].Add(gop[a])
	}
	check("nuclear (total)", gb, fd(func(a, k int, x float64) float64 {
		m := moved(a, k, x)
		return linalg.TraceMul(p, engineAt(m, m).Nuclear())
	}), true)

	// The exported entry point is the signed sum of the three.
	w := randSymmetric(rand.New(rand.NewSource(6)), set.NBasis)
	gw := make([]chem.Vec3, n)
	e.overlapGradient(w, 1, gw)
	for a, g := range e.OneElectronGradient(p, w) {
		want := gt[a].Add(gb[a]).Sub(gw[a])
		if g.Sub(want).Norm() > 1e-12 {
			t.Fatalf("OneElectronGradient atom %d: %v, want %v", a, g, want)
		}
	}
}

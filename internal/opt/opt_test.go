package opt

import (
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
)

// morse is an analytic Morse surface between atoms 0 and 1, with
// finite-difference forces.
func morse(de, a, r0 float64) md.Surface {
	return md.FDSurface(func(m *chem.Molecule) (float64, error) {
		x := math.Exp(-a * (m.Distance(0, 1) - r0))
		return de * (1 - x) * (1 - x), nil
	}, 1e-5, 0)
}

// ljCluster is a Lennard-Jones surface over all pairs, with
// finite-difference forces.
func ljCluster(eps, sigma float64) md.Surface {
	return md.FDSurface(func(m *chem.Molecule) (float64, error) {
		var e float64
		for i := 0; i < m.NAtoms(); i++ {
			for j := i + 1; j < m.NAtoms(); j++ {
				sr := sigma / m.Distance(i, j)
				sr6 := sr * sr * sr * sr * sr * sr
				e += 4 * eps * (sr6*sr6 - sr6)
			}
		}
		return e, nil
	}, 1e-5, 0)
}

func TestMinimizeMorseBond(t *testing.T) {
	mol := chem.Hydrogen(2.2) // start stretched
	res, err := Minimize(mol, morse(0.17, 1.0, 1.4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d steps (fmax %g)", res.Steps, res.MaxForce)
	}
	if r := res.Mol.Distance(0, 1); math.Abs(r-1.4) > 5e-3 {
		t.Fatalf("optimized bond %g want 1.4", r)
	}
	if res.Energy > 1e-5 {
		t.Fatalf("minimum energy %g should be ~0", res.Energy)
	}
}

func TestMinimizeLJTrimer(t *testing.T) {
	// Three atoms relax to an equilateral triangle with r = 2^{1/6}σ.
	mol := &chem.Molecule{Atoms: []chem.Atom{
		{El: chem.He, Pos: chem.Vec3{0, 0, 0}},
		{El: chem.He, Pos: chem.Vec3{2.5, 0.3, 0}},
		{El: chem.He, Pos: chem.Vec3{1.2, 2.4, 0.2}},
	}}
	sigma := 2.0
	res, err := Minimize(mol, ljCluster(0.05, sigma), Options{MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged (fmax %g)", res.MaxForce)
	}
	want := math.Pow(2, 1.0/6) * sigma
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if r := res.Mol.Distance(i, j); math.Abs(r-want) > 0.02 {
				t.Fatalf("pair (%d,%d) distance %g want %g", i, j, r, want)
			}
		}
	}
}

func TestMinimizeDoesNotMutateInput(t *testing.T) {
	mol := chem.Hydrogen(2.0)
	orig := mol.Atoms[1].Pos
	if _, err := Minimize(mol, morse(0.1, 1, 1.4), Options{}); err != nil {
		t.Fatal(err)
	}
	if mol.Atoms[1].Pos != orig {
		t.Fatal("input geometry mutated")
	}
}

func TestMinimizeValidation(t *testing.T) {
	if _, err := Minimize(&chem.Molecule{}, morse(1, 1, 1), Options{}); err == nil {
		t.Fatal("expected error for empty molecule")
	}
}

// TestMinimizeH2SCF relaxes H2 on analytic SCF forces at one surface
// call per FIRE step (plus the starting point), and lands where a
// relaxation on finite differences of the SCF energy does.
func TestMinimizeH2SCF(t *testing.T) {
	if testing.Short() {
		t.Skip("SCF optimization is slow")
	}
	opts := Options{ForceTol: 2e-4, MaxSteps: 120}
	analytic := md.SCFForces(scf.Config{})
	calls := 0
	res, err := Minimize(chem.Hydrogen(1.8), func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		calls++
		return analytic(m)
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.MaxForce >= opts.ForceTol {
		t.Fatalf("H2 optimization not converged (fmax %g)", res.MaxForce)
	}
	if calls != res.Steps+1 {
		t.Fatalf("%d surface calls over %d steps, want one per step plus the start", calls, res.Steps)
	}
	// RHF/STO-3G H2 equilibrium bond: 1.346 a0 (Szabo–Ostlund).
	r := res.Mol.Distance(0, 1)
	if math.Abs(r-1.346) > 0.01 {
		t.Fatalf("optimized H2 bond %g want 1.346", r)
	}
	fd, err := Minimize(chem.Hydrogen(1.8), md.FDSurface(md.SCFPotential(scf.Config{}), 1e-4, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(fd.Mol.Distance(0, 1) - r); !fd.Converged || d > 1e-3 {
		t.Fatalf("analytic bond %g vs finite-difference %g (converged %v)", r, fd.Mol.Distance(0, 1), fd.Converged)
	}
}

func TestOnStepCallback(t *testing.T) {
	calls := 0
	_, err := Minimize(chem.Hydrogen(1.8), morse(0.1, 1, 1.4), Options{
		OnStep: func(step int, e, f float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnStep never called")
	}
}

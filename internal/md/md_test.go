package md_test

import (
	"errors"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
)

// springPot is an analytic pairwise harmonic potential used to test the
// integrator without paying for SCF at every step.
func springPot(k, r0 float64) md.PotentialFunc {
	return func(m *chem.Molecule) (float64, error) {
		var e float64
		for i := 0; i < m.NAtoms(); i++ {
			for j := i + 1; j < m.NAtoms(); j++ {
				d := m.Distance(i, j) - r0
				e += 0.5 * k * d * d
			}
		}
		return e, nil
	}
}

// verlet integrates a plain velocity-Verlet trajectory: respa.Run at
// K = 1, where the spring reference cancels from the force sum.
func verlet(mol *chem.Molecule, full md.Surface, opts respa.Options) (*md.Trajectory, error) {
	opts.K = 1
	opts.RefLabel = respa.RefSpring
	return respa.Run(mol, full, respa.SpringReference(mol, 0, 0), opts)
}

func TestForcesMatchAnalyticSpring(t *testing.T) {
	mol := chem.Hydrogen(1.6) // stretched: force pulls atoms together
	k, r0 := 0.35, 1.4
	e, f, err := md.FDSurface(springPot(k, r0), 1e-4, 0)(mol)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 * k * 0.2 * 0.2; math.Abs(e-want) > 1e-12 {
		t.Fatalf("energy %g want %g", e, want)
	}
	// Analytic force on atom 1 (at +z): −k(r−r0) along +z... the bond is
	// stretched so the force on atom 1 points towards atom 0 (−z).
	want := -k * (1.6 - r0)
	if math.Abs(f[1][2]-want) > 1e-7 {
		t.Fatalf("F_z on atom 1 = %g want %g", f[1][2], want)
	}
	if math.Abs(f[0][2]+want) > 1e-7 {
		t.Fatalf("Newton's third law violated: %g vs %g", f[0][2], -want)
	}
}

func TestVerletConservesEnergyHarmonic(t *testing.T) {
	mol := chem.Hydrogen(1.5)
	traj, err := verlet(mol, md.FDSurface(springPot(0.35, 1.4), 1e-4, 0),
		respa.Options{Steps: 200, Dt: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Frames) != 201 {
		t.Fatalf("%d frames", len(traj.Frames))
	}
	if drift := traj.EnergyDrift(); drift > 3e-5 {
		t.Fatalf("energy drift %g Eh/atom too large", drift)
	}
	// The bond oscillates: the distance must dip below and rise above r0.
	sawBelow, sawAbove := false, false
	for _, fr := range traj.Frames {
		d := fr.Positions[1].Sub(fr.Positions[0]).Norm()
		if d < 1.4 {
			sawBelow = true
		}
		if d > 1.45 {
			sawAbove = true
		}
	}
	if !sawBelow || !sawAbove {
		t.Fatal("bond did not oscillate")
	}
}

func TestThermostatEquilibrates(t *testing.T) {
	mol := chem.WaterCluster(2, 3)
	traj, err := verlet(mol, md.FDSurface(springPot(0.1, 2.0), 1e-4, 0), respa.Options{
		Steps: 400, Dt: 0.5, TemperatureK: 300, Thermostat: true, TauFS: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Average temperature over the last third should be near the bath.
	var sum float64
	cnt := 0
	for _, fr := range traj.Frames[2*len(traj.Frames)/3:] {
		sum += fr.TempK
		cnt++
	}
	avg := sum / float64(cnt)
	if avg < 240 || avg > 360 {
		t.Fatalf("equilibrated temperature %g K far from 300 K", avg)
	}
}

func TestInitVelocitiesTemperatureAndCOM(t *testing.T) {
	mol := chem.WaterCluster(3, 5)
	masses := md.AtomicMasses(mol)
	vel, _ := md.DrawVelocities(mol, masses, 300, 42)
	if got := md.Temperature(md.Kinetic(vel, masses), mol.NAtoms()); math.Abs(got-300) > 1e-9 {
		t.Fatalf("initial temperature %g", got)
	}
	var p chem.Vec3
	for i, v := range vel {
		p = p.Add(v.Scale(masses[i]))
	}
	if p.Norm() > 1e-9 {
		t.Fatalf("net momentum %v", p)
	}
	// Zero temperature: all velocities zero.
	vz, _ := md.DrawVelocities(mol, masses, 0, 1)
	for _, v := range vz {
		if v.Norm() != 0 {
			t.Fatal("nonzero velocity at T=0")
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := verlet(chem.Hydrogen(1.4), md.FDSurface(springPot(1, 1), 0, 0), respa.Options{Steps: 0}); err == nil {
		t.Fatal("expected error for zero steps")
	}
}

func TestSCFMDShortTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("SCF MD is slow")
	}
	traj, err := verlet(chem.Hydrogen(1.5), md.SCFForces(scf.Config{}), respa.Options{Steps: 4, Dt: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if drift := traj.EnergyDrift(); drift > 5e-4 {
		t.Fatalf("BOMD drift %g Eh/atom", drift)
	}
	// The stretched bond should contract initially.
	d0 := traj.Frames[0].Positions[1].Sub(traj.Frames[0].Positions[0]).Norm()
	dN := traj.Frames[len(traj.Frames)-1].Positions[1].Sub(traj.Frames[len(traj.Frames)-1].Positions[0]).Norm()
	if dN >= d0 {
		t.Fatalf("bond did not contract: %g -> %g", d0, dN)
	}
}

func TestEnergyDriftEmpty(t *testing.T) {
	if md.NewTrajectory(chem.Hydrogen(1.4)).EnergyDrift() != 0 {
		t.Fatal("empty trajectory drift should be 0")
	}
}

var errTest = errors.New("md: injected test failure")

func TestSCFPotentialPropagatesNonConvergence(t *testing.T) {
	// MaxIter 1 cannot converge: the potential must surface an error so
	// MD/optimizers never silently integrate a garbage surface.
	pot := md.SCFPotential(scf.Config{MaxIter: 1})
	if _, err := pot(chem.Hydrogen(1.4)); err == nil {
		t.Fatal("expected non-convergence error")
	}
	// And a basis error propagates too.
	bad := md.SCFPotential(scf.Config{Basis: "NOPE"})
	if _, err := bad(chem.Hydrogen(1.4)); err == nil {
		t.Fatal("expected basis error")
	}
}

func TestForcesErrorPropagation(t *testing.T) {
	failing := func(m *chem.Molecule) (float64, error) { return 0, errTest }
	if _, _, err := md.FDSurface(failing, 1e-4, 0)(chem.Hydrogen(1.4)); !errors.Is(err, errTest) {
		t.Fatalf("expected propagated error, got %v", err)
	}
	if _, err := verlet(chem.Hydrogen(1.4), md.FDSurface(failing, 1e-4, 0), respa.Options{Steps: 2}); !errors.Is(err, errTest) {
		t.Fatalf("expected run error, got %v", err)
	}
}

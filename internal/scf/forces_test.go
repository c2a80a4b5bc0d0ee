package scf

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
)

// tightConfig converges the SCF far enough below the force tolerances for
// the gradient's first-order error in the density to vanish: EnergyTol
// 1e-11 and CommutatorTol 1e-9 for Hartree–Fock. With a grid functional
// this DIIS stalls in the quadrature's noise — the commutator bottoms out
// anywhere between 1e-12 and 7e-8 (LiH/PBE; 3e-9 on H2O/6-31G*/PBE0) and
// then grows again — so those runs are asked for 2e-7.
func tightConfig(basisName string, f dft.Functional) Config {
	cfg := Config{Basis: basisName, Functional: f, EnergyTol: 1e-11, CommutatorTol: 1e-9}
	if f.NeedsGrid() {
		cfg.CommutatorTol = 2e-7
	}
	return cfg
}

// fdForce is −dE/dx of atom a along axis k by Richardson-extrapolated
// central differences (steps h and h/2) of cold SCF energies.
func fdForce(t *testing.T, mol *chem.Molecule, cfg Config, a, k int) float64 {
	t.Helper()
	energy := func(x float64) float64 {
		m := mol.Clone()
		m.Atoms[a].Pos[k] += x
		res, err := Run(m, cfg)
		if err != nil || !res.Converged {
			t.Fatalf("displaced SCF: converged=%v err=%v", res != nil && res.Converged, err)
		}
		return res.Energy
	}
	const h = 4e-3
	d1 := (energy(h) - energy(-h)) / (2 * h)
	d2 := (energy(h/2) - energy(-h/2)) / h
	return -(4*d2 - d1) / 3
}

func netForce(f []chem.Vec3) float64 {
	var sum chem.Vec3
	for _, v := range f {
		sum = sum.Add(v)
	}
	return sum.Norm()
}

func maxForceDiff(a, b []chem.Vec3) float64 {
	var worst float64
	for i := range a {
		for k := 0; k < 3; k++ {
			worst = math.Max(worst, math.Abs(a[i][k]-b[i][k]))
		}
	}
	return worst
}

// TestForcesMatchFiniteDifference is the whole-gradient oracle: analytic
// forces against Richardson-extrapolated central differences of the SCF
// energy, for HF, PBE and PBE0 on LiH, H2O and (H2O)2 in STO-3G and on
// H2O in 6-31G* (d shells). On the six-atom system three components stand
// for the eighteen (the component oracles in integrals, hfx and dft cover
// every atom). At the served default tolerances the
// forces stay within 2e-5 of the tightly converged ones, and the net force
// vanishes — moving grid included.
func TestForcesMatchFiniteDifference(t *testing.T) {
	water := chem.Water()
	water.Atoms[1].Pos[0] += 0.1 // off the symmetric geometry
	type comp struct{ atom, axis int }
	all := func(n int) (cs []comp) {
		for a := 0; a < n; a++ {
			for k := 0; k < 3; k++ {
				cs = append(cs, comp{a, k})
			}
		}
		return cs
	}
	spread := []comp{{0, 0}, {3, 1}, {5, 2}}
	fs := []dft.Functional{dft.HF{}, dft.PBE{}, dft.PBE0{}}
	for _, tc := range []struct {
		name, basis string
		mol         *chem.Molecule
		fs          []dft.Functional
		comps       []comp
	}{
		{"LiH", "STO-3G", chem.LithiumHydride(), fs, all(2)},
		{"H2O", "STO-3G", water, fs, all(3)},
		{"(H2O)2", "STO-3G", chem.WaterCluster(2, 1), fs, spread},
		{"H2O/6-31G*", "6-31G*", water, []dft.Functional{dft.HF{}, dft.PBE0{}}, all(3)},
	} {
		for _, f := range tc.fs {
			tight := tightConfig(tc.basis, f)
			res, frc, err := RunForces(tc.mol, tight)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, f.Name(), err)
			}
			var worst float64
			for _, c := range tc.comps {
				want := fdForce(t, tc.mol, tight, c.atom, c.axis)
				d := math.Abs(frc[c.atom][c.axis] - want)
				worst = math.Max(worst, d)
				if d > 2e-6 {
					t.Errorf("%s %s atom %d axis %d: analytic %.10f, FD %.10f (|Δ| %.3g)",
						tc.name, f.Name(), c.atom, c.axis, frc[c.atom][c.axis], want, d)
				}
			}
			if net := netForce(frc); net > 1e-9 {
				t.Errorf("%s %s: net force %.3g, want 0", tc.name, f.Name(), net)
			}
			_, served, err := RunForces(tc.mol, Config{Basis: tc.basis, Functional: f})
			if err != nil {
				t.Fatalf("%s %s at default tolerances: %v", tc.name, f.Name(), err)
			}
			if d := maxForceDiff(served, frc); d > 2e-5 {
				t.Errorf("%s %s: forces at the default tolerances off by %.3g", tc.name, f.Name(), d)
			}
			t.Logf("%-11s %-4s E=%.8f  max|F−FD| %.2e  default-tolerance shift %.2e", tc.name, f.Name(), res.Energy, worst, maxForceDiff(served, frc))
		}
	}
}

// TestForcesScreeningControlled: forces under the default screening
// threshold stay within what the threshold allows of the unscreened ones.
func TestForcesScreeningControlled(t *testing.T) {
	mol := chem.WaterCluster(2, 1)
	cfg := tightConfig("STO-3G", dft.PBE0{})
	_, screened, err := RunForces(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Screen.Threshold, cfg.Screen.ExtentEps, cfg.Screen.NoDistance = 1e-30, 1e-30, true
	cfg.HFX = hfx.DefaultOptions()
	cfg.HFX.DensityWeighted = false
	_, exact, err := RunForces(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxForceDiff(screened, exact); d > 1e-6 {
		t.Fatalf("default screening moves the forces by %.3g Eh/bohr", d)
	}
}

// TestForcesDeterministic: at fixed hfx.Options.Threads the forces are
// bitwise identical from run to run and for any GOMAXPROCS.
func TestForcesDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mol := chem.WaterCluster(2, 1)
	cfg := Config{Functional: dft.PBE0{}, HFX: hfx.DefaultOptions()}
	cfg.HFX.Threads = 3
	var want []chem.Vec3
	for _, procs := range []int{1, 1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		_, got, err := RunForces(mol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for a := range want {
			if got[a] != want[a] {
				t.Fatalf("GOMAXPROCS=%d atom %d: %v != %v", procs, a, got[a], want[a])
			}
		}
	}
}

// TestForcesRefuseUnconverged: a density that is not stationary gets a
// typed error, never a force.
func TestForcesRefuseUnconverged(t *testing.T) {
	res, frc, err := RunForces(chem.Water(), Config{MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if frc != nil || res == nil || res.Converged {
		t.Fatalf("unconverged run returned forces %v, result %+v", frc, res)
	}
}

package md_test

import (
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
)

// TestForcesNDeterministic pins the parallel finite-difference path
// against the serial one: every force component depends only on its own
// two displaced energies, so any worker count must give bitwise-identical
// forces.
func TestForcesNDeterministic(t *testing.T) {
	mol := chem.WaterCluster(2, 6)
	pot := springPot(0.35, 1.4)
	serial, err := md.ForcesN(mol, pot, 1e-4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 100} {
		par, err := md.ForcesN(mol, pot, 1e-4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			for k := 0; k < 3; k++ {
				if par[i][k] != serial[i][k] {
					t.Fatalf("workers=%d atom %d dim %d: %x != serial %x",
						workers, i, k, par[i][k], serial[i][k])
				}
			}
		}
	}
}

// TestForcesNDeterministicSCF repeats the bitwise check with the real SCF
// potential (concurrent pot calls), on the smallest system that keeps the
// test fast.
func TestForcesNDeterministicSCF(t *testing.T) {
	mol := chem.Hydrogen(1.4)
	pot := md.SCFPotential(scf.Config{})
	serial, err := md.ForcesN(mol, pot, 5e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := md.ForcesN(mol, pot, 5e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for k := 0; k < 3; k++ {
			if par[i][k] != serial[i][k] {
				t.Fatalf("atom %d dim %d: parallel %x != serial %x", i, k, par[i][k], serial[i][k])
			}
		}
	}
}

// TestForcesNErrorPropagation checks a failing potential surfaces its
// error through the worker group.
func TestForcesNErrorPropagation(t *testing.T) {
	failing := func(m *chem.Molecule) (float64, error) { return 0, errTest }
	if _, err := md.ForcesN(chem.Water(), failing, 1e-4, 4); err == nil {
		t.Fatal("expected propagated error")
	}
}

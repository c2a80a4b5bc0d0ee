// Package md holds the Born–Oppenheimer building blocks on the SCF
// potential-energy surface: the energy-and-forces Surface every
// trajectory and relaxation consumes, the warm-started Session that
// serves it along a trajectory, the velocity draw and Berendsen rescale
// package respa integrates with, and the constrained reaction-coordinate
// scans used for the Li/air electrolyte-degradation study (paper
// experiment E8).
//
// A closed-shell SCF surface has analytic forces — scf.RunForces: one SCF
// plus one gradient build — which Session.Forces (warm-started across
// steps) and SCFForces (state-free) serve. FDSurface differences any
// energy-only PotentialFunc centrally (ForcesN, 6N energies per call):
// that serves model surfaces and UHF, and is the oracle the analytic
// forces are tested against.
package md

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hfxmd/internal/chem"
	"hfxmd/internal/scf"
)

// Surface returns the potential energy (hartree) and forces −∂E/∂R
// (hartree/bohr) of a geometry: the one force-returning type that
// trajectories (package respa) and relaxations (package opt) consume.
type Surface func(*chem.Molecule) (epot float64, f []chem.Vec3, err error)

// PotentialFunc maps a geometry to a total energy in hartree: the
// energy-only surface of the scans, and the input of FDSurface.
type PotentialFunc func(*chem.Molecule) (float64, error)

// SCFPotential adapts an scf.Config into a PotentialFunc.
func SCFPotential(cfg scf.Config) PotentialFunc {
	return func(m *chem.Molecule) (float64, error) {
		res, err := scf.Run(m, cfg)
		if err != nil {
			return 0, err
		}
		if !res.Converged {
			return res.Energy, fmt.Errorf("md: SCF not converged at this geometry")
		}
		return res.Energy, nil
	}
}

// FDSurface adapts a PotentialFunc into a Surface: central
// finite-difference forces with step h over a bounded worker group
// (ForcesN, 6N evaluations) plus one central energy. It serves
// potentials without analytic forces (model surfaces, UHF) and, in
// tests, is the oracle for SCFForces and Session.Forces.
func FDSurface(pot PotentialFunc, h float64, workers int) Surface {
	return func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		f, err := ForcesN(m, pot, h, workers)
		if err != nil {
			return 0, nil, err
		}
		e, err := pot(m)
		if err != nil {
			return 0, nil, err
		}
		return e, f, nil
	}
}

// ForcesN computes −∂E/∂R by central differences with step h (bohr,
// default 5e-3), evaluating the 6N displaced energies over at most
// workers goroutines (0 or negative means GOMAXPROCS; the bound is
// clamped to the 3N displacement jobs). Each force component depends
// only on its own two displaced energies, so every worker count gives
// the same bits. Every worker displaces its own clone of the geometry,
// so pot is called concurrently — the PotentialFunc must be safe for
// that, which SCFPotential is (each call builds its own SCF state).
func ForcesN(mol *chem.Molecule, pot PotentialFunc, h float64, workers int) ([]chem.Vec3, error) {
	if h <= 0 {
		h = 5e-3
	}
	n := mol.NAtoms()
	jobs := 3 * n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	f := make([]chem.Vec3, n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work := mol.Clone()
			for {
				jid := int(next.Add(1)) - 1
				if jid >= jobs || errs[w] != nil {
					return
				}
				i, k := jid/3, jid%3
				orig := work.Atoms[i].Pos[k]
				work.Atoms[i].Pos[k] = orig + h
				ep, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: forward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig - h
				em, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: backward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig
				f[i][k] = -(ep - em) / (2 * h)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

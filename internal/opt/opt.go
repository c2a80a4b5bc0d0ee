// Package opt provides geometry optimization on any energy-and-forces
// surface (md.Surface: analytic SCF forces from md.SCFForces, or
// md.FDSurface over an energy-only potential), using the FIRE (Fast
// Inertial Relaxation Engine) algorithm — the standard structural
// relaxer for the encounter complexes and degradation products of the
// Li/air study. Each FIRE step makes one surface call.
package opt

import (
	"fmt"
	"math"

	"hfxmd/internal/chem"
	"hfxmd/internal/md"
)

// Options controls the FIRE minimisation.
type Options struct {
	// MaxSteps bounds the iteration count (default 200).
	MaxSteps int
	// ForceTol is the convergence threshold on max |F| in hartree/bohr
	// (default 5e-4).
	ForceTol float64
	// MaxStepLength caps the per-step atomic displacement in bohr
	// (default 0.3) to keep the SCF in its convergence basin.
	MaxStepLength float64
	// DtInit is the initial FIRE timestep (default 0.3, arbitrary units
	// with unit masses).
	DtInit float64
	// OnStep, if set, receives progress (step, energy, max force).
	OnStep func(step int, energy, fmax float64)
}

// Result is the outcome of a minimisation.
type Result struct {
	// Mol is the relaxed geometry.
	Mol *chem.Molecule
	// Energy is the final potential energy.
	Energy float64
	// MaxForce is the final max |F| component.
	MaxForce float64
	// Steps actually performed.
	Steps int
	// Converged reports whether ForceTol was reached.
	Converged bool
}

// FIRE parameters (Bitzek et al., PRL 97, 170201 (2006)).
const (
	fireNMin   = 5
	fireFInc   = 1.1
	fireFDec   = 0.5
	fireAStart = 0.1
	fireFA     = 0.99
	fireDtMaxF = 10.0 // dtMax = fireDtMaxF × DtInit
)

// Minimize relaxes the molecule on the given surface with FIRE.
func Minimize(mol *chem.Molecule, surf md.Surface, opts Options) (*Result, error) {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 200
	}
	if opts.ForceTol <= 0 {
		opts.ForceTol = 5e-4
	}
	if opts.MaxStepLength <= 0 {
		opts.MaxStepLength = 0.3
	}
	if opts.DtInit <= 0 {
		opts.DtInit = 0.3
	}
	m := mol.Clone()
	n := m.NAtoms()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty molecule")
	}
	vel := make([]chem.Vec3, n)
	dt := opts.DtInit
	dtMax := fireDtMaxF * opts.DtInit
	alpha := fireAStart
	nPos := 0

	energy, frc, err := surf(m)
	if err != nil {
		return nil, err
	}
	res := &Result{Mol: m, Energy: energy, MaxForce: maxAbs(frc)}

	for step := 1; step <= opts.MaxSteps; step++ {
		// MD half-step (unit masses: optimization dynamics, not physics).
		for i := 0; i < n; i++ {
			vel[i] = vel[i].Add(frc[i].Scale(dt))
		}
		// FIRE velocity mixing.
		p := power(frc, vel)
		if p > 0 {
			vn := norm(vel)
			fn := norm(frc)
			if fn > 0 {
				for i := 0; i < n; i++ {
					vel[i] = vel[i].Scale(1 - alpha).Add(frc[i].Scale(alpha * vn / fn))
				}
			}
			nPos++
			if nPos > fireNMin {
				dt = math.Min(dt*fireFInc, dtMax)
				alpha *= fireFA
			}
		} else {
			for i := range vel {
				vel[i] = chem.Vec3{}
			}
			dt *= fireFDec
			alpha = fireAStart
			nPos = 0
		}
		// Position update with step-length cap.
		for i := 0; i < n; i++ {
			d := vel[i].Scale(dt)
			if l := d.Norm(); l > opts.MaxStepLength {
				d = d.Scale(opts.MaxStepLength / l)
			}
			m.Atoms[i].Pos = m.Atoms[i].Pos.Add(d)
		}

		energy, frc, err = surf(m)
		if err != nil {
			return res, err
		}
		res.Energy = energy
		res.MaxForce = maxAbs(frc)
		res.Steps = step
		if opts.OnStep != nil {
			opts.OnStep(step, energy, res.MaxForce)
		}
		if res.MaxForce < opts.ForceTol {
			res.Converged = true
			break
		}
	}
	return res, nil
}

func maxAbs(f []chem.Vec3) float64 {
	var m float64
	for _, v := range f {
		for k := 0; k < 3; k++ {
			if a := math.Abs(v[k]); a > m {
				m = a
			}
		}
	}
	return m
}

func power(f, v []chem.Vec3) float64 {
	var p float64
	for i := range f {
		p += f[i].Dot(v[i])
	}
	return p
}

func norm(v []chem.Vec3) float64 {
	var s float64
	for _, x := range v {
		s += x.Norm2()
	}
	return math.Sqrt(s)
}

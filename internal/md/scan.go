package md

import (
	"fmt"

	"hfxmd/internal/chem"
	"hfxmd/internal/scf"
)

// ScanPoint is one point of an energy profile, in the JSON encoding of
// hfxd's solvent-scan jobs.
type ScanPoint struct {
	// R is the scan coordinate the point's geometry was built at (bohr
	// for a distance scan).
	R float64 `json:"r"`
	// Energy is the SCF energy in hartree.
	Energy float64 `json:"energy"`
	// Rel is Energy minus the energy of the profile's first converged
	// point, in hartree; 0 for an unconverged point.
	Rel       float64 `json:"rel"`
	Converged bool    `json:"converged"`
	// Iterations counts the point's SCF iterations (a cold retry of a
	// seeded run included): the warm start, point by point.
	Iterations int `json:"iterations"`
}

// Profile is an energy profile along a sequence of geometries.
type Profile struct {
	Points []ScanPoint
	// Well is the most negative Rel of the profile (hartree): the depth of
	// an encounter well, 0 for a purely repulsive profile.
	Well float64
}

// scanConfig applies the solver settings every scan runs under: damping
// 0.5 over the first 8 iterations and a 0.3 Eh level shift, which carry
// the SCF through the close-contact geometries of an approach profile,
// and 120 iterations when cfg sets no bound.
func scanConfig(cfg scf.Config) scf.Config {
	cfg.Damping, cfg.DampIters = 0.5, 8
	cfg.LevelShift = 0.3
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 120
	}
	return cfg
}

// Scan computes the energy profile over the geometries geom builds at the
// coordinates coords, in order, as Run calls on one Session under
// scanConfig(cfg): each point starts from the density predictor's
// extrapolation of the points before it (and, with opt.Store, the first
// from a stored density) and reuses the session's builder and XC
// integrator, the shortcuts trajectory steps get. A point whose SCF does
// not converge is recorded and the scan goes on; any other error (cfg.Ctx
// cancelled, a bad geometry) ends it, returning the points so far.
// progress, if non-nil, sees the session's counters after every point.
func Scan(cfg scf.Config, opt SessionOptions, coords []float64, geom func(r float64) (*chem.Molecule, error), progress func(SessionStats)) (*Profile, error) {
	sess := NewSession(scanConfig(cfg), opt)
	defer sess.Close()
	prof := &Profile{}
	defer prof.relate()
	var iters int64
	for _, r := range coords {
		m, err := geom(r)
		if err != nil {
			return prof, err
		}
		res, err := sess.Run(m)
		if err != nil {
			return prof, fmt.Errorf("md: scan point r=%.3f: %w", r, err)
		}
		st := sess.Stats()
		prof.Points = append(prof.Points, ScanPoint{
			R: r, Energy: res.Energy, Converged: res.Converged,
			Iterations: int(st.SCFIterations - iters),
		})
		iters = st.SCFIterations
		if progress != nil {
			progress(st)
		}
	}
	return prof, nil
}

// relate fills Rel and Well the one way every profile is measured: from
// the first converged point, over converged points only.
func (p *Profile) relate() {
	ref, seen := 0.0, false
	for i := range p.Points {
		pt := &p.Points[i]
		if !pt.Converged {
			continue
		}
		if !seen {
			ref, seen = pt.Energy, true
		}
		pt.Rel = pt.Energy - ref
		p.Well = min(p.Well, pt.Rel)
	}
}

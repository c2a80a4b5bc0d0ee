// Package scf drives restricted Hartree–Fock and Kohn–Sham self-consistent
// field calculations on top of the integral engine, the task-parallel HFX
// builder and the DFT grid machinery. It supports the functionals HF, LDA,
// PBE and — the paper's production method — the PBE0 hybrid, whose exact-
// exchange part is exactly the quantity the paper's parallelization scheme
// accelerates.
//
// Convergence is accelerated with Pulay DIIS on the orthonormalised
// commutator FPS−SPF, with an optional level shift for difficult cases.
package scf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
)

// Config selects the model chemistry and the solver parameters.
type Config struct {
	// Basis names a built-in basis set (default "STO-3G").
	Basis string
	// Functional is one of dft.HF, dft.LDA, dft.PBE, dft.PBE0
	// (default HF).
	Functional dft.Functional
	// Screen configures integral screening (default screen.DefaultOptions).
	Screen screen.Options
	// HFX configures the exchange builder (default hfx.DefaultOptions).
	HFX hfx.Options
	// Grid configures the XC grid for DFT functionals.
	Grid dft.GridSpec
	// MaxIter bounds the SCF iterations (default 100).
	MaxIter int
	// EnergyTol is the energy-change convergence criterion (default 1e-8).
	EnergyTol float64
	// CommutatorTol is the DIIS-error convergence criterion (default 1e-6).
	CommutatorTol float64
	// DIISDepth is the maximum number of stored Fock matrices (default 8).
	DIISDepth int
	// LevelShift adds a virtual-orbital shift (hartree) for robustness.
	LevelShift float64
	// Damping mixes the new density with the old one during the first
	// DampIters iterations: P ← (1−Damping)·P_new + Damping·P_old.
	// Stabilises difficult core-guess starts (0 disables).
	Damping   float64
	DampIters int
	// OnIteration, if set, is called after every SCF cycle with the
	// iteration number, current energy and DIIS error norm.
	OnIteration func(iter int, energy, diisErr float64)
	// Guess selects the starting density: "sad" (superposition of atomic
	// densities, the default) or "core" (diagonalised core Hamiltonian).
	Guess string
	// InitialDensity, when non-nil, overrides Guess with an explicit
	// starting density (row-major n×n, matching the built basis). This is
	// the prefix-reuse path: a converged density stored for a related
	// geometry (a neighbouring scan point or MD step) restarts SCF close
	// to the solution in a few iterations. The matrix is cloned, not
	// aliased.
	InitialDensity *linalg.Matrix
	// Ctx, if non-nil, is polled once per SCF iteration; when it is
	// cancelled (deadline exceeded, client disconnect, server drain)
	// the driver stops between iterations and returns the context error
	// alongside the partial result, so a hung or abandoned job cannot
	// pin a server worker forever. Nil preserves the pre-context
	// behaviour. RunContext is the convenience wrapper that sets it.
	Ctx context.Context
	// Screening, when non-nil, injects a prebuilt pair list instead of
	// screening here — the cross-step reuse path for MD, where the shell
	// structure (and hence every pair index) is geometry-independent for
	// a fixed composition and basis. The Schwarz bounds inside are then
	// *stale* relative to the current geometry; the caller owns keeping
	// the staleness bounded (see md.Session's max-displacement guard).
	// Integrals themselves are always evaluated at the current geometry.
	Screening *screen.Result
	// ExternalBuilder, when non-nil, performs the Fock builds instead of
	// a builder constructed (and closed) per Run. The caller owns its
	// lifecycle and must have rebound it to this geometry
	// (hfx.Builder.Rebind) — across consecutive MD steps this preserves
	// the worker pool, the task schedule and the semi-direct cache
	// layout, so the new step's first build refills exactly the admitted
	// ERI blocks of the previous one. Implies Screening (the builder's
	// pair list is used).
	ExternalBuilder *hfx.Builder
	// ExternalIntegrator, when non-nil, is the XC integrator a DFT run
	// rebinds to its geometry instead of allocating one: its tables and
	// scratch then survive from one MD step to the next. The caller owns it
	// and must not share it between concurrent runs.
	ExternalIntegrator *dft.Integrator
}

func (c *Config) fillDefaults() {
	if c.Basis == "" {
		c.Basis = "STO-3G"
	}
	if c.Functional == nil {
		c.Functional = dft.HF{}
	}
	if c.Screen == (screen.Options{}) {
		c.Screen = screen.DefaultOptions()
	}
	if c.MaxIter == 0 {
		c.MaxIter = 100
	}
	if c.EnergyTol == 0 {
		c.EnergyTol = 1e-8
	}
	if c.CommutatorTol == 0 {
		c.CommutatorTol = 1e-6
	}
	if c.DIISDepth == 0 {
		c.DIISDepth = 8
	}
	if c.Guess == "" {
		c.Guess = "sad"
	}
	// Only a fully zero HFX config means "unset". Comparing individual
	// fields here used to misfire: hfx.BaselineOptions() has Balancer ==
	// sched.Block (0), Threads == 0 and DensityWeighted == false, so an
	// explicitly requested baseline was silently replaced by the
	// production defaults.
	if c.HFX == (hfx.Options{}) {
		c.HFX = hfx.DefaultOptions()
	}
}

// Result carries the converged state and energy decomposition.
type Result struct {
	// Energy is the total energy in hartree.
	Energy float64
	// EOne, ECoulomb, EExchangeHF, EXC, ENuclear decompose it.
	EOne, ECoulomb, EExchangeHF, EXC, ENuclear float64
	// Converged reports whether both criteria were met within MaxIter.
	Converged bool
	// Iterations actually performed.
	Iterations int
	// OrbitalEnergies in hartree, ascending.
	OrbitalEnergies []float64
	// NOcc is the number of doubly occupied orbitals.
	NOcc int
	// C are the MO coefficients (columns), P the final density.
	C, P *linalg.Matrix
	// HFXReport is the exchange builder's report from the last iteration.
	HFXReport hfx.Report
	// GridElectrons is the grid-integrated electron count (DFT only).
	GridElectrons float64
	// Set is the instantiated basis.
	Set *basis.Set
}

// HOMO returns the highest occupied orbital energy.
func (r *Result) HOMO() float64 {
	if r.NOcc == 0 {
		return math.NaN()
	}
	return r.OrbitalEnergies[r.NOcc-1]
}

// LUMO returns the lowest unoccupied orbital energy (NaN if none).
func (r *Result) LUMO() float64 {
	if r.NOcc >= len(r.OrbitalEnergies) {
		return math.NaN()
	}
	return r.OrbitalEnergies[r.NOcc]
}

// Gap returns the HOMO-LUMO gap.
func (r *Result) Gap() float64 { return r.LUMO() - r.HOMO() }

// RunContext performs the SCF under an explicit cancellation context: a
// wrapper over Run that sets cfg.Ctx so existing call sites keep the old
// two-argument signature. Cancellation is checked once per iteration; on
// cancellation the partial (unconverged) result is returned together
// with an error wrapping ctx.Err().
func RunContext(ctx context.Context, mol *chem.Molecule, cfg Config) (*Result, error) {
	cfg.Ctx = ctx
	return Run(mol, cfg)
}

// Run performs the SCF for the molecule under the given configuration.
func Run(mol *chem.Molecule, cfg Config) (*Result, error) {
	res, _, err := run(mol, cfg, false)
	return res, err
}

// run is Run, followed by the gradient of the converged energy when
// forces is set.
func run(mol *chem.Molecule, cfg Config, forces bool) (*Result, []chem.Vec3, error) {
	cfg.fillDefaults()
	ne := mol.NElectrons()
	if ne <= 0 {
		return nil, nil, fmt.Errorf("scf: molecule has %d electrons", ne)
	}
	if ne%2 != 0 {
		return nil, nil, errors.New("scf: restricted SCF requires an even electron count")
	}
	nocc := ne / 2

	set, err := basis.Build(cfg.Basis, mol)
	if err != nil {
		return nil, nil, err
	}
	eng := integrals.NewEngine(set)
	s := eng.Overlap()
	h := eng.CoreHamiltonian()
	x := linalg.LowdinOrthogonalizer(s, 1e-9)
	if x.Cols < nocc {
		return nil, nil, fmt.Errorf("scf: basis too linearly dependent: %d independent functions for %d occupied orbitals", x.Cols, nocc)
	}

	builder := cfg.ExternalBuilder
	if builder != nil {
		if nb := builder.NBasis(); nb != set.NBasis {
			return nil, nil, fmt.Errorf("scf: external builder is bound to %d basis functions, geometry needs %d", nb, set.NBasis)
		}
	} else {
		scr := cfg.Screening
		if scr == nil {
			scr = screen.BuildPairList(eng, cfg.Screen)
		}
		builder = hfx.NewBuilder(eng, scr, cfg.HFX)
		defer builder.Close()
	}

	var xcInt *dft.Integrator
	if cfg.Functional.NeedsGrid() {
		if xcInt = cfg.ExternalIntegrator; xcInt == nil {
			xcInt = new(dft.Integrator)
		}
		xcInt.Rebind(cfg.Functional, set, dft.BuildGrid(mol, cfg.Grid), forces)
	}

	res := &Result{Set: set, NOcc: nocc, ENuclear: mol.NuclearRepulsion()}
	n := set.NBasis
	p := linalg.NewSquare(n)
	diis := newDIIS(cfg.DIISDepth)

	var c *linalg.Matrix
	var eps []float64
	switch {
	case cfg.InitialDensity != nil:
		if cfg.InitialDensity.Rows != n || cfg.InitialDensity.Cols != n {
			return nil, nil, fmt.Errorf("scf: initial density is %dx%d, basis needs %dx%d",
				cfg.InitialDensity.Rows, cfg.InitialDensity.Cols, n, n)
		}
		p.CopyFrom(cfg.InitialDensity)
	case cfg.Guess == "core":
		c, eps = solveFock(h, x)
		buildDensity(p, c, nocc)
	case cfg.Guess == "sad":
		sadGuess(set, p)
	default:
		return nil, nil, fmt.Errorf("scf: unknown guess %q (want sad or core)", cfg.Guess)
	}

	var lastE float64
	aX := cfg.Functional.ExactExchangeFraction()
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return res, nil, fmt.Errorf("scf: cancelled before iteration %d: %w", iter, err)
			}
		}
		j, k, rep := builder.BuildJK(p)
		res.HFXReport = rep

		f := h.Clone()
		f.AXPY(1, j)
		if aX != 0 {
			f.AXPY(-0.5*aX, k)
		}
		var exc float64
		if xcInt != nil {
			xc := xcInt.Integrate(p)
			f.AXPY(1, xc.V)
			exc = xc.Energy
			res.GridElectrons = xc.NElec
		}

		e1 := linalg.TraceMul(p, h)
		ej := 0.5 * linalg.TraceMul(p, j)
		ek := 0.0
		if aX != 0 {
			ek = -0.25 * aX * linalg.TraceMul(p, k)
		}
		energy := e1 + ej + ek + exc + res.ENuclear

		// DIIS extrapolation on the orthonormalised commutator.
		errMat := commutator(f, p, s, x)
		f = diis.extrapolate(f, errMat)
		errNorm := errMat.FrobeniusNorm()

		if cfg.LevelShift != 0 {
			f = levelShift(f, s, p, cfg.LevelShift, nocc)
		}

		c, eps = solveFock(f, x)
		if cfg.Damping > 0 && iter <= cfg.DampIters {
			pOld := p.Clone()
			buildDensity(p, c, nocc)
			p.Scale(1-cfg.Damping).AXPY(cfg.Damping, pOld)
		} else {
			buildDensity(p, c, nocc)
		}

		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, energy, errNorm)
		}
		res.Iterations = iter
		res.Energy = energy
		res.EOne, res.ECoulomb, res.EExchangeHF, res.EXC = e1, ej, ek, exc
		res.OrbitalEnergies = eps
		res.C = c
		res.P = p.Clone()

		if iter > 1 && math.Abs(energy-lastE) < cfg.EnergyTol && errNorm < cfg.CommutatorTol {
			res.Converged = true
			break
		}
		lastE = energy
	}
	if !forces {
		return res, nil, nil
	}
	if !res.Converged {
		return res, nil, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	return res, forcesOf(mol, builder, xcInt, res.P, c, eps[:nocc], aX), nil
}

// sadGuess fills p with a superposition of (spherically averaged) neutral
// atomic densities: each atom's shells are aufbau-filled in basis order
// with up to 2 electrons per s shell and 6 per p shell, spread evenly
// over the Cartesian components. The resulting diagonal density carries
// the right electron count per atom and starts the SCF far closer to the
// solution than the core guess for polyatomics.
func sadGuess(set *basis.Set, p *linalg.Matrix) {
	p.Zero()
	remaining := make(map[int]float64, set.Mol.NAtoms())
	for ai, atom := range set.Mol.Atoms {
		remaining[ai] = float64(atom.El)
	}
	for si := range set.Shells {
		sh := &set.Shells[si]
		rem := remaining[sh.Atom]
		if rem <= 0 {
			continue
		}
		cap := 2.0
		if sh.L == 1 {
			cap = 6
		}
		take := math.Min(rem, cap)
		remaining[sh.Atom] = rem - take
		per := take / float64(sh.NFuncs())
		for f := sh.Index; f < sh.Index+sh.NFuncs(); f++ {
			p.Set(f, f, per)
		}
	}
}

// SADDensity returns the superposition-of-atomic-densities guess for a
// basis set as a fresh matrix — the density the hfxd single-build
// (buildjk) jobs contract against without running a full SCF.
func SADDensity(set *basis.Set) *linalg.Matrix {
	p := linalg.NewSquare(set.NBasis)
	sadGuess(set, p)
	return p
}

// solveFock diagonalises F in the orthonormal basis X and back-transforms
// the coefficients: F' = XᵀFX, F'C' = C'ε, C = XC'.
func solveFock(f, x *linalg.Matrix) (*linalg.Matrix, []float64) {
	fp := linalg.Mul(x.T(), linalg.Mul(f, x))
	fp.Symmetrize()
	eps, cp := linalg.EigenSym(fp)
	return linalg.Mul(x, cp), eps
}

// buildDensity overwrites p with 2·C_occ·C_occᵀ.
func buildDensity(p, c *linalg.Matrix, nocc int) {
	n := p.Rows
	for i := 0; i < n; i++ {
		ci := c.Row(i)[:nocc]
		row := p.Row(i)
		for j := 0; j < n; j++ {
			cj := c.Row(j)[:nocc]
			var v float64
			for o := 0; o < nocc; o++ {
				v += ci[o] * cj[o]
			}
			row[j] = 2 * v
		}
	}
}

// commutator returns Xᵀ(FPS−SPF)X, the DIIS error vector.
func commutator(f, p, s, x *linalg.Matrix) *linalg.Matrix {
	fps := linalg.Mul(f, linalg.Mul(p, s))
	spf := linalg.Mul(s, linalg.Mul(p, f))
	fps.AXPY(-1, spf)
	return linalg.Mul(x.T(), linalg.Mul(fps, x))
}

// levelShift raises the virtual-orbital energies by adding
// shift·(S − S·P·S/2) — the standard density-based projector shift.
func levelShift(f, s, p *linalg.Matrix, shift float64, nocc int) *linalg.Matrix {
	sps := linalg.Mul(s, linalg.Mul(p, s))
	out := f.Clone()
	out.AXPY(shift, s)
	out.AXPY(-shift/2, sps)
	return out
}

// MullikenCharges returns per-atom Mulliken partial charges.
func MullikenCharges(res *Result, eng *integrals.Engine) []float64 {
	set := res.Set
	s := eng.Overlap()
	ps := linalg.Mul(res.P, s)
	q := make([]float64, set.Mol.NAtoms())
	for ai := range q {
		q[ai] = float64(set.Mol.Atoms[ai].El)
	}
	for si := range set.Shells {
		sh := &set.Shells[si]
		for fi := sh.Index; fi < sh.Index+sh.NFuncs(); fi++ {
			q[sh.Atom] -= ps.At(fi, fi)
		}
	}
	return q
}

// Dipole returns the molecular dipole moment vector in atomic units.
func Dipole(res *Result, eng *integrals.Engine) [3]float64 {
	mol := res.Set.Mol
	var mu [3]float64
	for _, a := range mol.Atoms {
		for k := 0; k < 3; k++ {
			mu[k] += float64(a.El) * a.Pos[k]
		}
	}
	d := eng.Dipole([3]float64{0, 0, 0})
	for k := 0; k < 3; k++ {
		mu[k] -= linalg.TraceMul(res.P, d[k])
	}
	return mu
}

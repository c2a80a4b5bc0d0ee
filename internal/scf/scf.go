// Package scf drives restricted Hartree–Fock and Kohn–Sham, and
// unrestricted Hartree–Fock, self-consistent field calculations on top of
// the integral engine, the task-parallel HFX builder and the DFT grid
// machinery: one loop over spin channels, one for a closed shell and two
// (α and β) for an unrestricted run. It supports the functionals HF, LDA,
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
	// LevelShift adds a virtual-orbital shift (hartree) for robustness.
	LevelShift float64
	// Damping mixes the new density with the old one during the first
	// DampIters iterations: P ← (1−Damping)·P_new + Damping·P_old.
	// Stabilises difficult starts (0 disables).
	Damping   float64
	DampIters int
	// OnIteration, if set, is called after every SCF cycle with the
	// iteration number, current energy and DIIS error norm.
	OnIteration func(iter int, energy, diisErr float64)
	// InitialDensity, when non-nil, replaces the SAD guess (superposition
	// of atomic densities) with an explicit starting total density
	// (row-major n×n, matching the built basis; an unrestricted run splits
	// it by spin fraction). This is the prefix-reuse path: a converged
	// density stored for a related geometry (a neighbouring scan point or
	// MD step) restarts SCF close to the solution in a few iterations. The
	// matrix is cloned, not aliased.
	InitialDensity *linalg.Matrix
	// Ctx, if non-nil, is polled once per SCF iteration; when it is
	// cancelled (deadline exceeded, client disconnect, server drain)
	// the driver stops between iterations and returns the context error
	// alongside the partial result, so a hung or abandoned job cannot
	// pin a server worker forever. Nil never cancels.
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
	// lifecycle (md.NewSession takes ownership of it, as the builder of
	// the session's first pair list) and must have rebound it to this geometry
	// (hfx.Builder.Rebind) — across consecutive MD steps this preserves
	// the worker pool, the task schedule and the semi-direct cache
	// layout, so the new step's first build refills exactly the admitted
	// ERI blocks of the previous one. Implies Screening (the builder's
	// pair list is used). The run takes the builder's basis and engine
	// as its own, so the builder must be bound to Basis over the run's
	// molecule: the same elements at the same positions, else the run
	// fails.
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
	// Eng is the integral engine the run used, over Set: an
	// ExternalBuilder's own engine, else the one the run built. Its S is
	// memoised, so MullikenCharges(res, res.Eng) computes no second S.
	Eng *integrals.Engine
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
	sv, err := newSolver(mol, cfg, nocc, forces)
	if err != nil {
		return nil, nil, err
	}
	defer sv.close()
	ch := &channel{p: sv.p, nocc: nocc, occ: 2}
	res, err := sv.iterate(ch)
	res.NOcc = nocc
	res.OrbitalEnergies, res.C, res.P = ch.eps, ch.c, ch.p.Clone()
	if err != nil || !forces {
		return res, nil, err
	}
	if !res.Converged {
		return res, nil, fmt.Errorf("%w after %d iterations", ErrNotConverged, res.Iterations)
	}
	aX := cfg.Functional.ExactExchangeFraction()
	return res, forcesOf(mol, sv.builder, sv.xcInt, res.P, ch.c, ch.eps[:nocc], aX), nil
}

// solver holds what every SCF run needs before its first iteration.
type solver struct {
	cfg      Config
	eng      *integrals.Engine
	s, h, x  *linalg.Matrix
	builder  *hfx.Builder
	owned    bool // the builder is the run's own, closed with it
	xcInt    *dft.Integrator
	p        *linalg.Matrix // the starting total density
	eNuclear float64
}

// newSolver builds the basis and engine (or takes cfg.ExternalBuilder's),
// S and H in one pass, the orthogonaliser X, the J/K builder
// (cfg.ExternalBuilder, or a new one on cfg.Screening or a fresh pair list),
// the XC integrator of a grid functional and the starting total density
// (cfg.InitialDensity, else SAD) for a run whose channels occupy at most
// nocc orbitals. cfg must be defaulted.
func newSolver(mol *chem.Molecule, cfg Config, nocc int, forces bool) (*solver, error) {
	var eng *integrals.Engine
	if cfg.ExternalBuilder != nil {
		eng = cfg.ExternalBuilder.Eng
		if err := boundTo(eng.Basis, cfg.Basis, mol); err != nil {
			return nil, err
		}
	} else {
		set, err := basis.Build(cfg.Basis, mol)
		if err != nil {
			return nil, err
		}
		eng = integrals.NewEngine(set)
	}
	set := eng.Basis
	n := set.NBasis
	sv := &solver{cfg: cfg, eng: eng, p: linalg.NewSquare(n), eNuclear: mol.NuclearRepulsion()}
	sv.s, sv.h = eng.OverlapAndCore()
	sv.x = linalg.LowdinOrthogonalizer(sv.s, 1e-9)
	if sv.x.Cols < nocc {
		return nil, fmt.Errorf("scf: basis too linearly dependent: %d independent functions for %d occupied orbitals", sv.x.Cols, nocc)
	}
	if p0 := cfg.InitialDensity; p0 != nil {
		if p0.Rows != n || p0.Cols != n {
			return nil, fmt.Errorf("scf: initial density is %dx%d, basis needs %dx%d", p0.Rows, p0.Cols, n, n)
		}
		sv.p.CopyFrom(p0)
	} else {
		sadGuess(set, sv.p)
	}

	if sv.builder = cfg.ExternalBuilder; sv.builder == nil {
		scr := cfg.Screening
		if scr == nil {
			scr = screen.BuildPairList(eng, cfg.Screen)
		}
		sv.builder, sv.owned = hfx.NewBuilder(eng, scr, cfg.HFX), true
	}

	if cfg.Functional.NeedsGrid() {
		if sv.xcInt = cfg.ExternalIntegrator; sv.xcInt == nil {
			sv.xcInt = new(dft.Integrator)
		}
		sv.xcInt.Rebind(cfg.Functional, set, dft.BuildGrid(mol, cfg.Grid), forces)
	}
	return sv, nil
}

// boundTo returns an error unless set, an external builder's basis, is
// basis name over mol's elements at mol's positions.
func boundTo(set *basis.Set, name string, mol *chem.Molecule) error {
	if set.Name != name {
		return fmt.Errorf("scf: external builder is bound to basis %s, the run asks for %s", set.Name, name)
	}
	bound := set.Mol.Atoms
	if len(bound) != len(mol.Atoms) {
		return fmt.Errorf("scf: external builder is bound to %d atoms, the run has %d", len(bound), len(mol.Atoms))
	}
	for i, a := range mol.Atoms {
		if b := bound[i]; b.El != a.El || b.Pos != a.Pos {
			return fmt.Errorf("scf: external builder has %s at %v as atom %d, the run has %s at %v",
				b.El, b.Pos, i, a.El, a.Pos)
		}
	}
	return nil
}

// close releases the builder if the run built it.
func (sv *solver) close() {
	if sv.owned {
		sv.builder.Close()
	}
}

// channel is one spin channel: a closed-shell run has one, whose density is
// the total density and whose orbitals hold occ = 2 electrons each; an
// unrestricted run has two, α and β, with occ = 1.
type channel struct {
	p    *linalg.Matrix // density, updated in place each iteration
	nocc int
	occ  float64
	diis diis
	// The last iteration's J[P_σ], K[P_σ], DIIS error norm, orbitals and
	// orbital energies.
	j, k    *linalg.Matrix
	errNorm float64
	c       *linalg.Matrix
	eps     []float64
}

// iterate runs the SCF cycles over the channels, from their starting
// densities: per channel F_σ = h + J[ΣP] − (aₓ/occ)·K[P_σ] + V_xc[ΣP], its
// own DIIS extrapolation, level shift and diagonalisation, and a (damped)
// density update. The result carries the energy and convergence of the last
// completed iteration; a cancelled context ends the run between iterations
// with an error wrapping it.
func (sv *solver) iterate(chs ...*channel) (*Result, error) {
	cfg, h, s, x := sv.cfg, sv.h, sv.s, sv.x
	res := &Result{Set: sv.eng.Basis, Eng: sv.eng, ENuclear: sv.eNuclear}
	aX := cfg.Functional.ExactExchangeFraction()
	var lastE float64
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return res, fmt.Errorf("scf: cancelled before iteration %d: %w", iter, err)
			}
		}
		// J and K are linear in the density: one build per channel gives
		// everything. A build's J and K alias the builder's buffers, so all
		// but the last channel's are copied out before the next build.
		for i, ch := range chs {
			ch.j, ch.k, res.HFXReport = sv.builder.BuildJK(ch.p)
			if i < len(chs)-1 {
				ch.j, ch.k = ch.j.Clone(), ch.k.Clone()
			}
		}
		jt, pt := chs[0].j, chs[0].p
		if len(chs) == 2 {
			jt, pt = sum(jt, chs[1].j), sum(pt, chs[1].p)
		}

		var vxc *linalg.Matrix
		var exc float64
		if sv.xcInt != nil {
			xc := sv.xcInt.Integrate(pt)
			vxc, exc = xc.V, xc.Energy
			res.GridElectrons = xc.NElec
		}
		e1 := linalg.TraceMul(pt, h)
		ej := 0.5 * linalg.TraceMul(pt, jt)
		var ek float64
		for _, ch := range chs {
			f := h.Clone()
			f.AXPY(1, jt)
			if aX != 0 {
				f.AXPY(-aX/ch.occ, ch.k)
				ek += linalg.TraceMul(ch.p, ch.k)
			}
			if vxc != nil {
				f.AXPY(1, vxc)
			}
			// DIIS extrapolation on the orthonormalised commutator.
			errMat := commutator(f, ch.p, s, x)
			f = ch.diis.extrapolate(f, errMat)
			ch.errNorm = errMat.FrobeniusNorm()
			if cfg.LevelShift != 0 {
				f = levelShift(f, s, ch.p, cfg.LevelShift)
			}
			ch.c, ch.eps = solveFock(f, x)
			unshift(ch.eps, ch.nocc, ch.occ, cfg.LevelShift)
			if cfg.Damping > 0 && iter <= cfg.DampIters {
				pOld := ch.p.Clone()
				buildDensity(ch.p, ch.c, ch.nocc, ch.occ)
				ch.p.Scale(1-cfg.Damping).AXPY(cfg.Damping, pOld)
			} else {
				buildDensity(ch.p, ch.c, ch.nocc, ch.occ)
			}
		}
		if aX != 0 {
			ek *= -0.5 * aX / chs[0].occ
		}
		energy := e1 + ej + ek + exc + res.ENuclear
		errNorm := chs[0].errNorm
		if len(chs) == 2 {
			errNorm = math.Hypot(errNorm, chs[1].errNorm)
		}

		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, energy, errNorm)
		}
		res.Iterations = iter
		res.Energy = energy
		res.EOne, res.ECoulomb, res.EExchangeHF, res.EXC = e1, ej, ek, exc

		if iter > 1 && math.Abs(energy-lastE) < cfg.EnergyTol && errNorm < cfg.CommutatorTol {
			res.Converged = true
			break
		}
		lastE = energy
	}
	return res, nil
}

// sum returns a + b as a new matrix.
func sum(a, b *linalg.Matrix) *linalg.Matrix {
	t := a.Clone()
	t.AXPY(1, b)
	return t
}

// sadGuess fills p with a superposition of (spherically averaged) neutral
// atomic densities: each atom's shells are aufbau-filled in basis order
// with up to 2 electrons per s shell and 6 per p shell, spread evenly
// over the Cartesian components. The resulting diagonal density carries
// the right electron count per atom and starts the SCF far closer to the
// solution than the core Hamiltonian's orbitals for polyatomics.
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

// buildDensity overwrites p with occ·C_occ·C_occᵀ, occ the electrons per
// orbital.
func buildDensity(p, c *linalg.Matrix, nocc int, occ float64) {
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
			row[j] = occ * v
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
func levelShift(f, s, p *linalg.Matrix, shift float64) *linalg.Matrix {
	sps := linalg.Mul(s, linalg.Mul(p, s))
	out := f.Clone()
	out.AXPY(shift, s)
	out.AXPY(-shift/2, sps)
	return out
}

// unshift takes a level shift back out of the orbital energies of the
// shifted Fock matrix. On the orbitals of a converged density levelShift
// adds shift·(1 − occ/2) to each of the nocc occupied levels (occ is their
// occupation: 2 closed-shell, 1 per spin) and shift to every virtual.
func unshift(eps []float64, nocc int, occ, shift float64) {
	if shift == 0 {
		return
	}
	for i := range eps {
		if i < nocc {
			eps[i] -= shift * (1 - occ/2)
		} else {
			eps[i] -= shift
		}
	}
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

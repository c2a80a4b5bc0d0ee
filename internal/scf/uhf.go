package scf

import (
	"errors"
	"fmt"
	"math"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
)

// UnrestrictedResult carries a converged UHF state. The Li/air chemistry
// of the reproduced paper involves open-shell species (superoxide O2⁻,
// lithium superoxide LiO2, solvent radicals from the degradation
// pathway), so the SCF layer supports spin-unrestricted Hartree–Fock in
// addition to the restricted driver.
type UnrestrictedResult struct {
	// Energy is the total UHF energy in hartree.
	Energy float64
	// EOne, ECoulomb, EExchange, ENuclear decompose it.
	EOne, ECoulomb, EExchange, ENuclear float64
	// Converged reports convergence within MaxIter.
	Converged bool
	// Iterations actually performed.
	Iterations int
	// NAlpha, NBeta are the spin-channel occupations.
	NAlpha, NBeta int
	// EpsAlpha, EpsBeta are the orbital energies per spin.
	EpsAlpha, EpsBeta []float64
	// PAlpha, PBeta are the spin densities; PTotal their sum.
	PAlpha, PBeta, PTotal *linalg.Matrix
	// S2 is the ⟨S²⟩ expectation value (spin-contamination diagnostic);
	// the exact value is S(S+1) with S = (Nα−Nβ)/2.
	S2 float64
	// Set is the instantiated basis.
	Set *basis.Set
}

// S2Exact returns the contamination-free S(S+1) for the spin state.
func (r *UnrestrictedResult) S2Exact() float64 {
	s := 0.5 * float64(r.NAlpha-r.NBeta)
	return s * (s + 1)
}

// RunUnrestricted performs a spin-unrestricted Hartree–Fock calculation.
// Multiplicity is 2S+1 (0 means the lowest consistent with the electron
// count: 1 for even, 2 for odd). Only the HF functional is supported —
// spin-polarised semilocal functionals are outside this reproduction's
// scope and return an error. There is no analytic gradient for it either
// (RunForces is closed-shell): forces on a UHF surface come from
// differencing its energy (md.FDSurface).
func RunUnrestricted(mol *chem.Molecule, cfg Config, multiplicity int) (*UnrestrictedResult, error) {
	cfg.fillDefaults()
	if cfg.Functional.NeedsGrid() {
		return nil, errors.New("scf: unrestricted SCF supports the HF functional only")
	}
	ne := mol.NElectrons()
	if ne <= 0 {
		return nil, fmt.Errorf("scf: molecule has %d electrons", ne)
	}
	if multiplicity == 0 {
		multiplicity = 1 + ne%2
	}
	nUnpaired := multiplicity - 1
	if nUnpaired < 0 || (ne-nUnpaired)%2 != 0 || nUnpaired > ne {
		return nil, fmt.Errorf("scf: multiplicity %d inconsistent with %d electrons", multiplicity, ne)
	}
	nb := (ne - nUnpaired) / 2
	na := nb + nUnpaired

	set, err := basis.Build(cfg.Basis, mol)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(set)
	s := eng.Overlap()
	h := eng.CoreHamiltonian()
	x := linalg.LowdinOrthogonalizer(s, 1e-9)
	if x.Cols < na {
		return nil, fmt.Errorf("scf: basis too small: %d functions for %d alpha electrons", x.Cols, na)
	}

	scr := screen.BuildPairList(eng, cfg.Screen)
	builder := hfx.NewBuilder(eng, scr, cfg.HFX)
	defer builder.Close()

	res := &UnrestrictedResult{
		Set: set, NAlpha: na, NBeta: nb,
		ENuclear: mol.NuclearRepulsion(),
	}
	n := set.NBasis
	pa := linalg.NewSquare(n)
	pb := linalg.NewSquare(n)
	// SAD guess split by spin fraction.
	sadGuess(set, pa)
	pb.CopyFrom(pa)
	pa.Scale(float64(na) / float64(ne))
	pb.Scale(float64(nb) / float64(ne))

	diisA := newDIIS(cfg.DIISDepth)
	diisB := newDIIS(cfg.DIISDepth)
	var ca, cb *linalg.Matrix
	var lastE float64
	// BuildJK returns matrices aliasing the builder's pooled buffers, so
	// the alpha-channel result must be copied out before the beta build
	// overwrites it.
	ja := linalg.NewSquare(n)
	ka := linalg.NewSquare(n)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return res, fmt.Errorf("scf: cancelled before iteration %d: %w", iter, err)
			}
		}
		// J and K are linear in the density: two builds give everything.
		jaP, kaP, _ := builder.BuildJK(pa)
		ja.CopyFrom(jaP)
		ka.CopyFrom(kaP)
		jb, kb, _ := builder.BuildJK(pb)
		jt := ja.Clone()
		jt.AXPY(1, jb)

		fa := h.Clone()
		fa.AXPY(1, jt)
		fa.AXPY(-1, ka)
		fb := h.Clone()
		fb.AXPY(1, jt)
		fb.AXPY(-1, kb)

		pt := pa.Clone()
		pt.AXPY(1, pb)
		e1 := linalg.TraceMul(pt, h)
		ej := 0.5 * linalg.TraceMul(pt, jt)
		ek := -0.5 * (linalg.TraceMul(pa, ka) + linalg.TraceMul(pb, kb))
		energy := e1 + ej + ek + res.ENuclear

		errA := commutator(fa, pa, s, x)
		errB := commutator(fb, pb, s, x)
		fa = diisA.extrapolate(fa, errA)
		fb = diisB.extrapolate(fb, errB)
		errNorm := math.Hypot(errA.FrobeniusNorm(), errB.FrobeniusNorm())

		if cfg.LevelShift != 0 {
			fa = levelShift(fa, s, pa, cfg.LevelShift, na)
			fb = levelShift(fb, s, pb, cfg.LevelShift, nb)
		}

		var epsA, epsB []float64
		ca, epsA = solveFock(fa, x)
		cb, epsB = solveFock(fb, x)
		unshift(epsA, na, 1, cfg.LevelShift)
		unshift(epsB, nb, 1, cfg.LevelShift)
		updateSpinDensity(pa, ca, na, cfg, iter)
		updateSpinDensity(pb, cb, nb, cfg, iter)

		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, energy, errNorm)
		}
		res.Iterations = iter
		res.Energy = energy
		res.EOne, res.ECoulomb, res.EExchange = e1, ej, ek
		res.EpsAlpha, res.EpsBeta = epsA, epsB

		if iter > 1 && math.Abs(energy-lastE) < cfg.EnergyTol && errNorm < cfg.CommutatorTol {
			res.Converged = true
			break
		}
		lastE = energy
	}
	res.PAlpha = pa.Clone()
	res.PBeta = pb.Clone()
	res.PTotal = pa.Clone()
	res.PTotal.AXPY(1, pb)
	res.S2 = spinSquared(ca, cb, s, na, nb)
	return res, nil
}

// updateSpinDensity builds P_σ = C_occ·C_occᵀ (note: no factor 2 for a
// spin channel), with optional early-iteration damping.
func updateSpinDensity(p, c *linalg.Matrix, nocc int, cfg Config, iter int) {
	build := func(dst *linalg.Matrix) {
		n := dst.Rows
		for i := 0; i < n; i++ {
			ci := c.Row(i)[:nocc]
			row := dst.Row(i)
			for j := 0; j < n; j++ {
				cj := c.Row(j)[:nocc]
				var v float64
				for o := 0; o < nocc; o++ {
					v += ci[o] * cj[o]
				}
				row[j] = v
			}
		}
	}
	if cfg.Damping > 0 && iter <= cfg.DampIters {
		old := p.Clone()
		build(p)
		p.Scale(1-cfg.Damping).AXPY(cfg.Damping, old)
	} else {
		build(p)
	}
}

// spinSquared evaluates ⟨S²⟩ = S_z(S_z+1) + N_β − Σ_{ij} |⟨φ_i^α|φ_j^β⟩|²
// over the occupied spin orbitals.
func spinSquared(ca, cb *linalg.Matrix, s *linalg.Matrix, na, nb int) float64 {
	if ca == nil || cb == nil {
		return 0
	}
	sz := 0.5 * float64(na-nb)
	val := sz*(sz+1) + float64(nb)
	// Overlap of occupied alpha with occupied beta orbitals: CαᵀSCβ.
	sc := linalg.Mul(ca.T(), linalg.Mul(s, cb))
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			o := sc.At(i, j)
			val -= o * o
		}
	}
	return val
}

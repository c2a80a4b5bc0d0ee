package scf

import (
	"errors"
	"fmt"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// UnrestrictedResult carries a converged UHF state. The Li/air chemistry
// of the reproduced paper involves open-shell species (superoxide O2⁻,
// lithium superoxide LiO2, solvent radicals from the degradation
// pathway), so the SCF layer runs spin-unrestricted Hartree–Fock on the
// loop of the restricted runs.
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

// RunUnrestricted performs a spin-unrestricted Hartree–Fock calculation:
// the SCF loop of Run over an α and a β channel, from the starting density
// split by spin fraction. Multiplicity is 2S+1 (0 means the lowest
// consistent with the electron count: 1 for even, 2 for odd). Only the HF
// functional is supported — spin-polarised semilocal functionals are
// outside this reproduction's scope and return an error. It returns
// energies only: RunForces, the one analytic gradient, is closed-shell,
// and nothing in the module computes UHF forces.
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

	sv, err := newSolver(mol, cfg, na, false)
	if err != nil {
		return nil, err
	}
	defer sv.close()
	alpha := &channel{p: sv.p, nocc: na, occ: 1}
	beta := &channel{p: sv.p.Clone(), nocc: nb, occ: 1}
	alpha.p.Scale(float64(na) / float64(ne))
	beta.p.Scale(float64(nb) / float64(ne))
	r, err := sv.iterate(alpha, beta)
	res := &UnrestrictedResult{
		Energy: r.Energy, EOne: r.EOne, ECoulomb: r.ECoulomb, EExchange: r.EExchangeHF,
		ENuclear: r.ENuclear, Converged: r.Converged, Iterations: r.Iterations,
		NAlpha: na, NBeta: nb, EpsAlpha: alpha.eps, EpsBeta: beta.eps,
		PAlpha: alpha.p, PBeta: beta.p, PTotal: sum(alpha.p, beta.p),
		S2: spinSquared(alpha.c, beta.c, sv.s, na, nb), Set: sv.eng.Basis,
	}
	return res, err
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

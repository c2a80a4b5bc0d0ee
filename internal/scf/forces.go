package scf

import (
	"errors"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/linalg"
)

// ErrNotConverged is returned (wrapped) by RunForces when the SCF ends
// without meeting both convergence criteria: the energy of a density that
// is not stationary has a gradient that is wrong to first order, so no
// force is reported for it.
var ErrNotConverged = errors.New("scf: not converged")

// RunForces performs the SCF and returns, with the result, the analytic
// forces −dE/dR on every atom of the converged closed-shell RHF/RKS
// surface (HF, LDA, PBE, PBE0):
//
//	dE/dR = Σ P·∂h − Σ W·∂S + Σ Γ·∂(μν|λσ) + ∂E_xc + ∂V_nn
//
// with W = 2Σ_i ε_i·C_μi·C_νi the energy-weighted density and Γ = ½P_μνP_λσ
// − ¼aₓP_μλP_νσ. The gradient reuses the run's integral engine, exchange
// builder (one gradient phase over the same screened quartets) and XC
// integrator (one pass over the same tabulated grid), so it costs about as
// much as one SCF iteration. For a periodic molecule the nuclear repulsion
// is differentiated under the same minimum-image convention the energy
// uses; the integrals are open-boundary in both. An unconverged run
// returns its result with an error wrapping ErrNotConverged and no forces.
func RunForces(mol *chem.Molecule, cfg Config) (*Result, []chem.Vec3, error) {
	return run(mol, cfg, true)
}

// forcesOf assembles −dE/dR for the converged closed-shell density p =
// 2·C_occ·C_occᵀ with occupied orbital energies eps, on the builder and (for
// a DFT functional, else nil) integrator of the run that produced them. The
// one-electron terms run on the builder's engine, so that they and the
// exchange phase share one set of derivative tables.
func forcesOf(mol *chem.Molecule, builder *hfx.Builder, xcInt *dft.Integrator,
	p, c *linalg.Matrix, eps []float64, aX float64) []chem.Vec3 {
	n := p.Rows
	w := linalg.NewSquare(n) // energy-weighted density
	for i := 0; i < n; i++ {
		ci, row := c.Row(i)[:len(eps)], w.Row(i)
		for j := 0; j < n; j++ {
			cj := c.Row(j)
			var v float64
			for o, e := range eps {
				v += e * ci[o] * cj[o]
			}
			row[j] = 2 * v
		}
	}
	grad := builder.Eng.OneElectronGradient(p, w)
	parts := [][]chem.Vec3{builder.Gradient(p, aX), mol.NuclearRepulsionGradient()}
	if xcInt != nil {
		parts = append(parts, xcInt.Gradient(p))
	}
	for a := range grad {
		for _, part := range parts {
			grad[a] = grad[a].Add(part[a])
		}
		grad[a] = grad[a].Scale(-1)
	}
	return grad
}

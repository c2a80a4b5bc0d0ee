package scf

import "hfxmd/internal/linalg"

// diis implements Pulay's direct inversion in the iterative subspace:
// the next Fock matrix is the linear combination of stored Fock matrices
// whose associated error vectors combine to the minimum-norm residual,
// subject to Σc = 1. It keeps the last diisDepth pairs; the zero value is
// empty.
type diis struct {
	focks []*linalg.Matrix
	errs  []*linalg.Matrix
}

const diisDepth = 8

// extrapolate stores the (F, err) pair and returns the DIIS-extrapolated
// Fock matrix; with fewer than two stored pairs it returns f unchanged.
func (d *diis) extrapolate(f, errMat *linalg.Matrix) *linalg.Matrix {
	d.focks = append(d.focks, f.Clone())
	d.errs = append(d.errs, errMat.Clone())
	if len(d.focks) > diisDepth {
		d.focks = d.focks[1:]
		d.errs = d.errs[1:]
	}
	m := len(d.focks)
	if m < 2 {
		return f
	}
	// Build the augmented B system:
	//   [ B  -1 ] [c] = [0]
	//   [ -1  0 ] [λ]   [-1]
	b := linalg.NewSquare(m + 1)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			var dot float64
			for k, v := range d.errs[i].Data {
				dot += v * d.errs[j].Data[k]
			}
			b.Set(i, j, dot)
			b.Set(j, i, dot)
		}
		b.Set(i, m, -1)
		b.Set(m, i, -1)
	}
	rhs := linalg.NewMatrix(m+1, 1)
	rhs.Set(m, 0, -1)
	sol, err := linalg.SolveLinear(b, rhs)
	if err != nil {
		// Singular subspace: drop the oldest pair and fall back to f.
		d.focks = d.focks[1:]
		d.errs = d.errs[1:]
		return f
	}
	out := linalg.NewSquare(f.Rows)
	for i := 0; i < m; i++ {
		out.AXPY(sol.At(i, 0), d.focks[i])
	}
	return out
}

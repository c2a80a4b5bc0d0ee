package md

import (
	"math"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

const (
	// maxOrder bounds the predictor's history. The commutator of a
	// converged step is noise of ~5e-7, which order m amplifies by
	// Σ|c_j| = 2^m − 1: past six entries that costs more iterations than the
	// smaller truncation error saves.
	maxOrder = 6
	// orderTrust is the fraction of the last displacement within which an
	// order's weights must reproduce the new geometry from the stored ones
	// for the order to be used on the densities.
	orderTrust = 0.5
)

// predictor extrapolates the next geometry's SCF seed from the last few
// converged steps of a trajectory. It keeps their contra-covariant
// products ½P·S — projectors onto each step's occupied space that, unlike
// P, need no common metric to be combined — with the geometries they
// belong to, and the newest step's occupied coefficients.
type predictor struct {
	ps   []*linalg.Matrix // ½P·S, newest first
	pos  [][]chem.Vec3    // their geometries
	cocc *linalg.Matrix   // n × nocc, of ps[0]
}

// clear forgets the history.
func (pr *predictor) clear() { *pr = predictor{} }

// record pushes a converged step: density p = 2·C_occ·C_occᵀ over the
// first nocc columns of c, overlap s, geometry pos.
func (pr *predictor) record(p, s, c *linalg.Matrix, nocc int, pos []chem.Vec3) {
	ps := linalg.Mul(p, s).Scale(0.5)
	if len(pr.ps) == maxOrder {
		pr.ps, pr.pos = pr.ps[:maxOrder-1], pr.pos[:maxOrder-1]
	}
	pr.ps = append([]*linalg.Matrix{ps}, pr.ps...)
	pr.pos = append([][]chem.Vec3{pos}, pr.pos...)
	pr.cocc = linalg.NewMatrix(c.Rows, nocc)
	for i := 0; i < c.Rows; i++ {
		copy(pr.cocc.Row(i), c.Row(i)[:nocc])
	}
}

// weight returns the Lagrange extrapolation weight of the j-th newest of m
// equally spaced entries, c_j = (−1)^{j+1}·C(m, j): the polynomial through
// all m, exact rather than damped because every stored step is converged to
// tolerance, not corrected once.
func weight(m, j int) float64 {
	c := 1.0
	for i := 1; i <= j; i++ {
		c *= -float64(m-i+1) / float64(i)
	}
	return -c
}

// order returns the largest order whose weights, applied to the stored
// geometries, land within orderTrust of the last displacement from pos.
// A uniform trajectory earns the full history; a scan with uneven steps, a
// reversal or the first steps after a restart fall back towards 1, the
// previous step alone.
func (pr *predictor) order(pos []chem.Vec3) int {
	var moved float64
	for a, r := range pos {
		moved = math.Max(moved, r.Sub(pr.pos[0][a]).Norm())
	}
	for m := len(pr.ps); m > 1; m-- {
		var miss float64
		for a, r := range pos {
			var guess chem.Vec3
			for j := 1; j <= m; j++ {
				guess = guess.Add(pr.pos[j-1][a].Scale(weight(m, j)))
			}
			miss = math.Max(miss, r.Sub(guess).Norm())
		}
		if miss <= orderTrust*moved {
			return m
		}
	}
	return 1
}

// seed returns the starting density for geometry pos with overlap s, and
// the order it was extrapolated at: C̃ = Σ_j c_j·(½PS)_{n−j}·C_{n−1},
// Löwdin-orthonormalised in the new metric, C = C̃·(C̃ᵀSC̃)^{−½}, P = 2CCᵀ
// — idempotent and carrying the right electron count at the new geometry
// whatever the extrapolation did. At order 1 C̃ is C_{n−1} itself: the
// previous density, purified. It returns nil without history for this
// basis size, or if C̃ has lost rank.
func (pr *predictor) seed(s *linalg.Matrix, pos []chem.Vec3) (*linalg.Matrix, int) {
	if len(pr.ps) == 0 || pr.cocc.Rows != s.Rows {
		return nil, 0
	}
	m := pr.order(pos)
	proj := linalg.NewSquare(s.Rows)
	for j := 1; j <= m; j++ {
		proj.AXPY(weight(m, j), pr.ps[j-1])
	}
	ct := linalg.Mul(proj, pr.cocc)
	gram := linalg.Mul(ct.T(), linalg.Mul(s, ct))
	gram.Symmetrize()
	vals, vecs := linalg.EigenSym(gram)
	if vals[0] <= 0 {
		return nil, 0
	}
	// C̃·U·λ^{−½}: the Uᵀ that completes (C̃ᵀSC̃)^{−½} cancels in C·Cᵀ.
	c := linalg.Mul(ct, vecs)
	for k, v := range vals {
		vals[k] = math.Sqrt(v)
	}
	for i := 0; i < c.Rows; i++ {
		for k, v := range vals {
			c.Row(i)[k] /= v
		}
	}
	return linalg.MulABt(c, c).Scale(2), m
}

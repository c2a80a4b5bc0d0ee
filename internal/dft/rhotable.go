package dft

import (
	"math"
	"sync"
)

// rhoTerms are the factors of an LDA/PBE point that depend on ρ alone.
type rhoTerms struct {
	r13 float64 // ρ^{1/3}
	ec  float64 // VWN5 correlation energy per electron ε_c
	vc  float64 // VWN5 potential v_c = d(ρ·ε_c)/dρ
	b   float64 // PBE's 1/A = (γ_c/β)·(e^{−ε_c/γ_c} − 1)
}

// closedRhoTerms evaluates rhoTerms in closed form: one cbrt, one √, the
// atan and two logs of VWN5 and one expm1. It generates the table and is
// the fallback above it.
func closedRhoTerms(rho float64) rhoTerms {
	r13 := math.Cbrt(rho)
	ec, vc := vwn5x(math.Sqrt(rsCoef / r13))
	return rhoTerms{r13: r13, ec: ec, vc: vc, b: pbeGamma / pbeBeta * expm1(-ec/pbeGamma)}
}

// The table cuts every binade [2^e, 2^{e+1}) of ρ with rhoMinExp ≤ e <
// rhoMaxExp into 2^rhoSubBits equal cells and holds, per cell, one
// polynomial of degree rhoDeg in u ∈ [−1, 1) per quantity, interpolated at
// the Chebyshev nodes of closedRhoTerms. A cell's index is ρ's exponent
// and top rhoSubBits mantissa bits; u is the rest of the mantissa, so a
// lookup is two integer operations, one conversion and four Horner chains.
// 2^−40 lies below rhoFloor; ρ ≥ 2^14 (and anything that is not a positive
// finite number) takes the closed form. 54 binades × 8 cells × 9
// coefficients × 4 quantities is 124 416 bytes; every quantity stays
// within 1e-13 relative of the closed form (TestRhoTableMatchesClosedForm).
const (
	rhoSubBits  = 3
	rhoDeg      = 8
	rhoMinExp   = -40
	rhoMaxExp   = 14
	rhoFracBits = 52 - rhoSubBits
	rhoCells    = (rhoMaxExp - rhoMinExp) << rhoSubBits
	rhoBase     = (1023 + rhoMinExp) << rhoSubBits
)

// rhoCell holds one cell's monomial coefficients, lowest order first, each
// a [4] in the field order of rhoTerms so a Horner step reads one line.
type rhoCell [rhoDeg + 1][4]float64

// rhoTable is built on the first lookup rather than at package init, so a
// process that never evaluates a functional (any HF run) neither pays for
// it nor maps its pages.
var (
	rhoTable     [rhoCells]rhoCell
	rhoTableOnce sync.Once
)

// buildRhoTable interpolates closedRhoTerms on every cell of tab.
func buildRhoTable(tab *[rhoCells]rhoCell) {
	const n = rhoDeg + 1
	// Chebyshev nodes and the matrix m taking the node values to monomial
	// coefficients, shared by every cell.
	var node [n]float64
	for j := range node {
		node[j] = -math.Cos(math.Pi * (float64(j) + 0.5) / n)
	}
	// cheb[i] holds T_i's monomial coefficients: T_i = 2u·T_{i−1} − T_{i−2}.
	var cheb [n][n]float64
	cheb[0][0], cheb[1][1] = 1, 1
	for i := 2; i < n; i++ {
		for k := 0; k < i; k++ {
			cheb[i][k+1] += 2 * cheb[i-1][k]
			cheb[i][k] -= cheb[i-2][k]
		}
	}
	// The interpolant is Σ_i a_i·T_i with a_i = (2/n)·Σ_j v_j·T_i(u_j)
	// (a_0 with 1/n).
	var m [n][n]float64
	for j, u := range node {
		for i := range cheb {
			w := 2.0 / n
			if i == 0 {
				w = 1.0 / n
			}
			ti := 0.0
			for k := n - 1; k >= 0; k-- {
				ti = ti*u + cheb[i][k]
			}
			for k := range cheb[i] {
				m[k][j] += w * ti * cheb[i][k]
			}
		}
	}
	for c := range tab {
		e, sub := c>>rhoSubBits+rhoMinExp, c&(1<<rhoSubBits-1)
		h := math.Ldexp(1, e-rhoSubBits-1) // half the cell width
		lo := math.Ldexp(1+float64(sub)/(1<<rhoSubBits), e)
		var v [n][4]float64
		for j, u := range node {
			t := closedRhoTerms(lo + h*(u+1))
			v[j] = [4]float64{t.r13, t.ec, t.vc, t.b}
		}
		// Fit the deviations from a middle node so that the rounding of
		// m's large alternating entries scales with them, not with the
		// values.
		ref := v[n/2]
		cell := &tab[c]
		for k := range cell {
			for q := range ref {
				var s float64
				for j := range v {
					s += m[k][j] * (v[j][q] - ref[q])
				}
				cell[k][q] = s
			}
		}
		for q := range ref {
			cell[0][q] += ref[q]
		}
	}
}

// lookupRhoTerms returns rhoTerms from the table, or in closed form
// outside it.
func lookupRhoTerms(rho float64) rhoTerms {
	rhoTableOnce.Do(func() { buildRhoTable(&rhoTable) })
	bits := math.Float64bits(rho)
	c := int(bits>>rhoFracBits) - rhoBase
	if uint(c) >= rhoCells {
		return closedRhoTerms(rho)
	}
	u := float64(int64(bits&(1<<rhoFracBits-1)))*(2.0/(1<<rhoFracBits)) - 1
	cell := &rhoTable[c]
	r13, ec, vc, b := cell[rhoDeg][0], cell[rhoDeg][1], cell[rhoDeg][2], cell[rhoDeg][3]
	for k := rhoDeg - 1; k >= 0; k-- {
		ck := &cell[k]
		r13, ec, vc, b = r13*u+ck[0], ec*u+ck[1], vc*u+ck[2], b*u+ck[3]
	}
	return rhoTerms{r13: r13, ec: ec, vc: vc, b: b}
}

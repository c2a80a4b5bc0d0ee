// Package integrals implements the McMurchie–Davidson evaluation of all
// molecular integrals over contracted Cartesian Gaussian shells: overlap,
// kinetic energy, nuclear attraction, dipole moments, and — the workhorse
// of Hartree–Fock exact exchange — the four-index electron repulsion
// integrals (ERIs), together with the Cauchy–Schwarz shell-pair norms used
// for screening.
//
// The McMurchie–Davidson scheme expands each product of two Cartesian
// Gaussians in Hermite Gaussians via the E-coefficient recurrences, and
// contracts Coulomb-type integrals through the Hermite R-tensor whose seed
// values are Boys functions. See McMurchie & Davidson, J. Comput. Phys. 26
// (1978) 218.
package integrals

// CartComponent is one Cartesian angular-momentum triple (lx,ly,lz).
type CartComponent struct{ X, Y, Z int }

// cartLists[L] enumerates the (L+1)(L+2)/2 components of angular momentum
// L in the conventional order (decreasing x-power, then decreasing
// y-power): s; p: x,y,z; d: xx,xy,xz,yy,yz,zz; f likewise.
var cartLists [][]CartComponent

// maxSupportedL bounds the precomputed component tables; the engine
// handles shells up to this angular momentum (g functions), which covers
// every basis set shipped with this repository with room to spare.
const maxSupportedL = 4

// cartNorms[l][i] caches componentNorm(cartLists[l][i]).
var cartNorms [][]float64

// pairTerms[la][lb] is the number of Hermite terms one primitive pair of an
// (la lb| shell pair has at a general geometry, Σ over component pairs of
// Π_axis (a_axis+b_axis+1); coincident centres zero some of them.
var pairTerms [maxSupportedL + 1][maxSupportedL + 1]int

func init() {
	cartLists = make([][]CartComponent, maxSupportedL+1)
	cartNorms = make([][]float64, maxSupportedL+1)
	for l := 0; l <= maxSupportedL; l++ {
		var list []CartComponent
		for x := l; x >= 0; x-- {
			for y := l - x; y >= 0; y-- {
				list = append(list, CartComponent{x, y, l - x - y})
			}
		}
		cartLists[l] = list
		norms := make([]float64, len(list))
		for i, c := range list {
			norms[i] = componentNorm(c)
		}
		cartNorms[l] = norms
	}
	for la := range pairTerms {
		for lb := range pairTerms[la] {
			for _, a := range cartLists[la] {
				for _, b := range cartLists[lb] {
					pairTerms[la][lb] += (a.X + b.X + 1) * (a.Y + b.Y + 1) * (a.Z + b.Z + 1)
				}
			}
		}
	}
}

// Components returns the Cartesian components of angular momentum l.
func Components(l int) []CartComponent {
	if l < 0 || l > maxSupportedL {
		panic("integrals: unsupported angular momentum")
	}
	return cartLists[l]
}

// NCart returns the number of Cartesian components for angular momentum l.
func NCart(l int) int { return (l + 1) * (l + 2) / 2 }

// doubleFactorial returns n!! with (-1)!! = 1.
func doubleFactorial(n int) float64 {
	r := 1.0
	for ; n > 1; n -= 2 {
		r *= float64(n)
	}
	return r
}

// ComponentNorm exposes the per-component normalization correction for
// consumers that evaluate basis functions directly (e.g. the DFT grid
// code).
func ComponentNorm(c CartComponent) float64 { return componentNorm(c) }

// componentNorm returns the normalization correction for a Cartesian
// component relative to the (L,0,0) convention used when the shell
// coefficients were normalized: √[(2L−1)!! / ((2lx−1)!!(2ly−1)!!(2lz−1)!!)].
// For s and p shells this is exactly 1.
func componentNorm(c CartComponent) float64 {
	l := c.X + c.Y + c.Z
	if l < 2 {
		return 1
	}
	num := doubleFactorial(2*l - 1)
	den := doubleFactorial(2*c.X-1) * doubleFactorial(2*c.Y-1) * doubleFactorial(2*c.Z-1)
	return sqrt(num / den)
}

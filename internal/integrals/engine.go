package integrals

import (
	"math"
	"sync"
	"sync/atomic"

	"hfxmd/internal/basis"
	"hfxmd/internal/boys"
	"hfxmd/internal/linalg"
)

// Engine evaluates molecular integrals over a basis.Set. It is safe for
// concurrent use: per-call scratch is allocated locally and shell-pair
// cache entries are published with atomic pointers.
type Engine struct {
	Basis *basis.Set
	// Vector makes ERIShell account every quartet's gathered primitive
	// list as QPX-style 4-lane batches (see package qpx). The kernel runs
	// the same batch pipeline either way and results are identical.
	Vector bool

	// plain and deriv memoise the term tables of every shell pair and their
	// derivative tables (deriv.go), which only a gradient build asks for.
	plain, deriv tableCache
}

// tableCache memoises shell-pair tables by a·NShells+b, built on first use.
type tableCache struct {
	once  sync.Once
	slots []atomic.Pointer[pairData]
}

// NewEngine returns an integral engine over the given basis.
func NewEngine(b *basis.Set) *Engine { return &Engine{Basis: b} }

// twoPi52 = 2·π^{5/2}, the ERI prefactor.
var twoPi52 = 2 * math.Pow(math.Pi, 2.5)

// Overlap returns the overlap matrix S.
func (e *Engine) Overlap() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return overlapBlock(sa, sb)
	})
}

// Kinetic returns the kinetic-energy matrix T.
func (e *Engine) Kinetic() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return kineticBlock(sa, sb)
	})
}

// Nuclear returns the nuclear-attraction matrix V (negative definite-ish,
// summed over all nuclei with charges −Z).
func (e *Engine) Nuclear() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return nuclearBlock(sa, sb, e.Basis)
	})
}

// CoreHamiltonian returns H = T + V.
func (e *Engine) CoreHamiltonian() *linalg.Matrix {
	h := e.Kinetic()
	h.AXPY(1, e.Nuclear())
	return h
}

// oneElectron assembles a symmetric one-electron matrix from shell-pair
// blocks produced by block (row-major na×nb).
func (e *Engine) oneElectron(block func(sa, sb *basis.Shell) []float64) *linalg.Matrix {
	n := e.Basis.NBasis
	m := linalg.NewSquare(n)
	for i := range e.Basis.Shells {
		sa := &e.Basis.Shells[i]
		for j := i; j < len(e.Basis.Shells); j++ {
			sb := &e.Basis.Shells[j]
			blk := block(sa, sb)
			na, nb := sa.NFuncs(), sb.NFuncs()
			for a := 0; a < na; a++ {
				for b := 0; b < nb; b++ {
					v := blk[a*nb+b]
					m.Set(sa.Index+a, sb.Index+b, v)
					m.Set(sb.Index+b, sa.Index+a, v)
				}
			}
		}
	}
	return m
}

// overlap1D returns the 1D overlap factor ⟨x_A^i | x_B^j⟩ = E_0^{ij}·√(π/p).
func overlap1D(et *eTable, i, j int, p float64) float64 {
	return et.at(i, j, 0) * math.Sqrt(math.Pi/p)
}

// overlapBlock returns the shell-pair overlap block (row-major na×nb).
func overlapBlock(sa, sb *basis.Shell) []float64 {
	ca, cb := Components(sa.L), Components(sb.L)
	out := make([]float64, len(ca)*len(cb))
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			coef := sa.Coefs[ia] * sb.Coefs[ib]
			p := ea + eb
			var ets [3]*eTable
			for d := 0; d < 3; d++ {
				ets[d] = buildETable(sa.L, sb.L, ab[d], ea, eb)
			}
			for a, compA := range ca {
				na := componentNorm(compA)
				for b, compB := range cb {
					nb := componentNorm(compB)
					v := overlap1D(ets[0], compA.X, compB.X, p) *
						overlap1D(ets[1], compA.Y, compB.Y, p) *
						overlap1D(ets[2], compA.Z, compB.Z, p)
					out[a*len(cb)+b] += coef * na * nb * v
				}
			}
		}
	}
	return out
}

// kineticBlock returns the shell-pair kinetic-energy block.
//
// The kinetic integral decomposes per dimension using
//
//	T_ij = b(2j+1)·S_ij − 2b²·S_{i,j+2} − ½j(j−1)·S_{i,j−2}
//
// applied to the x, y, z factors in turn while the other two dimensions
// contribute plain overlaps.
func kineticBlock(sa, sb *basis.Shell) []float64 {
	ca, cb := Components(sa.L), Components(sb.L)
	out := make([]float64, len(ca)*len(cb))
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			coef := sa.Coefs[ia] * sb.Coefs[ib]
			p := ea + eb
			var ets [3]*eTable
			for d := 0; d < 3; d++ {
				// j+2 shifted overlaps require jmax+2 in the table.
				ets[d] = buildETable(sa.L, sb.L+2, ab[d], ea, eb)
			}
			s := func(d, i, j int) float64 {
				if i < 0 || j < 0 {
					return 0
				}
				return overlap1D(ets[d], i, j, p)
			}
			t1D := func(d, i, j int) float64 {
				v := eb * float64(2*j+1) * s(d, i, j)
				v -= 2 * eb * eb * s(d, i, j+2)
				if j >= 2 {
					v -= 0.5 * float64(j*(j-1)) * s(d, i, j-2)
				}
				return v
			}
			for a, compA := range ca {
				na := componentNorm(compA)
				ax, ay, az := compA.X, compA.Y, compA.Z
				for b, compB := range cb {
					nb := componentNorm(compB)
					bx, by, bz := compB.X, compB.Y, compB.Z
					v := t1D(0, ax, bx)*s(1, ay, by)*s(2, az, bz) +
						s(0, ax, bx)*t1D(1, ay, by)*s(2, az, bz) +
						s(0, ax, bx)*s(1, ay, by)*t1D(2, az, bz)
					out[a*len(cb)+b] += coef * na * nb * v
				}
			}
		}
	}
	return out
}

// nuclearBlock returns the shell-pair nuclear-attraction block, summed
// over all nuclei of the molecule with weight −Z.
func nuclearBlock(sa, sb *basis.Shell, set *basis.Set) []float64 {
	ca, cb := Components(sa.L), Components(sb.L)
	out := make([]float64, len(ca)*len(cb))
	ltot := sa.L + sb.L
	n := ltot + 1
	fn := make([]float64, n)
	r := make([]float64, rSize(ltot))
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			coef := sa.Coefs[ia] * sb.Coefs[ib]
			p := ea + eb
			px := (ea*sa.Center[0] + eb*sb.Center[0]) / p
			py := (ea*sa.Center[1] + eb*sb.Center[1]) / p
			pz := (ea*sa.Center[2] + eb*sb.Center[2]) / p
			var ets [3]*eTable
			for d := 0; d < 3; d++ {
				ets[d] = buildETable(sa.L, sb.L, ab[d], ea, eb)
			}
			pref := 2 * math.Pi / p * coef
			for _, atom := range set.Mol.Atoms {
				pc := [3]float64{px - atom.Pos[0], py - atom.Pos[1], pz - atom.Pos[2]}
				r2 := pc[0]*pc[0] + pc[1]*pc[1] + pc[2]*pc[2]
				boys.Eval(ltot, p*r2, fn)
				buildR(ltot, fn, p, 1, pc[0], pc[1], pc[2], r)
				z := -float64(atom.El)
				for a, compA := range ca {
					na := componentNorm(compA)
					for b, compB := range cb {
						nb := componentNorm(compB)
						var v float64
						for t := 0; t <= compA.X+compB.X; t++ {
							ex := ets[0].at(compA.X, compB.X, t)
							if ex == 0 {
								continue
							}
							for u := 0; u <= compA.Y+compB.Y; u++ {
								ey := ets[1].at(compA.Y, compB.Y, u)
								if ey == 0 {
									continue
								}
								for w := 0; w <= compA.Z+compB.Z; w++ {
									ez := ets[2].at(compA.Z, compB.Z, w)
									if ez == 0 {
										continue
									}
									v += ex * ey * ez * r[(t*n+u)*n+w]
								}
							}
						}
						out[a*len(cb)+b] += pref * z * na * nb * v
					}
				}
			}
		}
	}
	return out
}

// Dipole returns the three dipole-moment matrices ⟨μ|x_c|ν⟩ relative to
// origin c (usually the centre of charge).
func (e *Engine) Dipole(c [3]float64) [3]*linalg.Matrix {
	var out [3]*linalg.Matrix
	for d := 0; d < 3; d++ {
		dim := d
		out[d] = e.oneElectron(func(sa, sb *basis.Shell) []float64 {
			return dipoleBlock(sa, sb, dim, c[dim])
		})
	}
	return out
}

// dipoleBlock computes ⟨a|x_dim − c|b⟩ by the shift
// x − c = (x − A) + (A_x − c): the first term raises the bra's power in
// dim by one, the second is A_x − c times the plain overlap.
func dipoleBlock(sa, sb *basis.Shell, dim int, c float64) []float64 {
	ca, cb := Components(sa.L), Components(sb.L)
	out := make([]float64, len(ca)*len(cb))
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	shiftA := sa.Center[dim] - c
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			coef := sa.Coefs[ia] * sb.Coefs[ib]
			p := ea + eb
			var ets [3]*eTable
			for d := 0; d < 3; d++ {
				lmaxA := sa.L
				if d == dim {
					lmaxA++ // raised bra momentum for the (x−A) term
				}
				ets[d] = buildETable(lmaxA, sb.L, ab[d], ea, eb)
			}
			for a, compA := range ca {
				na := componentNorm(compA)
				ia3 := [3]int{compA.X, compA.Y, compA.Z}
				for b, compB := range cb {
					nb := componentNorm(compB)
					ib3 := [3]int{compB.X, compB.Y, compB.Z}
					// ⟨a|(x−A)|b⟩: raise bra power in dim by 1.
					raised := 1.0
					plain := 1.0
					for d := 0; d < 3; d++ {
						i, j := ia3[d], ib3[d]
						if d == dim {
							raised *= overlap1D(ets[d], i+1, j, p)
						} else {
							raised *= overlap1D(ets[d], i, j, p)
						}
						plain *= overlap1D(ets[d], i, j, p)
					}
					out[a*len(cb)+b] += coef * na * nb * (raised + shiftA*plain)
				}
			}
		}
	}
	return out
}

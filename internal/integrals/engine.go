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
// cache entries and the overlap matrix are published with atomic pointers.
type Engine struct {
	Basis *basis.Set
	// Vector makes ERIShell account every quartet's gathered primitive
	// list as QPX-style 4-lane batches (see package qpx). The kernel runs
	// the same batch pipeline either way and results are identical.
	Vector bool

	// plain and deriv memoise the term tables of every shell pair and their
	// derivative tables (deriv.go), which only a gradient build asks for.
	plain, deriv tableCache
	s            atomic.Pointer[linalg.Matrix] // S, built by the first request for it
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

// Overlap returns the overlap matrix S. The matrix belongs to the engine,
// which computes it once for every caller: read it, never write it.
func (e *Engine) Overlap() *linalg.Matrix {
	if s := e.s.Load(); s != nil {
		return s
	}
	return e.keepOverlap(e.oneElectron(noOrigin, oneS)[oneS])
}

// keepOverlap counts a computed S and publishes it as the engine's unless a
// concurrent call published one first; it returns the published one.
func (e *Engine) keepOverlap(s *linalg.Matrix) *linalg.Matrix {
	overlapPasses.Add(1)
	e.s.CompareAndSwap(nil, s)
	return e.s.Load()
}

// overlapPasses counts the overlap matrices every engine of the process
// has computed.
var overlapPasses atomic.Int64

// OverlapPasses returns how many overlap matrices the engines of this
// process have computed: one per geometry served on one engine.
func OverlapPasses() int64 { return overlapPasses.Load() }

// Kinetic returns the kinetic-energy matrix T.
func (e *Engine) Kinetic() *linalg.Matrix { return e.oneElectron(noOrigin, oneT)[oneT] }

// Nuclear returns the nuclear-attraction matrix V (negative definite-ish,
// summed over all nuclei with charges −Z).
func (e *Engine) Nuclear() *linalg.Matrix { return e.oneElectron(noOrigin, oneV)[oneV] }

// CoreHamiltonian returns H = T + V.
func (e *Engine) CoreHamiltonian() *linalg.Matrix { return e.oneElectron(noOrigin, oneH)[oneH] }

// OverlapAndCore returns S and H from one pass, the two matrices an SCF
// run needs before its first iteration. S is Overlap's matrix; once the
// engine has it, the pass computes H alone, with the same bits.
func (e *Engine) OverlapAndCore() (s, h *linalg.Matrix) {
	if s := e.s.Load(); s != nil {
		return s, e.CoreHamiltonian()
	}
	m := e.oneElectron(noOrigin, oneS, oneH)
	return e.keepOverlap(m[oneS]), m[oneH]
}

// Dipole returns the three dipole-moment matrices ⟨μ|x_c|ν⟩ relative to
// origin c (usually the centre of charge).
func (e *Engine) Dipole(c [3]float64) [3]*linalg.Matrix {
	m := e.oneElectron(c, oneMu, oneMu+1, oneMu+2)
	return [3]*linalg.Matrix(m[oneMu:])
}

// The one-electron matrices of a oneElectron request, by index.
const (
	oneS  = iota // overlap
	oneT         // kinetic energy
	oneV         // nuclear attraction
	oneH         // T + V
	oneMu        // oneMu+d: dipole along axis d
	nOne  = oneMu + 3
)

// noOrigin is the dipole origin of a request that asks for no μ.
var noOrigin [3]float64

// oneElectron computes the matrices named by kinds in one pass over the
// canonical shell pairs i ≤ j and their primitive pairs, the dipoles
// about origin; the other entries of the result are nil. Each primitive
// pair's E tables are built once, into reused buffers, for every
// requested block: one bra degree higher when μ is asked, since its
// x − c = (x − A) + (A_x − c) raises the bra power, and two ket degrees
// higher when T is, since
//
//	T_ij = b(2j+1)·S_ij − 2b²·S_{i,j+2} − ½j(j−1)·S_{i,j−2}
//
// per dimension, the other two contributing plain overlaps. The
// recurrences fill the lower entries of a larger table exactly as a
// smaller one, so a matrix has the same bits whatever else is asked with
// it. V sums over the nuclei with weight −Z.
func (e *Engine) oneElectron(origin [3]float64, kinds ...int) [nOne]*linalg.Matrix {
	set := e.Basis
	var out [nOne]*linalg.Matrix
	for _, k := range kinds {
		out[k] = linalg.NewSquare(set.NBasis)
	}
	wantS, wantMu := out[oneS] != nil, out[oneMu] != nil
	wantT, wantV := out[oneT] != nil || out[oneH] != nil, out[oneV] != nil || out[oneH] != nil
	upA, upB := 0, 0
	if wantMu {
		upA = 1
	}
	if wantT {
		upB = 2
	}
	maxL := set.MaxL()
	nmax := NCart(maxL) * NCart(maxL)
	var blk [nOne][]float64
	slab := make([]float64, nOne*nmax)
	fn := make([]float64, 2*maxL+1)
	r := make([]float64, rSize(2*maxL))
	pw := new(primWalk)
	for i := range set.Shells {
		sa := &set.Shells[i]
		for j := i; j < len(set.Shells); j++ {
			sb := &set.Shells[j]
			ca, cb := Components(sa.L), Components(sb.L)
			normA, normB := cartNorms[sa.L], cartNorms[sb.L]
			nb := len(cb)
			for k := range blk {
				blk[k] = slab[k*nmax : k*nmax+len(ca)*nb]
				clear(blk[k])
			}
			shiftA := [3]float64{sa.Center[0] - origin[0], sa.Center[1] - origin[1], sa.Center[2] - origin[2]}
			ltot := sa.L + sb.L
			n := ltot + 1
			pw.walk(sa, sb, sa.L+upA, sb.L+upB, func() {
				s, t, ea, eb, p := &pw.s, &pw.t, pw.ea, pw.eb, pw.p
				if wantT {
					pw.kinetic(sa.L, sb.L)
				}
				for a, cA := range ca {
					ax, ay, az := cA.X, cA.Y, cA.Z
					for b, cB := range cb {
						bx, by, bz := cB.X, cB.Y, cB.Z
						cn := pw.coef * normA[a] * normB[b]
						ox, oy, oz := s[0][ax][bx], s[1][ay][by], s[2][az][bz]
						plain := ox * oy * oz
						if wantS {
							blk[oneS][a*nb+b] += cn * plain
						}
						if wantT {
							blk[oneT][a*nb+b] += cn * (t[0][ax][bx]*oy*oz + ox*t[1][ay][by]*oz + ox*oy*t[2][az][bz])
						}
						if wantMu {
							blk[oneMu][a*nb+b] += cn * (s[0][ax+1][bx]*oy*oz + shiftA[0]*plain)
							blk[oneMu+1][a*nb+b] += cn * (ox*s[1][ay+1][by]*oz + shiftA[1]*plain)
							blk[oneMu+2][a*nb+b] += cn * (ox*oy*s[2][az+1][bz] + shiftA[2]*plain)
						}
					}
				}
				if !wantV {
					return
				}
				ets := &pw.ets
				px := (ea*sa.Center[0] + eb*sb.Center[0]) / p
				py := (ea*sa.Center[1] + eb*sb.Center[1]) / p
				pz := (ea*sa.Center[2] + eb*sb.Center[2]) / p
				pref := 2 * math.Pi / p * pw.coef
				for _, atom := range set.Mol.Atoms {
					pc := [3]float64{px - atom.Pos[0], py - atom.Pos[1], pz - atom.Pos[2]}
					r2 := pc[0]*pc[0] + pc[1]*pc[1] + pc[2]*pc[2]
					boys.Eval(ltot, p*r2, fn)
					buildR(ltot, fn, p, 1, pc[0], pc[1], pc[2], r)
					z := -float64(atom.El)
					for a, cA := range ca {
						for b, cB := range cb {
							var v float64
							for t := 0; t <= cA.X+cB.X; t++ {
								ex := ets[0].at(cA.X, cB.X, t)
								if ex == 0 {
									continue
								}
								for u := 0; u <= cA.Y+cB.Y; u++ {
									ey := ets[1].at(cA.Y, cB.Y, u)
									if ey == 0 {
										continue
									}
									for w := 0; w <= cA.Z+cB.Z; w++ {
										ez := ets[2].at(cA.Z, cB.Z, w)
										if ez == 0 {
											continue
										}
										v += ex * ey * ez * r[(t*n+u)*n+w]
									}
								}
							}
							blk[oneV][a*nb+b] += pref * z * normA[a] * normB[b] * v
						}
					}
				}
			})
			if out[oneH] != nil {
				for k := range blk[oneH] {
					blk[oneH][k] = blk[oneT][k] + blk[oneV][k]
				}
			}
			for k, m := range out {
				if m == nil {
					continue
				}
				// On a diagonal block both entries of a pair a ≠ b end up
				// with the block's value at (max, min).
				for a := range ca {
					for b := 0; b < nb; b++ {
						v := blk[k][a*nb+b]
						m.Set(sa.Index+a, sb.Index+b, v)
						m.Set(sb.Index+b, sa.Index+a, v)
					}
				}
			}
		}
	}
	return out
}

// primWalk is the scratch of a walk over the primitive pairs of a shell
// pair: the current pair's exponents, contraction coefficient and
// p = a + b, its E tables per axis and the 1D overlaps they give,
// s[d][i][j] = ⟨x_A^i|x_B^j⟩ = E_0^{ij}·√(π/p), and the 1D kinetic
// factors t[d][i][j] of kinetic.
type primWalk struct {
	ea, eb, coef, p float64
	ets             [3]eTable
	s               [3][maxSupportedL + 2][maxSupportedL + 3]float64
	t               [3][maxSupportedL + 2][maxSupportedL + 1]float64
}

// walk calls fn once per primitive pair of the shell pair (sa, sb), with
// w holding that pair's tables up to bra degree la and ket degree lb.
func (w *primWalk) walk(sa, sb *basis.Shell, la, lb int, fn func()) {
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			w.ea, w.eb, w.coef, w.p = ea, eb, sa.Coefs[ia]*sb.Coefs[ib], ea+eb
			root := math.Sqrt(math.Pi / w.p)
			for d := range w.ets {
				et := &w.ets[d]
				et.build(la, lb, ab[d], ea, eb)
				for i := 0; i <= la; i++ {
					for j := 0; j <= lb; j++ {
						w.s[d][i][j] = et.at(i, j, 0) * root
					}
				}
			}
			fn()
		}
	}
}

// kinetic fills t up to bra degree la and ket degree lb from s, which
// must reach ket degree lb+2 (and la ≤ maxSupportedL+1):
//
//	t_ij = b(2j+1)·s_ij − 2b²·s_{i,j+2} − ½j(j−1)·s_{i,j−2}
func (w *primWalk) kinetic(la, lb int) {
	eb := w.eb
	for d := range w.t {
		s := &w.s[d]
		for i := 0; i <= la; i++ {
			for j := 0; j <= lb; j++ {
				v := eb * float64(2*j+1) * s[i][j]
				v -= 2 * eb * eb * s[i][j+2]
				if j >= 2 {
					v -= 0.5 * float64(j*(j-1)) * s[i][j-2]
				}
				w.t[d][i][j] = v
			}
		}
	}
}

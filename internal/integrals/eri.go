package integrals

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hfxmd/internal/basis"
	"hfxmd/internal/boys"
	"hfxmd/internal/linalg"
	"hfxmd/internal/qpx"
)

// KernelRevision names the arithmetic of the ERI kernel (Boys
// interpolation, R recurrence, contraction order). Bump it whenever a
// change can move a computed block in its last bits: whatever persists
// blocks (the hfx ERI spill images) keys them by it, so that stored bits
// are only ever replayed into a build that would recompute the same ones.
const KernelRevision = 14

// primPair holds the per-primitive-pair scalars of a shell pair: combined
// exponent p, Gaussian-product centre P, and ss — the contraction
// coefficients over p times E_0^{00,x}·E_0^{00,y}·E_0^{00,z}, the only
// Hermite coefficient an (ss| pair needs (the ssss closed form).
type primPair struct {
	p  float64
	px [3]float64
	ss float64
}

// pairData is the Hermite-space form of one shell pair at one geometry:
// for every primitive pair i and Cartesian component pair c, the nonzero
// Hermite terms E_t·E_u·E_v with the contraction coefficients, 1/p and the
// component norms folded into val and the triple (t,u,v) named by its
// hermTUV index. Terms of (i, c) occupy [off[i·ncomp+c], off[i·ncomp+c+1])
// of the flat hidx/val arrays — 9 bytes a term, no pointers, and the E
// tables they were read from do not outlive buildPairData. The same table
// serves as bra or ket; the relative phase hermSign is applied at use.
type pairData struct {
	l     int // la+lb: Hermite degrees reach l
	ncomp int // na·nb
	prims []primPair
	off   []int32
	hidx  []uint8
	val   []float64
}

// pairDataFor returns the (cached) Hermite-space data of a shell pair.
// The cache persists across quartets and SCF iterations — rebuilding the
// term tables per quartet would dominate the contraction cost.
func (e *Engine) pairDataFor(a, b int) *pairData {
	ns := e.Basis.NShells()
	e.pairInit.Do(func() { e.pairCache = make([]atomic.Pointer[pairData], ns*ns) })
	slot := &e.pairCache[a*ns+b]
	if pd := slot.Load(); pd != nil {
		return pd
	}
	// Racing builders produce identical tables; the first one published
	// is the one everybody uses.
	slot.CompareAndSwap(nil, buildPairData(&e.Basis.Shells[a], &e.Basis.Shells[b]))
	return slot.Load()
}

// buildPairData enumerates the primitive pairs of two shells and their
// Hermite term tables.
func buildPairData(sa, sb *basis.Shell) *pairData {
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	ca, cb := Components(sa.L), Components(sb.L)
	normA, normB := cartNorms[sa.L], cartNorms[sb.L]
	nprim := len(sa.Exps) * len(sb.Exps)
	pd := &pairData{
		l:     sa.L + sb.L,
		ncomp: len(ca) * len(cb),
		prims: make([]primPair, 0, nprim),
	}
	pd.off = make([]int32, 1, nprim*pd.ncomp+1)
	bound := nprim * pairTerms[sa.L][sb.L]
	pd.hidx = make([]uint8, 0, bound)
	pd.val = make([]float64, 0, bound)
	var ets [3]eTable
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			p := ea + eb
			// 1/p is the pair's share of the ERI prefactor 2π^{5/2}/(pq√(p+q)).
			coef := sa.Coefs[ia] * sb.Coefs[ib] / p
			for d := 0; d < 3; d++ {
				ets[d].build(sa.L, sb.L, ab[d], ea, eb)
			}
			pd.prims = append(pd.prims, primPair{
				p: p,
				px: [3]float64{
					(ea*sa.Center[0] + eb*sb.Center[0]) / p,
					(ea*sa.Center[1] + eb*sb.Center[1]) / p,
					(ea*sa.Center[2] + eb*sb.Center[2]) / p,
				},
				ss: coef * ets[0].at(0, 0, 0) * ets[1].at(0, 0, 0) * ets[2].at(0, 0, 0),
			})
			for ai, cA := range ca {
				for bi, cB := range cb {
					scale := coef * normA[ai] * normB[bi]
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
							for v := 0; v <= cA.Z+cB.Z; v++ {
								ez := ets[2].at(cA.Z, cB.Z, v)
								if ez == 0 {
									continue
								}
								pd.hidx = append(pd.hidx, hermIndex[t][u][v])
								pd.val = append(pd.val, scale*ex*ey*ez)
							}
						}
					}
					pd.off = append(pd.off, int32(len(pd.val)))
				}
			}
		}
	}
	if len(pd.val) < bound {
		// Coincident centres zero about half the terms; the tables live
		// as long as the engine, so give the slack back.
		pd.hidx = append([]uint8(nil), pd.hidx...)
		pd.val = append([]float64(nil), pd.val...)
	}
	return pd
}

// QuartetOps returns the Hermite-space multiply-add count of the kernel
// for one (la lb|lc ld) shell quartet, the quantity a cost model prices:
// perPrim per primitive quartet — the C(L+4,4) R-tensor entries plus the
// ket terms times the bra's Hermite count (stage 2) — and perBraPrim per
// bra primitive pair — the bra terms times the ket's component count
// (stage 3). The all-s class takes the closed form: both are zero.
func QuartetOps(la, lb, lc, ld int) (perPrim, perBraPrim int) {
	l := la + lb + lc + ld
	if l == 0 {
		return 0, 0
	}
	rEntries := (l + 1) * (l + 2) * (l + 3) * (l + 4) / 24
	return rEntries + pairTerms[lc][ld]*hermCount[la+lb], pairTerms[la][lb] * NCart(lc) * NCart(ld)
}

// Scratch is the reusable working set of the ERI kernel. A Scratch is
// not safe for concurrent use; give each worker goroutine its own (via
// NewScratch) and reuse it across quartets and SCF iterations — after a
// warm-up build its buffers stop growing and the hot loop performs no
// heap allocations.
type Scratch struct {
	soa  []float64 // stage-1 gather, six runs: T, α, pref, (Q−P)x, (Q−P)y, (Q−P)z
	fn   []float64 // F_0..F_ltot of every primitive quartet, job-major
	r    []float64 // R program buffer of one primitive quartet
	g    []float64 // Hermite intermediate G[cd][tuv] of one bra primitive
	hoff []int32   // R-tensor offset of every Hermite index at this ltot
	koff []int32   // R-tensor offset of every ket term
}

// NewScratch returns a ready-to-use ERI scratch.
func NewScratch() *Scratch { return new(Scratch) }

// grow returns buf resliced to n elements, reallocating when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

var eriPool = sync.Pool{New: func() any { return NewScratch() }}

// ERIShell computes the full quartet block (ab|cd) for four shells and
// writes it into out in row-major order [na][nb][nc][nd]. out must have
// length na·nb·nc·nd. The optional stats record QPX lane utilisation when
// the engine's Vector mode is on.
func (e *Engine) ERIShell(a, b, c, d int, out []float64, stats *qpx.Stats) {
	scratch := eriPool.Get().(*Scratch)
	e.ERIShellScratch(a, b, c, d, out, e.Vector, stats, scratch)
	eriPool.Put(scratch)
}

// ERIShellScratch is ERIShell with the lane accounting and working set
// scoped to the caller: vector decides whether the quartet's primitive
// list is accounted to stats as 4-lane batches, regardless of the
// engine-wide Vector flag (the block computed is the same bit for bit),
// and scratch supplies the reusable buffers. This is the entry point for
// persistent worker pools (package hfx) — two pools sharing one engine
// can account differently without stomping each other, and a per-worker
// scratch keeps the steady state allocation-free.
func (e *Engine) ERIShellScratch(a, b, c, d int, out []float64, vector bool, stats *qpx.Stats, scratch *Scratch) {
	eriQuartet(e.pairDataFor(a, b), e.pairDataFor(c, d), out, vector, stats, scratch)
}

// eriQuartet is the one contraction core, shared by the engine's two
// accounting modes and by the Schwarz bound computation. It works in
// Hermite space as a batch pipeline over flat arrays:
//
//  1. every bra×ket primitive combination is gathered into
//     structure-of-arrays scratch (T, α, pref, Q−P) and boys.EvalBatch
//     fills F_0..F_ltot for the whole list; vector only decides whether
//     the list is accounted to stats as 4-lane batches;
//  2. per bra primitive, the ket primitives are contracted into the
//     Hermite intermediate G[cd][tuv] = Σ_ket Σ_k E_k^{cd}·R[tuv+k], reading
//     the ket's cached term table (R offsets are additive). R is built at
//     Q−P with pref folded into its seeds: R_{tuv}(−X) = (−1)^{t+u+v}·R_{tuv}(X)
//     moves the textbook ket phase (−1)^{k} onto the bra index tuv;
//  3. the bra term table, with that phase, is applied to G once per bra
//     primitive — not once per primitive quartet.
//
// The all-s class skips stages 2–3: its block is Σ pref·ss_bra·ss_ket·F_0.
func eriQuartet(bra, ket *pairData, out []float64, vector bool, stats *qpx.Stats, s *Scratch) {
	nkp := len(ket.prims)
	nq := len(bra.prims) * nkp
	ltot := bra.l + ket.l
	m1 := ltot + 1
	if vector && stats != nil {
		stats.Record((nq+qpx.Width-1)/qpx.Width, nq)
	}
	s.soa = grow(s.soa, 6*nq)
	s.fn = grow(s.fn, nq*m1)
	tvals, fn := s.soa[:nq], s.fn

	if ltot == 0 {
		// ssss closed form; this class dominates screened pair lists.
		w := s.soa[nq : 2*nq]
		q := 0
		for i := range bra.prims {
			bp := &bra.prims[i]
			for j := range ket.prims {
				kp := &ket.prims[j]
				inv := 1 / (bp.p + kp.p)
				dx, dy, dz := bp.px[0]-kp.px[0], bp.px[1]-kp.px[1], bp.px[2]-kp.px[2]
				tvals[q] = bp.p * kp.p * inv * (dx*dx + dy*dy + dz*dz)
				w[q] = twoPi52 * math.Sqrt(inv) * bp.ss * kp.ss
				q++
			}
		}
		boys.EvalBatch(0, tvals, fn)
		var acc float64
		for q, f := range fn {
			acc += w[q] * f
		}
		out[0] = acc
		return
	}

	// Stage 1: gather, then Boys over the whole primitive list.
	alpha, pref := s.soa[nq:2*nq], s.soa[2*nq:3*nq]
	qx, qy, qz := s.soa[3*nq:4*nq], s.soa[4*nq:5*nq], s.soa[5*nq:6*nq]
	q := 0
	for i := range bra.prims {
		bp := &bra.prims[i]
		for j := range ket.prims {
			kp := &ket.prims[j]
			inv := 1 / (bp.p + kp.p)
			a := bp.p * kp.p * inv
			x, y, z := kp.px[0]-bp.px[0], kp.px[1]-bp.px[1], kp.px[2]-bp.px[2]
			alpha[q], pref[q] = a, twoPi52*math.Sqrt(inv)
			qx[q], qy[q], qz[q] = x, y, z
			tvals[q] = a * (x*x + y*y + z*z)
			q++
		}
	}
	boys.EvalBatch(ltot, tvals, fn)

	nkc := ket.ncomp
	nh := hermCount[bra.l]
	out = out[:bra.ncomp*nkc]
	for i := range out {
		out[i] = 0
	}
	s.r = grow(s.r, rSize(ltot))
	s.g = grow(s.g, nkc*nh)
	s.hoff = grow(s.hoff, hermCount[max(bra.l, ket.l)])
	s.koff = grow(s.koff, len(ket.hidx))
	r, g, hoff, koff := s.r, s.g, s.hoff, s.koff
	for h := range hoff {
		tuv := hermTUV[h]
		hoff[h] = int32((int(tuv[0])*m1+int(tuv[1]))*m1 + int(tuv[2]))
	}
	for k, h := range ket.hidx {
		koff[k] = hoff[h]
	}
	hoffB := hoff[:nh]
	for i := range bra.prims {
		// Stage 2: contract the ket primitives into G.
		for x := range g {
			g[x] = 0
		}
		for j := 0; j < nkp; j++ {
			q := i*nkp + j
			buildR(ltot, fn[q*m1:(q+1)*m1], alpha[q], pref[q], qx[q], qy[q], qz[q], r)
			off := ket.off[j*nkc : (j+1)*nkc+1]
			if nh == 1 {
				// (ss| bra: G has one Hermite index per ket component.
				for c := range g {
					ko, val := koff[off[c]:off[c+1]], ket.val[off[c]:off[c+1]]
					var v float64
					for k, o := range ko {
						v += val[k] * r[o]
					}
					g[c] += v
				}
				continue
			}
			for c := 0; c < nkc; c++ {
				gc := g[c*nh : (c+1)*nh]
				ko, val := koff[off[c]:off[c+1]], ket.val[off[c]:off[c+1]]
				for k, o := range ko {
					coef, rk := val[k], r[o:]
					for h, ob := range hoffB {
						gc[h] += coef * rk[ob]
					}
				}
			}
		}
		// Stage 3: apply the bra terms, once per bra primitive.
		off := bra.off[i*bra.ncomp : (i+1)*bra.ncomp+1]
		for a := 0; a < bra.ncomp; a++ {
			hidx, val := bra.hidx[off[a]:off[a+1]], bra.val[off[a]:off[a+1]]
			row := out[a*nkc : (a+1)*nkc]
			for c := range row {
				gc := g[c*nh : (c+1)*nh]
				var v float64
				for k, h := range hidx {
					v += val[k] * hermSign[h] * gc[h]
				}
				row[c] += v
			}
		}
	}
}

// SchwarzMatrix returns the shell-pair Cauchy–Schwarz norms
//
//	Q[ab] = √( max_{μ∈a,ν∈b} (μν|μν) ),
//
// the rigorous upper-bound factors |(μν|λσ)| ≤ Q[ab]·Q[cd] that drive the
// paper's controllable-accuracy screening. It parallelises over shell
// rows with GOMAXPROCS workers; use SchwarzMatrixThreads to control the
// worker count.
func (e *Engine) SchwarzMatrix() *linalg.Matrix {
	return e.SchwarzMatrixThreads(0)
}

// SchwarzMatrixThreads computes the Schwarz matrix with the given number
// of worker goroutines (the same convention as hfx.Options.Threads: zero
// or negative means GOMAXPROCS). Rows are dispatched dynamically because
// row a carries NShells−a pairs — a static block split would be badly
// imbalanced. Every (a,b) entry is computed independently, so the result
// is deterministic regardless of the worker count.
func (e *Engine) SchwarzMatrixThreads(threads int) *linalg.Matrix {
	ns := e.Basis.NShells()
	q := linalg.NewSquare(ns)
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > ns {
		threads = max(ns, 1)
	}
	var nextRow atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []float64
			scratch := eriPool.Get().(*Scratch)
			defer eriPool.Put(scratch)
			for {
				a := int(nextRow.Add(1)) - 1
				if a >= ns {
					return
				}
				sa := &e.Basis.Shells[a]
				for b := a; b < ns; b++ {
					sb := &e.Basis.Shells[b]
					na, nb := sa.NFuncs(), sb.NFuncs()
					need := na * nb * na * nb
					if cap(buf) < need {
						buf = make([]float64, need)
					}
					blk := buf[:need]
					pd := e.pairDataFor(a, b)
					eriQuartet(pd, pd, blk, false, nil, scratch)
					var m float64
					for i := 0; i < na; i++ {
						for j := 0; j < nb; j++ {
							v := blk[((i*nb+j)*na+i)*nb+j] // (ij|ij)
							if v > m {
								m = v
							}
						}
					}
					val := math.Sqrt(math.Max(m, 0))
					q.Set(a, b, val)
					q.Set(b, a, val)
				}
			}
		}()
	}
	wg.Wait()
	return q
}

// MaxERIBufLen returns the maximum quartet block length over the basis,
// for sizing scratch buffers.
func (e *Engine) MaxERIBufLen() int {
	maxn := 0
	for i := range e.Basis.Shells {
		if n := e.Basis.Shells[i].NFuncs(); n > maxn {
			maxn = n
		}
	}
	return maxn * maxn * maxn * maxn
}

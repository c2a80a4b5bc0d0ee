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
// interpolation, R recurrence, contraction order, primitive-level cut).
// Bump it whenever a change can move a computed block in its last bits:
// whatever persists blocks (the hfx ERI spill images) keys them by it, so
// that stored bits are only ever replayed into a build that would
// recompute the same ones.
const KernelRevision = 15

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
//
// Primitive pairs are stored by descending Schwarz factor
//
//	q[i] = √max_c (i_c i_c|i_c i_c),
//
// the primitive-level analogue of the shell-pair norm with the contraction
// coefficients folded in: every element of the primitive quartet block of
// bra primitive i and ket primitive j is bounded by q[i]·q[j], so a kernel
// that drops the quartets below a cut leaves both sorted lists early (see
// eriQuartetCut). qtail[i] = Σ_{k≥i} q[k] prices what it dropped without
// visiting it. order[i] is the (ia, ib) position ia·nb+ib of stored
// primitive i, for code that walks a second table in contraction order.
// Derivative tables keep contraction order and carry no q: they only ever
// run uncut.
type pairData struct {
	l     int // la+lb: Hermite degrees reach l
	ncomp int // na·nb
	terms int // pairTerms[la][lb]: Hermite terms per primitive at a general geometry
	prims []primPair
	off   []int32
	hidx  []uint8
	val   []float64
	q     []float64
	qtail []float64
	order []int32
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

// PrimSchwarz returns the primitive-level Schwarz factors of shell pair
// (a, b) in descending order: q_i = √max_c (i_c i_c|i_c i_c) with the
// contraction coefficients folded in, so that every element of the
// primitive quartet (i|j) of two pairs is at most q_i·q_j in magnitude.
// The slice is the cached table's own: read-only.
func (e *Engine) PrimSchwarz(a, b int) []float64 { return e.pairDataFor(a, b).q }

// pairBuilder is the reusable working set of buildPairData: the table in
// contraction order and the kernel scratch and block its Schwarz factors
// are evaluated with.
type pairBuilder struct {
	ets     [3]eTable
	prims   []primPair
	off     []int32
	hidx    []uint8
	val     []float64
	blk     []float64
	scratch Scratch
}

// pairBuilders is the free list of working sets: one per goroutine that
// has ever built tables at the same time, a few KiB each. A plain list
// rather than a sync.Pool, which empties at every GC cycle (and at random
// under the race detector): every geometry of a trajectory builds its
// tables afresh, and they should find the buffers of the one before.
var pairBuilders struct {
	sync.Mutex
	free []*pairBuilder
}

func getPairBuilder() *pairBuilder {
	pairBuilders.Lock()
	defer pairBuilders.Unlock()
	if n := len(pairBuilders.free); n > 0 {
		pb := pairBuilders.free[n-1]
		pairBuilders.free = pairBuilders.free[:n-1]
		return pb
	}
	return new(pairBuilder)
}

func putPairBuilder(pb *pairBuilder) {
	pairBuilders.Lock()
	pairBuilders.free = append(pairBuilders.free, pb)
	pairBuilders.Unlock()
}

// buildPairData enumerates the primitive pairs of two shells and their
// Hermite term tables, bounds every primitive pair and stores them by
// descending bound.
func buildPairData(sa, sb *basis.Shell) *pairData {
	pb := getPairBuilder()
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	ca, cb := Components(sa.L), Components(sb.L)
	normA, normB := cartNorms[sa.L], cartNorms[sb.L]
	nprim := len(sa.Exps) * len(sb.Exps)
	ncomp := len(ca) * len(cb)

	// Pass 1: the table in contraction order, in the builder's buffers.
	prims, off := pb.prims[:0], append(pb.off[:0], 0)
	hidx, val := pb.hidx[:0], pb.val[:0]
	ets := &pb.ets
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			p := ea + eb
			// 1/p is the pair's share of the ERI prefactor 2π^{5/2}/(pq√(p+q)).
			coef := sa.Coefs[ia] * sb.Coefs[ib] / p
			for d := 0; d < 3; d++ {
				ets[d].build(sa.L, sb.L, ab[d], ea, eb)
			}
			prims = append(prims, primPair{
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
								hidx = append(hidx, hermIndex[t][u][v])
								val = append(val, scale*ex*ey*ez)
							}
						}
					}
					off = append(off, int32(len(val)))
				}
			}
		}
	}

	// Pass 2: bound every primitive pair by its own diagonal quartet — the
	// kernel itself on a one-primitive view of the table (slices, no copy)
	// — and order the pairs by descending bound, contraction order among
	// equals. The table proper is allocated once, at its final size.
	floats := make([]float64, len(val)+2*nprim+1)
	ints := make([]int32, nprim*ncomp+1+nprim)
	pd := &pairData{
		l: sa.L + sb.L, ncomp: ncomp, terms: pairTerms[sa.L][sb.L],
		prims: make([]primPair, nprim),
		off:   ints[:nprim*ncomp+1],
		hidx:  make([]uint8, len(hidx)),
		val:   floats[:len(val):len(val)],
		q:     floats[len(val) : len(val)+nprim : len(val)+nprim],
		qtail: floats[len(val)+nprim:],
		order: ints[nprim*ncomp+1:],
	}
	blk := grow(pb.blk, ncomp*ncomp)
	view := pairData{l: pd.l, ncomp: ncomp, hidx: hidx, val: val}
	for i := range prims {
		view.prims = prims[i : i+1]
		view.off = off[i*ncomp : (i+1)*ncomp+1]
		eriQuartet(&view, &view, blk, false, nil, &pb.scratch)
		var m float64
		for c := 0; c < ncomp; c++ {
			m = max(m, blk[c*ncomp+c])
		}
		// Insertion into the descending list: nprim is at most a few dozen.
		qi := math.Sqrt(m)
		k := i
		for ; k > 0 && pd.q[k-1] < qi; k-- {
			pd.q[k], pd.order[k] = pd.q[k-1], pd.order[k-1]
		}
		pd.q[k], pd.order[k] = qi, int32(i)
	}
	for i := nprim - 1; i >= 0; i-- {
		pd.qtail[i] = pd.qtail[i+1] + pd.q[i]
	}
	for i, from := range pd.order {
		pd.prims[i] = prims[from]
		src := off[int(from)*ncomp : (int(from)+1)*ncomp+1]
		dst := pd.off[i*ncomp : (i+1)*ncomp+1]
		shift := dst[0] - src[0]
		for c, o := range src[1:] {
			dst[c+1] = o + shift
		}
		copy(pd.hidx[dst[0]:], hidx[src[0]:src[ncomp]])
		copy(pd.val[dst[0]:], val[src[0]:src[ncomp]])
	}
	pb.prims, pb.off, pb.hidx, pb.val, pb.blk = prims, off, hidx, val, blk
	putPairBuilder(pb)
	return pd
}

// PairClass is what the kernel's operation counts depend on in a shell
// pair: its total angular momentum, the Hermite terms of one primitive
// pair at a general geometry (pairTerms), its Cartesian component pairs
// and its primitive pairs.
type PairClass struct{ L, Terms, Comp, Prims int }

// ClassOf returns the class of an (la lb| pair of nprims primitive pairs.
func ClassOf(la, lb, nprims int) PairClass {
	return PairClass{L: la + lb, Terms: pairTerms[la][lb], Comp: NCart(la) * NCart(lb), Prims: nprims}
}

func (pd *pairData) class() PairClass {
	return PairClass{L: pd.l, Terms: pd.terms, Comp: pd.ncomp, Prims: len(pd.prims)}
}

// stageOps returns the Hermite-space multiply-adds of the kernel's stages
// 2 and 3 for one orientation: perPrim per primitive quartet — the ket
// terms times the bra's Hermite count — and perBraPrim per bra primitive
// pair — the bra terms times the ket's component count.
func stageOps(bra, ket PairClass) (perPrim, perBraPrim int) {
	return ket.Terms * hermCount[bra.L], bra.Terms * ket.Comp
}

// QuartetOps returns the Hermite-space multiply-add count of the kernel
// for one shell quartet, the quantity a cost model prices, in the
// orientation the kernel takes: perPrim per primitive quartet — the
// C(L+4,4) R-tensor entries plus the ket terms times the bra's Hermite
// count (stage 2) — and perBraPrim per primitive pair of the side
// evaluated as bra — its terms times the other side's component count
// (stage 3). swapped reports that this side is the ket: the block is
// evaluated as (cd|ab) and transposed, because that is cheaper. The
// contraction is not symmetric in its two sides — the ket's term table is
// walked once per primitive quartet against every Hermite index of the
// bra, the bra's once per bra primitive — so (ss|pp) would pay 33 ket terms
// per primitive quartet where (pp|ss) pays 10. The all-s class takes the
// closed form: both counts are zero.
func QuartetOps(bra, ket PairClass) (perPrim, perBraPrim int, swapped bool) {
	l := bra.L + ket.L
	if l == 0 {
		return 0, 0, false
	}
	r := (l + 1) * (l + 2) * (l + 3) * (l + 4) / 24
	p, b := stageOps(bra, ket)
	ps, bs := stageOps(ket, bra)
	if nq := bra.Prims * ket.Prims; nq*ps+ket.Prims*bs < nq*p+bra.Prims*b {
		return r + ps, bs, true
	}
	return r + p, b, false
}

// PrimStats counts the primitive quartets a kernel scratch has seen since
// it was last read: Evaluated went through Boys and the contraction,
// Skipped fell below the cut of their shell quartet, and TailBound is
// Σ q_i·q_j over the skipped ones — a rigorous bound on the sum of what
// every integral evaluated on this scratch is missing.
type PrimStats struct {
	Evaluated, Skipped int64
	TailBound          float64
}

// Add folds o into s.
func (s *PrimStats) Add(o PrimStats) {
	s.Evaluated += o.Evaluated
	s.Skipped += o.Skipped
	s.TailBound += o.TailBound
}

// SkipRatio returns Skipped/(Evaluated+Skipped), or 0 for an idle scratch.
func (s PrimStats) SkipRatio() float64 {
	if tot := s.Evaluated + s.Skipped; tot > 0 {
		return float64(s.Skipped) / float64(tot)
	}
	return 0
}

// Scratch is the reusable working set of the ERI kernel. A Scratch is
// not safe for concurrent use; give each worker goroutine its own (via
// NewScratch) and reuse it across quartets and SCF iterations — after a
// warm-up build its buffers stop growing and the hot loop performs no
// heap allocation.
type Scratch struct {
	soa  []float64 // stage-1 gather, six runs: T, α, pref, (Q−P)x, (Q−P)y, (Q−P)z
	fn   []float64 // F_0..F_ltot of every primitive quartet, job-major
	r    []float64 // R program buffer of one primitive quartet
	g    []float64 // Hermite intermediate G[cd][tuv] of one bra primitive
	hoff []int32   // R-tensor offset of every Hermite index at this ltot
	koff []int32   // R-tensor offset of every ket term
	cnt  []int32   // surviving ket primitives of every bra primitive
	tr   []float64 // the (cd|ab) block of a quartet evaluated transposed
	prim PrimStats
}

// NewScratch returns a ready-to-use ERI scratch.
func NewScratch() *Scratch { return new(Scratch) }

// TakePrimStats returns the primitive-quartet counters accumulated on this
// scratch and resets them.
func (s *Scratch) TakePrimStats() PrimStats {
	st := s.prim
	s.prim = PrimStats{}
	return st
}

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
// and scratch supplies the reusable buffers. Every primitive quartet is
// evaluated: this is ERIShellCut at cut 0.
func (e *Engine) ERIShellScratch(a, b, c, d int, out []float64, vector bool, stats *qpx.Stats, scratch *Scratch) {
	e.ERIShellCut(a, b, c, d, out, 0, vector, stats, scratch)
}

// ERIShellCut is the entry point of persistent worker pools (package
// hfx): the block (ab|cd) without the primitive quartets whose Schwarz
// bound q_i·q_j is below cut. A caller that passes ε over the quartet's
// primitive-quartet count gets every integral to within ε of its exact
// value — the neglected tail is a sum of at most that many terms, each
// below the cut — whatever density the block is later contracted with;
// what was skipped and the bound on it accumulate on scratch
// (TakePrimStats). The block is evaluated in the cheaper of its two
// orientations (QuartetOps) and written as (ab|cd) either way.
func (e *Engine) ERIShellCut(a, b, c, d int, out []float64, cut float64, vector bool, stats *qpx.Stats, scratch *Scratch) {
	bra, ket := e.pairDataFor(a, b), e.pairDataFor(c, d)
	if _, _, swapped := QuartetOps(bra.class(), ket.class()); !swapped {
		eriQuartetCut(bra, ket, out, cut, vector, stats, scratch)
		return
	}
	nb, nk := bra.ncomp, ket.ncomp
	scratch.tr = grow(scratch.tr, nb*nk)
	tr := scratch.tr
	eriQuartetCut(ket, bra, tr, cut, vector, stats, scratch)
	for k := 0; k < nk; k++ {
		for i, v := range tr[k*nb : (k+1)*nb] {
			out[i*nk+k] = v
		}
	}
}

// keep is the primitive-level Schwarz test, written once: of the first hi
// entries of the descending factor list kq it returns how many pass
// q·kq[j] ≥ cut — a prefix, because rounded multiplication is monotone.
func keep(q float64, kq []float64, hi int, cut float64) int {
	for hi > 0 && q*kq[hi-1] < cut {
		hi--
	}
	return hi
}

// PrimSurvivors counts what a kernel run at cut evaluates of the quartet
// of two pairs with primitive factor lists bq and kq (Engine.PrimSchwarz,
// descending): nq primitive quartets, held by the first nb entries of bq
// and the first nk of kq. It is the count eriQuartetCut gathers by, for a
// cost model that prices the quartet without evaluating it.
func PrimSurvivors(bq, kq []float64, cut float64) (nq, nb, nk int) {
	k := len(kq)
	for _, qi := range bq {
		if k = keep(qi, kq, k, cut); k == 0 {
			break
		}
		if nb == 0 {
			nk = k
		}
		nb++
		nq += k
	}
	return nq, nb, nk
}

// survivors is stage 0 of eriQuartetCut: it fills s.cnt with the number of
// ket primitives every bra primitive keeps under the cut, accounts what
// was dropped, and returns the number of bra primitives that keep any and
// the number of primitive quartets kept.
func (s *Scratch) survivors(bra, ket *pairData, cut float64) (nb, nq int) {
	nbp, nkp := len(bra.prims), len(ket.prims)
	s.cnt = grow(s.cnt, nbp)
	cnt := s.cnt
	nb, nq = nbp, nbp*nkp
	if cut > 0 {
		nq = 0
		tail := 0.0
		nk := nkp
		for i, qi := range bra.q {
			if nk = keep(qi, ket.q, nk, cut); nk == 0 {
				nb = i
				tail += bra.qtail[i] * ket.qtail[0]
				break
			}
			cnt[i] = int32(nk)
			nq += nk
			tail += qi * ket.qtail[nk]
		}
		s.prim.Skipped += int64(nbp*nkp - nq)
		s.prim.TailBound += tail
	} else {
		for i := range cnt {
			cnt[i] = int32(nkp)
		}
	}
	s.prim.Evaluated += int64(nq)
	return nb, nq
}

// eriQuartet is eriQuartetCut with every primitive quartet evaluated: the
// form the Schwarz norms, the primitive-pair bounds and the derivative
// blocks are computed in.
func eriQuartet(bra, ket *pairData, out []float64, vector bool, stats *qpx.Stats, s *Scratch) {
	eriQuartetCut(bra, ket, out, 0, vector, stats, s)
}

// eriQuartetCut is the one contraction core, shared by the engine's two
// accounting modes, the Schwarz bound computation and the derivative
// blocks. It works in Hermite space as a batch pipeline over flat arrays:
//
//  0. the bra×ket primitive combinations with q_i·q_j ≥ cut are counted:
//     both lists descend in q, so the survivors of bra primitive i are a
//     prefix of the ket list no longer than that of i−1, and the first
//     bra primitive without one ends the bra list (cut 0: all of them);
//  1. the survivors are gathered into structure-of-arrays scratch (T, α,
//     pref, Q−P) and boys.EvalBatch fills F_0..F_ltot for the whole list;
//     vector only decides whether the list is accounted to stats as
//     4-lane batches;
//  2. per bra primitive, its ket primitives are contracted into the
//     Hermite intermediate G[cd][tuv] = Σ_ket Σ_k E_k^{cd}·R[tuv+k], reading
//     the ket's cached term table (R offsets are additive), in the form
//     the quartet's shape selects (the stage 2 forms below). R is built at
//     Q−P with pref folded into its seeds: R_{tuv}(−X) = (−1)^{t+u+v}·R_{tuv}(X)
//     moves the textbook ket phase (−1)^{k} onto the bra index tuv;
//  3. the bra term table, with that phase, is applied to G once per bra
//     primitive — not once per primitive quartet.
//
// The all-s class skips stages 2–3: its block is Σ pref·ss_bra·ss_ket·F_0.
func eriQuartetCut(bra, ket *pairData, out []float64, cut float64, vector bool, stats *qpx.Stats, s *Scratch) {
	ltot := bra.l + ket.l
	m1 := ltot + 1
	nb, nq := s.survivors(bra, ket, cut)
	cnt := s.cnt
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
		for i := 0; i < nb; i++ {
			bp := &bra.prims[i]
			for j := range ket.prims[:cnt[i]] {
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
	gl := gathered{fn: fn, alpha: s.soa[nq : 2*nq], pref: s.soa[2*nq : 3*nq],
		x: s.soa[3*nq : 4*nq], y: s.soa[4*nq : 5*nq], z: s.soa[5*nq : 6*nq]}
	q := 0
	for i := 0; i < nb; i++ {
		bp := &bra.prims[i]
		for j := range ket.prims[:cnt[i]] {
			kp := &ket.prims[j]
			inv := 1 / (bp.p + kp.p)
			a := bp.p * kp.p * inv
			x, y, z := kp.px[0]-bp.px[0], kp.px[1]-bp.px[1], kp.px[2]-bp.px[2]
			gl.alpha[q], gl.pref[q] = a, twoPi52*math.Sqrt(inv)
			gl.x[q], gl.y[q], gl.z[q] = x, y, z
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
	if nb == 0 {
		return
	}
	// The ket terms any bra primitive reads are those of the first cnt[0]
	// ket primitives (a one-primitive view starts past the table's origin).
	klo, khi := int(ket.off[0]), int(ket.off[int(cnt[0])*nkc])
	s.r = grow(s.r, rSize(ltot))
	s.g = grow(s.g, nkc*nh)
	s.hoff = grow(s.hoff, hermCount[max(bra.l, ket.l)])
	s.koff = grow(s.koff, khi)
	g, hoff, koff := s.g, s.hoff, s.koff
	for h := range hoff {
		tuv := hermTUV[h]
		hoff[h] = int32((int(tuv[0])*m1+int(tuv[1]))*m1 + int(tuv[2]))
	}
	for k := klo; k < khi; k++ {
		koff[k] = hoff[ket.hidx[k]]
	}
	q = 0
	for i := 0; i < nb; i++ {
		// Stage 2: contract the ket primitives into G.
		nk := int(cnt[i])
		switch {
		case ltot == 1 && nh == 4 && nkc == 1:
			gl.psss(ket, q, nk, g)
		case ltot == 2 && nh == 10 && nkc == 1:
			gl.ppss(ket, q, nk, g)
		case ltot == 2 && nh == 4 && nkc == 3:
			gl.spsp(ket, q, nk, g)
		default:
			gl.generic(ket, ltot, q, nk, hoff[:nh], koff, s.r, g)
		}
		q += nk
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

// gathered is stage 1's output: per primitive quartet of the gathered
// list its Boys values F_0..F_ltot (job-major), α, the prefactor and Q−P.
type gathered struct {
	fn, alpha, pref, x, y, z []float64
}

// Stage 2 forms. Each contracts the nk ket primitives of one bra
// primitive — primitive quartets q..q+nk−1 of the gathered list — into G
// with the same multiply-adds in the same order, (ket primitive,
// component, term, Hermite index), so every form writes the bits the
// generic one does. A ket component without terms (its E₀ underflowed)
// adds nothing. The fused forms cover the s/p shapes of ltot 1 and 2 in
// the orientation QuartetOps picks: they build R inline with buildR's
// arithmetic and keep G in registers.

// psss is stage 2 of (p s|s s): four Hermite indices against one ket term.
func (gl *gathered) psss(ket *pairData, q, nk int, g []float64) {
	fn := gl.fn[2*q : 2*(q+nk)]
	alpha, pref := gl.alpha[q:q+nk], gl.pref[q:q+nk]
	x, y, z := gl.x[q:q+nk], gl.y[q:q+nk], gl.z[q:q+nk]
	off := ket.off[:nk+1]
	var g0, g1, g2, g3 float64
	for j, p := range alpha {
		s1 := fn[2*j+1] * (pref[j] * (-2 * p))
		r0 := fn[2*j] * pref[j]
		rx, ry, rz := x[j]*s1, y[j]*s1, z[j]*s1
		for _, coef := range ket.val[off[j]:off[j+1]] {
			g0 += coef * r0
			g1 += coef * rx
			g2 += coef * ry
			g3 += coef * rz
		}
	}
	g[0], g[1], g[2], g[3] = g0, g1, g2, g3
}

// ppss is stage 2 of (p p|s s): ten Hermite indices against one ket term.
func (gl *gathered) ppss(ket *pairData, q, nk int, g []float64) {
	fn := gl.fn[3*q : 3*(q+nk)]
	alpha, pref := gl.alpha[q:q+nk], gl.pref[q:q+nk]
	x, y, z := gl.x[q:q+nk], gl.y[q:q+nk], gl.z[q:q+nk]
	off := ket.off[:nk+1]
	var g0, g1, g2, g3, g4, g5, g6, g7, g8, g9 float64
	for j, p := range alpha {
		// buildR at l = 2, by Hermite index.
		scale1 := pref[j] * (-2 * p)
		s1, s2 := fn[3*j+1]*scale1, fn[3*j+2]*(scale1*(-2*p))
		xj, yj, zj := x[j], y[j], z[j]
		az, ay, ax := zj*s2, yj*s2, xj*s2
		r0 := fn[3*j] * pref[j]
		r1, r2, r3 := xj*s1, yj*s1, zj*s1
		r4, r5, r6 := xj*ax+s1, xj*ay, xj*az
		r7, r8, r9 := yj*ay+s1, yj*az, zj*az+s1
		for _, coef := range ket.val[off[j]:off[j+1]] {
			g0 += coef * r0
			g1 += coef * r1
			g2 += coef * r2
			g3 += coef * r3
			g4 += coef * r4
			g5 += coef * r5
			g6 += coef * r6
			g7 += coef * r7
			g8 += coef * r8
			g9 += coef * r9
		}
	}
	g[0], g[1], g[2], g[3], g[4] = g0, g1, g2, g3, g4
	g[5], g[6], g[7], g[8], g[9] = g5, g6, g7, g8, g9
}

// spsp is stage 2 of (s p|s p): four Hermite indices against the terms of
// three ket components, each of Hermite degree ≤ 1. m[k][h] is R at the
// sum of the k-th and h-th degree-≤1 triples.
func (gl *gathered) spsp(ket *pairData, q, nk int, g []float64) {
	fn := gl.fn[3*q : 3*(q+nk)]
	alpha, pref := gl.alpha[q:q+nk], gl.pref[q:q+nk]
	x, y, z := gl.x[q:q+nk], gl.y[q:q+nk], gl.z[q:q+nk]
	off := ket.off[:3*nk+1]
	var acc [3][4]float64
	var m [4][4]float64
	for j, p := range alpha {
		// buildR at l = 2, placed by the pair of triples it sums.
		scale1 := pref[j] * (-2 * p)
		s1, s2 := fn[3*j+1]*scale1, fn[3*j+2]*(scale1*(-2*p))
		xj, yj, zj := x[j], y[j], z[j]
		az, ay, ax := zj*s2, yj*s2, xj*s2
		m[0][0] = fn[3*j] * pref[j]
		m[0][1], m[0][2], m[0][3] = xj*s1, yj*s1, zj*s1
		m[1][1], m[1][2], m[1][3] = xj*ax+s1, xj*ay, xj*az
		m[2][2], m[2][3], m[3][3] = yj*ay+s1, yj*az, zj*az+s1
		m[1][0], m[2][0], m[3][0] = m[0][1], m[0][2], m[0][3]
		m[2][1], m[3][1], m[3][2] = m[1][2], m[1][3], m[2][3]
		for c := range acc {
			gc := &acc[c]
			lo, hi := off[3*j+c], off[3*j+c+1]
			for k, coef := range ket.val[lo:hi] {
				mk := &m[ket.hidx[int(lo)+k]&3]
				gc[0] += coef * mk[0]
				gc[1] += coef * mk[1]
				gc[2] += coef * mk[2]
				gc[3] += coef * mk[3]
			}
		}
	}
	for c := range acc {
		copy(g[4*c:4*c+4], acc[c][:])
	}
}

// generic is stage 2 of every other shape: R from buildR per primitive
// quartet, read at the ket term's offset plus the bra index's. Bras of 4
// and 10 Hermite indices (s/p/d pairs of degree ≤ 2) run unrolled, with
// the offsets and the component's G row in locals.
func (gl *gathered) generic(ket *pairData, ltot, q, nk int, hoffB, koff []int32, r, g []float64) {
	m1 := ltot + 1
	nkc, nh := ket.ncomp, len(hoffB)
	for x := range g {
		g[x] = 0
	}
	var hb [10]int32
	copy(hb[:], hoffB)
	h1, h2, h3, h4, h5, h6, h7, h8, h9 := hb[1], hb[2], hb[3], hb[4], hb[5], hb[6], hb[7], hb[8], hb[9]
	for j := 0; j < nk; j++ {
		buildR(ltot, gl.fn[q*m1:(q+1)*m1], gl.alpha[q], gl.pref[q], gl.x[q], gl.y[q], gl.z[q], r)
		q++
		off := ket.off[j*nkc : (j+1)*nkc+1]
		for c := 0; c < nkc; c++ {
			ko, val := koff[off[c]:off[c+1]], ket.val[off[c]:off[c+1]]
			switch nh {
			case 1:
				// (ss| bra: G has one Hermite index per ket component.
				var v float64
				for k, o := range ko {
					v += val[k] * r[o]
				}
				g[c] += v
			case 4:
				gc := g[4*c : 4*c+4]
				g0, g1, g2, g3 := gc[0], gc[1], gc[2], gc[3]
				for k, o := range ko {
					coef := val[k]
					g0 += coef * r[o]
					g1 += coef * r[o+h1]
					g2 += coef * r[o+h2]
					g3 += coef * r[o+h3]
				}
				gc[0], gc[1], gc[2], gc[3] = g0, g1, g2, g3
			case 10:
				gc := g[10*c : 10*c+10]
				g0, g1, g2, g3, g4 := gc[0], gc[1], gc[2], gc[3], gc[4]
				g5, g6, g7, g8, g9 := gc[5], gc[6], gc[7], gc[8], gc[9]
				for k, o := range ko {
					coef := val[k]
					g0 += coef * r[o]
					g1 += coef * r[o+h1]
					g2 += coef * r[o+h2]
					g3 += coef * r[o+h3]
					g4 += coef * r[o+h4]
					g5 += coef * r[o+h5]
					g6 += coef * r[o+h6]
					g7 += coef * r[o+h7]
					g8 += coef * r[o+h8]
					g9 += coef * r[o+h9]
				}
				gc[0], gc[1], gc[2], gc[3], gc[4] = g0, g1, g2, g3, g4
				gc[5], gc[6], gc[7], gc[8], gc[9] = g5, g6, g7, g8, g9
			default:
				gc := g[c*nh : (c+1)*nh]
				for k, o := range ko {
					coef, rk := val[k], r[o:]
					for h, ob := range hoffB {
						gc[h] += coef * rk[ob]
					}
				}
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
			var blk []float64
			scratch := eriPool.Get().(*Scratch)
			defer eriPool.Put(scratch)
			for {
				a := int(nextRow.Add(1)) - 1
				if a >= ns {
					return
				}
				sa := &e.Basis.Shells[a]
				for b := a; b < ns; b++ {
					pd := e.pairDataFor(a, b)
					if len(pd.prims) == 1 {
						// The table's own bound is this very quartet.
						q.Set(a, b, pd.q[0])
						q.Set(b, a, pd.q[0])
						continue
					}
					sb := &e.Basis.Shells[b]
					na, nb := sa.NFuncs(), sb.NFuncs()
					blk = grow(blk, na*nb*na*nb)
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

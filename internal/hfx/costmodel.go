// Package hfx implements the paper's primary contribution: the scalable
// evaluation of the Hartree–Fock exact-exchange matrix
//
//	K[μν] = Σ_{λσ} P[λσ] (μλ|νσ)
//
// by task decomposition of the screened shell-pair list. The design
// follows the IPDPS'14 scheme:
//
//   - work is generated from the *screened* pair list, so the task set
//     shrinks with the screening threshold and with distance cutoffs in
//     condensed phase;
//   - every task's cost is predicted by a calibrated flop model, enabling
//     *static* LPT balancing over any number of threads (the enabler of
//     the 6.29M-thread scaling result);
//   - each thread accumulates into a private K buffer; buffers are merged
//     by a hierarchical pairwise tree, mirroring the torus allreduce;
//   - the innermost primitive loops optionally run 4-wide (package qpx).
//
// A deliberately naive distributed-pair Baseline configuration reproduces
// the "directly comparable approach" the paper beats by >10×.
package hfx

import (
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/screen"
)

// CostModel predicts the cost (in abstract work units; calibrated units
// are nanoseconds) of evaluating one contracted shell quartet and
// scattering it into K. It follows the shape of the Hermite-space kernel
// (integrals.QuartetOps): every primitive quartet pays a fixed price for
// its gather, Boys values and R-tensor seeds, plus one unit per Hermite
// multiply-add — R-tensor entries and the ket contraction per primitive
// quartet, the bra application per bra primitive pair. The all-s class
// takes the kernel's closed form and pays only its own, smaller,
// per-primitive price.
type CostModel struct {
	// PerQuartet is the fixed overhead per shell quartet.
	PerQuartet float64
	// PerPrimSS is the cost per primitive quartet of the all-s class.
	PerPrimSS float64
	// PerPrim is the cost per primitive quartet of every other class,
	// before its Hermite-space work.
	PerPrim float64
	// PerOp is the cost per Hermite-space multiply-add.
	PerOp float64
}

// DefaultCostModel returns coefficients in nanoseconds fitted to the
// kernel in its served mode on the reference container: over the nine s/p
// classes of (H2O)2/STO-3G the prediction stays within 0.85–1.1× of the
// measured time (0.85 µs for ssss to 34 µs for pppp), and single-primitive
// 6-31G quartets (0.04–0.8 µs) fix the split between the per-quartet and
// the per-primitive price. Only the ratios matter to placement;
// steal.Calibrator learns the machine's per-class corrections on top.
func DefaultCostModel() CostModel {
	return CostModel{PerQuartet: 60, PerPrimSS: 10, PerPrim: 25, PerOp: 1}
}

// Quartet returns the predicted cost of the quartet (ab|cd) with every
// primitive quartet evaluated — the exact kernel.
func (cm CostModel) Quartet(sa, sb, sc, sd *basis.Shell) float64 {
	bra, ket := shellPairClass(sa, sb), shellPairClass(sc, sd)
	return cm.price(bra, ket, bra.Prims*ket.Prims, bra.Prims, ket.Prims)
}

func shellPairClass(sa, sb *basis.Shell) integrals.PairClass {
	return integrals.ClassOf(sa.L, sb.L, sa.NPrims()*sb.NPrims())
}

// price is the model: a quartet of the given pair classes of which the
// kernel evaluates nq primitive quartets, held by nbra bra and nket ket
// primitive pairs, in the orientation the kernel takes.
func (cm CostModel) price(bra, ket integrals.PairClass, nq, nbra, nket int) float64 {
	perPrim, perBraPrim, swapped := integrals.QuartetOps(bra, ket)
	if perPrim == 0 {
		return cm.PerQuartet + cm.PerPrimSS*float64(nq)
	}
	if swapped {
		nbra = nket // the kernel evaluates (cd|ab)
	}
	return cm.PerQuartet + float64(nq)*(cm.PerPrim+cm.PerOp*float64(perPrim)) +
		float64(nbra)*cm.PerOp*float64(perBraPrim)
}

// primCut is the primitive-level Schwarz cut of a shell quartet of nprim
// primitive quartets under the screening threshold eps: those with
// q_i·q_j < eps/nprim are not evaluated, so the neglected tail of every
// integral of the block is below eps — the bound the shell-quartet test
// already accepts — at any density, which is what lets a block cached or
// spilled under one density serve every later one. The builders evaluate
// by it (pool.runTask) and the cost model counts by it (pricer).
func primCut(eps float64, nprim int) float64 { return eps / float64(nprim) }

// pricer prices the quartets of one screened pair list. For a builder on
// (eng, scr) it prices quartet (i|j) as the builder evaluates it: nothing
// when the pair of pairs fails the shell-level Schwarz test, else the
// primitive quartets primCut leaves (integrals.PrimSurvivors over the
// engine's primitive factor lists) and the primitive pairs that hold them.
// Without an engine (scr nil) every primitive quartet of every quartet is
// priced — the exact kernel.
type pricer struct {
	cm      CostModel
	scr     *screen.Result
	classes []integrals.PairClass
	q       [][]float64
}

func newPricer(cm CostModel, set *basis.Set, pairs []screen.Pair) *pricer {
	pr := &pricer{cm: cm, classes: make([]integrals.PairClass, len(pairs))}
	for i, p := range pairs {
		pr.classes[i] = shellPairClass(&set.Shells[p.A], &set.Shells[p.B])
	}
	return pr
}

func newBuilderPricer(cm CostModel, eng *integrals.Engine, scr *screen.Result) *pricer {
	pr := newPricer(cm, eng.Basis, scr.Pairs)
	pr.scr = scr
	pr.q = make([][]float64, len(scr.Pairs))
	for i, p := range scr.Pairs {
		pr.q[i] = eng.PrimSchwarz(p.A, p.B)
	}
	return pr
}

// quartet returns the predicted cost of the quartet of pairs i and j.
func (pr *pricer) quartet(i, j int) float64 {
	bra, ket := pr.classes[i], pr.classes[j]
	if pr.scr == nil {
		return pr.cm.price(bra, ket, bra.Prims*ket.Prims, bra.Prims, ket.Prims)
	}
	if !pr.scr.QuartetSurvives(pr.scr.Pairs[i], pr.scr.Pairs[j]) {
		return 0
	}
	cut := primCut(pr.scr.Opts.Threshold, bra.Prims*ket.Prims)
	nq, nbra, nket := integrals.PrimSurvivors(pr.q[i], pr.q[j], cut)
	return pr.cm.price(bra, ket, nq, nbra, nket)
}

// Calibrate measures this machine's speed on the most expensive diagonal
// quartet of the engine's basis and returns the default model scaled by
// measured over predicted time. It requires at least two shells; on
// degenerate input it returns the default model.
func Calibrate(eng *integrals.Engine) CostModel {
	set := eng.Basis
	cm := DefaultCostModel()
	if set.NShells() < 2 {
		return cm
	}
	cost := func(i int) float64 {
		sh := &set.Shells[i]
		return cm.Quartet(sh, sh, sh, sh)
	}
	large := 0
	for i := 1; i < set.NShells(); i++ {
		if cost(i) > cost(large) {
			large = i
		}
	}
	n := set.Shells[large].NFuncs()
	buf := make([]float64, n*n*n*n)
	const reps = 200
	start := time.Now()
	for r := 0; r < reps; r++ {
		eng.ERIShell(large, large, large, large, buf, nil)
	}
	scale := float64(time.Since(start).Nanoseconds()) / reps / cost(large)
	if scale <= 0 {
		return cm
	}
	return CostModel{
		PerQuartet: cm.PerQuartet * scale, PerPrimSS: cm.PerPrimSS * scale,
		PerPrim: cm.PerPrim * scale, PerOp: cm.PerOp * scale,
	}
}

// Package screen implements the integral screening machinery that gives
// the paper's HFX evaluation its "highly controllable" accuracy and its
// condensed-phase efficiency:
//
//   - Cauchy–Schwarz shell-pair norms Q_ab = √(ab|ab) provide the rigorous
//     bound |(ab|cd)| ≤ Q_ab·Q_cd;
//   - shell-pair extents discard pairs whose Gaussian overlap is
//     negligible at their separation (open-boundary real-space cutoff);
//   - density weighting tightens the quartet bound by the largest density
//     matrix element that would multiply the integral in the exchange
//     contraction.
//
// The surviving pair list is the unit of work for the paper's task
// decomposition (package hfx).
package screen

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// Pair is a surviving shell pair (A ≤ B) with its Schwarz norm and the
// Gaussian-product weight used by the cost model.
type Pair struct {
	A, B int
	// Q is the Cauchy–Schwarz norm √(ab|ab).
	Q float64
	// R is the inter-centre distance.
	R float64
}

// Options controls the screening pipeline.
type Options struct {
	// Threshold is the integral neglect threshold ε: a quartet (ab|cd) is
	// skipped when Q_ab·Q_cd < ε (optionally density-weighted).
	Threshold float64
	// ExtentEps sets the amplitude cutoff defining shell extents for the
	// distance pre-screen; pairs separated by more than the sum of their
	// extents are discarded before any integral is touched.
	ExtentEps float64
	// NoDistance disables the real-space pre-screen (for ablation).
	NoDistance bool
	// Threads is the number of worker goroutines of the pair sweep,
	// following the hfx.Options.Threads convention: zero (or negative)
	// means GOMAXPROCS. The result is identical for every worker count.
	Threads int
}

// DefaultOptions matches the accuracy target used throughout the paper's
// production runs (ε = 1e-8).
func DefaultOptions() Options {
	return Options{Threshold: 1e-8, ExtentEps: 1e-10}
}

// Result is the output of the screening pipeline.
type Result struct {
	// Pairs is the surviving shell-pair list, sorted by descending Q.
	Pairs []Pair
	// Stats describes how much work screening removed.
	Stats Stats
	// Opts echoes the options used.
	Opts Options
}

// Stats quantifies screening effectiveness and cost.
type Stats struct {
	// TotalPairs is the number of unique shell pairs before screening.
	TotalPairs int
	// DistanceSurvived is the count after the real-space pre-screen.
	DistanceSurvived int
	// SchwarzSurvived is the final pair count.
	SchwarzSurvived int
	// SchwarzWall is the wall time of the pair sweep: the distance test
	// of every pair and the Schwarz norm of each one that passes it.
	SchwarzWall time.Duration
	// PairWall is the wall time of the Schwarz test and the final sort.
	PairWall time.Duration
	// Threads is the worker count the pipeline actually used.
	Threads int
}

// Wall returns the total screening wall time.
func (s Stats) Wall() time.Duration { return s.SchwarzWall + s.PairWall }

// String renders the screening statistics.
func (s Stats) String() string {
	return fmt.Sprintf("pairs %d -> distance %d -> schwarz %d (%.1f%% survive)",
		s.TotalPairs, s.DistanceSurvived, s.SchwarzSurvived,
		100*float64(s.SchwarzSurvived)/math.Max(1, float64(s.TotalPairs)))
}

// BuildPairList runs the screening pipeline over a basis set in one sweep
// over shell rows: every pair takes the distance test, and only the pairs
// that pass it pay for their Schwarz norm (Engine.SchwarzNorm). Rows are
// claimed dynamically by opts.Threads workers (zero means GOMAXPROCS),
// because row a carries ns−a candidate pairs; the survivors are filtered
// in row order before a stable sort, so the output is identical for every
// worker count.
func BuildPairList(eng *integrals.Engine, opts Options) *Result {
	set := eng.Basis
	ns := set.NShells()
	res := &Result{Opts: opts}
	res.Stats.TotalPairs = ns * (ns + 1) / 2

	nw := opts.Threads
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > ns && ns > 0 {
		nw = ns
	}
	res.Stats.Threads = nw

	start := time.Now()
	rows := make([][]Pair, ns)
	var nextRow atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				a := int(nextRow.Add(1)) - 1
				if a >= ns {
					return
				}
				sa := &set.Shells[a]
				for b := a; b < ns; b++ {
					sb := &set.Shells[b]
					dx, dy, dz := sa.Center[0]-sb.Center[0], sa.Center[1]-sb.Center[1], sa.Center[2]-sb.Center[2]
					r := math.Sqrt(dx*dx + dy*dy + dz*dz)
					if !opts.NoDistance && r > sa.Extent(opts.ExtentEps)+sb.Extent(opts.ExtentEps) {
						continue
					}
					rows[a] = append(rows[a], Pair{A: a, B: b, Q: eng.SchwarzNorm(a, b), R: r})
				}
			}
		}()
	}
	wg.Wait()
	res.Stats.SchwarzWall = time.Since(start)

	// A pair survives the Schwarz screen when its norm could still
	// contribute against the *largest* partner pair norm in the system.
	// The largest norm among the distance survivors is the largest of all
	// pairs: Q_ab ≤ max(Q_aa, Q_bb) by Cauchy–Schwarz, and every diagonal
	// pair passes the distance test.
	start = time.Now()
	var qmax float64
	for _, row := range rows {
		res.Stats.DistanceSurvived += len(row)
		for _, p := range row {
			qmax = max(qmax, p.Q)
		}
	}
	for a, row := range rows {
		kept := row[:0]
		for _, p := range row {
			if p.Q*qmax >= opts.Threshold {
				kept = append(kept, p)
			}
		}
		rows[a] = kept
		res.Stats.SchwarzSurvived += len(kept)
	}
	res.Pairs = make([]Pair, 0, res.Stats.SchwarzSurvived)
	for _, row := range rows {
		res.Pairs = append(res.Pairs, row...)
	}
	// Descending Q: the HFX task generator consumes pairs most-significant
	// first so that the quartet loop can break out early. A stable sort
	// keeps the row order deterministic among equal norms.
	slices.SortStableFunc(res.Pairs, func(x, y Pair) int { return cmp.Compare(y.Q, x.Q) })
	res.Stats.PairWall = time.Since(start)
	return res
}

// QuartetSurvives applies the Schwarz product test for a quartet built
// from two surviving pairs.
func (r *Result) QuartetSurvives(p1, p2 Pair) bool {
	return p1.Q*p2.Q >= r.Opts.Threshold
}

// QuartetSurvivesWeighted applies the density-weighted Schwarz test
// |P|·Q_ab·Q_cd ≥ ε with pmax the relevant density-matrix magnitude.
func (r *Result) QuartetSurvivesWeighted(p1, p2 Pair, pmax float64) bool {
	return pmax*p1.Q*p2.Q >= r.Opts.Threshold
}

// MaxDensityAbsQuartet returns the density bound for the quartet (ab|cd)
// used by density-weighted screening: max |P_ij| over the seven distinct
// shell blocks that multiply (ab|cd) in J and K — the exchange coupling
// blocks (a,c) (a,d) (b,c) (b,d), through which K_{μν} += P_{λσ}(μλ|νσ)
// couples the bra and the ket, and the Coulomb-relevant blocks (a,b)
// (c,b) (c,d).
func MaxDensityAbsQuartet(set *basis.Set, p *linalg.Matrix, a, b, c, d int) float64 {
	var m float64
	blockMax := func(s1, s2 int) {
		sh1, sh2 := &set.Shells[s1], &set.Shells[s2]
		lo, hi := sh2.Index, sh2.Index+sh2.NFuncs()
		for i := sh1.Index; i < sh1.Index+sh1.NFuncs(); i++ {
			row := p.Row(i)
			for j := lo; j < hi; j++ {
				if v := math.Abs(row[j]); v > m {
					m = v
				}
			}
		}
	}
	// Exchange blocks: (a,c) (a,d) (b,c) (b,d).
	blockMax(a, c)
	blockMax(a, d)
	blockMax(b, c)
	blockMax(b, d)
	// Coulomb-relevant blocks: (a,b) (c,b) (c,d).
	blockMax(a, b)
	blockMax(c, b)
	blockMax(c, d)
	return m
}

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
	"fmt"
	"math"
	"runtime"
	"sort"
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
	// Threads is the number of worker goroutines used for the Schwarz
	// matrix and the pair sweep, following the hfx.Options.Threads
	// convention: zero (or negative) means GOMAXPROCS. The result is
	// identical for every worker count.
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
	// Q is the full shell-pair Schwarz matrix (kept for quartet tests).
	Q *linalg.Matrix
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
	// SchwarzWall is the wall time spent building the Schwarz matrix.
	SchwarzWall time.Duration
	// PairWall is the wall time of the pair sweep (distance + Schwarz
	// tests and the final sort).
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

// BuildPairList runs the screening pipeline over a basis set. The Schwarz
// matrix and the pair sweep are parallelised over shell rows across
// opts.Threads workers (zero means GOMAXPROCS); rows are claimed
// dynamically because row a carries ns−a candidate pairs, so static
// striding would leave the worker holding the early rows far behind.
// Per-row results are concatenated in row order before the final sort, so
// the output is identical for every worker count.
func BuildPairList(eng *integrals.Engine, opts Options) *Result {
	set := eng.Basis
	ns := set.NShells()
	res := &Result{Opts: opts}

	nw := opts.Threads
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > ns && ns > 0 {
		nw = ns
	}
	res.Stats.Threads = nw

	start := time.Now()
	res.Q = eng.SchwarzMatrixThreads(opts.Threads)
	res.Stats.SchwarzWall = time.Since(start)

	start = time.Now()
	dist := func(a, b *basis.Shell) float64 {
		d := [3]float64{
			a.Center[0] - b.Center[0],
			a.Center[1] - b.Center[1],
			a.Center[2] - b.Center[2],
		}
		return math.Sqrt(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
	}

	// The pair survives the Schwarz screen when its norm could still
	// contribute against the *largest* partner pair norm in the system.
	var qmax float64
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			if v := res.Q.At(a, b); v > qmax {
				qmax = v
			}
		}
	}

	rowPairs := make([][]Pair, ns)
	var distSurvived, schwarzSurvived atomic.Int64
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
				var ds, ss int64
				for b := a; b < ns; b++ {
					sb := &set.Shells[b]
					r := dist(sa, sb)
					if !opts.NoDistance {
						if r > sa.Extent(opts.ExtentEps)+sb.Extent(opts.ExtentEps) {
							continue
						}
					}
					ds++
					q := res.Q.At(a, b)
					if q*qmax < opts.Threshold {
						continue
					}
					ss++
					rowPairs[a] = append(rowPairs[a], Pair{A: a, B: b, Q: q, R: r})
				}
				distSurvived.Add(ds)
				schwarzSurvived.Add(ss)
			}
		}()
	}
	wg.Wait()

	res.Stats.TotalPairs = ns * (ns + 1) / 2
	res.Stats.DistanceSurvived = int(distSurvived.Load())
	res.Stats.SchwarzSurvived = int(schwarzSurvived.Load())
	res.Pairs = make([]Pair, 0, res.Stats.SchwarzSurvived)
	for a := 0; a < ns; a++ {
		res.Pairs = append(res.Pairs, rowPairs[a]...)
	}
	// Descending Q: the HFX task generator consumes pairs most-significant
	// first so that the quartet loop can break out early. SliceStable keeps
	// the row-ordered concatenation deterministic among equal norms.
	sort.SliceStable(res.Pairs, func(i, j int) bool { return res.Pairs[i].Q > res.Pairs[j].Q })
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

// MaxDensityAbs returns max |P_ij| over the blocks coupling two shell
// pairs in the exchange contraction; used for density-weighted screening.
// The exchange term K_{μν} += P_{λσ}(μλ|νσ) couples the bra pair (μλ) and
// ket pair (νσ) through P on the λσ positions, so the four cross blocks
// are examined.
func MaxDensityAbs(set *basis.Set, p *linalg.Matrix, a, b, c, d int) float64 {
	blockMax := func(s1, s2 int) float64 {
		sh1, sh2 := &set.Shells[s1], &set.Shells[s2]
		var m float64
		for i := sh1.Index; i < sh1.Index+sh1.NFuncs(); i++ {
			row := p.Row(i)
			for j := sh2.Index; j < sh2.Index+sh2.NFuncs(); j++ {
				if v := math.Abs(row[j]); v > m {
					m = v
				}
			}
		}
		return m
	}
	m := blockMax(a, c)
	for _, bm := range []float64{blockMax(a, d), blockMax(b, c), blockMax(b, d)} {
		if bm > m {
			m = bm
		}
	}
	return m
}

// MaxDensityAbsQuartet returns the fused density bound for the quartet
// (ab|cd): the maximum of MaxDensityAbs(a,b,c,d) (exchange coupling
// blocks) and MaxDensityAbs(a,c,b,d) (the Coulomb-relevant bra/ket blocks)
// computed in one pass. The union of the two four-block scans is seven
// distinct blocks — (a,c) appears in both — so the fused form does the
// same work as 1¾ calls instead of 2, and saves the call overhead in the
// screening hot loop.
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
	// MaxDensityAbs(a,b,c,d) blocks: (a,c) (a,d) (b,c) (b,d).
	blockMax(a, c)
	blockMax(a, d)
	blockMax(b, c)
	blockMax(b, d)
	// MaxDensityAbs(a,c,b,d) adds: (a,b) (c,b) (c,d); (a,d) is shared.
	blockMax(a, b)
	blockMax(c, b)
	blockMax(c, d)
	return m
}

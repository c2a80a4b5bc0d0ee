package integrals

import (
	"math"
	"math/rand"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
)

// primView is the one-primitive view of a table that buildPairData bounds:
// slices of the table, no copy.
func primView(pd *pairData, i int) *pairData {
	return &pairData{
		l: pd.l, ncomp: pd.ncomp,
		prims: pd.prims[i : i+1],
		off:   pd.off[i*pd.ncomp : (i+1)*pd.ncomp+1],
		hidx:  pd.hidx, val: pd.val,
	}
}

// TestPrimSchwarzFactorsBound: over random s/p/d shell pairs at general,
// shared and coincident centres, the tables are stored by descending q,
// qtail is the suffix sum, the stored order is a permutation of the
// contraction order that leaves a one-primitive pair where it was, and q is
// an upper bound — every element of the primitive quartet block (i|j) is
// at most q_i·q_j in magnitude.
func TestPrimSchwarzFactorsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewScratch()
	centre := func() chem.Vec3 {
		return chem.Vec3{4*rng.Float64() - 2, 4*rng.Float64() - 2, 4*rng.Float64() - 2}
	}
	checked := 0
	for trial := 0; trial < 120; trial++ {
		var sh [4]basis.Shell
		c := [4]chem.Vec3{centre(), centre(), centre(), centre()}
		if trial%3 == 1 {
			c[1], c[3] = c[0], c[2]
		}
		for i := range sh {
			sh[i] = randShell(rng, rng.Intn(3), c[i])
		}
		bra, ket := buildPairData(&sh[0], &sh[1]), buildPairData(&sh[2], &sh[3])
		for _, pd := range []*pairData{bra, ket} {
			seen := make([]bool, len(pd.prims))
			for i, q := range pd.q {
				if i > 0 && q > pd.q[i-1] {
					t.Fatalf("trial %d: q not descending: %v", trial, pd.q)
				}
				if d := pd.qtail[i] - pd.qtail[i+1] - q; math.Abs(d) > 1e-14*pd.qtail[0] {
					t.Fatalf("trial %d: qtail[%d] is not the suffix sum", trial, i)
				}
				if seen[pd.order[i]] {
					t.Fatalf("trial %d: order %v is not a permutation", trial, pd.order)
				}
				seen[pd.order[i]] = true
			}
			if pd.qtail[len(pd.q)] != 0 {
				t.Fatalf("trial %d: qtail does not end at 0", trial)
			}
		}
		// The stored primitive i is contraction-order primitive order[i].
		for i, from := range bra.order {
			ia, ib := int(from)/len(sh[1].Exps), int(from)%len(sh[1].Exps)
			if p := sh[0].Exps[ia] + sh[1].Exps[ib]; bra.prims[i].p != p {
				t.Fatalf("trial %d: stored primitive %d has p = %g, contraction order says %g", trial, i, bra.prims[i].p, p)
			}
		}
		blk := make([]float64, bra.ncomp*ket.ncomp)
		for i := range bra.prims {
			for j := range ket.prims {
				eriQuartet(primView(bra, i), primView(ket, j), blk, false, nil, s)
				bound := bra.q[i] * ket.q[j] * (1 + 1e-12)
				for k, v := range blk {
					if math.Abs(v) > bound {
						t.Fatalf("trial %d prim (%d|%d) [%d]: |%.6g| exceeds q_i·q_j = %.6g", trial, i, j, k, v, bound)
					}
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d primitive quartets checked", checked)
	}

	one := basis.Shell{L: 1, Center: chem.Vec3{0.1, 0.2, 0.3}, Exps: []float64{0.8}, Coefs: []float64{1}}
	pd := buildPairData(&one, &one)
	if len(pd.prims) != 1 || pd.order[0] != 0 || pd.off[0] != 0 || int(pd.off[pd.ncomp]) != len(pd.val) {
		t.Fatalf("one-primitive pair was rearranged: %+v", pd)
	}
}

// TestPrimCutIsTheZeroCutKernel: the cut-taking entry point at cut 0 is the
// exact entry point, bit for bit, in both orientations; and under a cut
// every element of every block stays within the tail the kernel reports
// for that block, which with cut = ε over the quartet's primitive count is
// below ε.
func TestPrimCutIsTheZeroCutKernel(t *testing.T) {
	for _, sys := range []struct {
		basis string
		mol   *chem.Molecule
	}{
		{"STO-3G", chem.WaterCluster(2, 1)},
		{"6-31G*", chem.Water()},
	} {
		e := NewEngine(basis.MustBuild(sys.basis, sys.mol))
		ns := e.Basis.NShells()
		exact := make([]float64, e.MaxERIBufLen())
		got := make([]float64, e.MaxERIBufLen())
		s := NewScratch()
		for _, eps := range []float64{0, 1e-6, 1e-8, 1e-10} {
			var total PrimStats
			var worst float64
			for a := 0; a < ns; a++ {
				for b := 0; b <= a; b++ {
					for c := 0; c < ns; c++ {
						d := (a + c) % ns
						n := 1
						for _, sh := range [4]int{a, b, c, d} {
							n *= e.Basis.Shells[sh].NFuncs()
						}
						nprim := len(e.pairDataFor(a, b).prims) * len(e.pairDataFor(c, d).prims)
						e.ERIShellScratch(a, b, c, d, exact[:n], false, nil, s)
						s.TakePrimStats()
						e.ERIShellCut(a, b, c, d, got[:n], eps/float64(nprim), false, nil, s)
						st := s.TakePrimStats()
						if st.Evaluated+st.Skipped != int64(nprim) {
							t.Fatalf("%s (%d %d|%d %d): %d + %d primitive quartets accounted, the quartet has %d",
								sys.basis, a, b, c, d, st.Evaluated, st.Skipped, nprim)
						}
						if !(st.TailBound <= eps) {
							t.Fatalf("%s (%d %d|%d %d): tail %g exceeds ε = %g", sys.basis, a, b, c, d, st.TailBound, eps)
						}
						for i := range got[:n] {
							if eps == 0 {
								if math.Float64bits(got[i]) != math.Float64bits(exact[i]) {
									t.Fatalf("%s (%d %d|%d %d)[%d]: cut 0 gives %.17g, the exact entry point %.17g",
										sys.basis, a, b, c, d, i, got[i], exact[i])
								}
								continue
							}
							// 1e-15: the two sums run over different term lists.
							if diff := math.Abs(got[i] - exact[i]); diff > st.TailBound+1e-15 {
								t.Fatalf("%s ε=%g (%d %d|%d %d)[%d]: |Δ| = %g exceeds the reported tail %g",
									sys.basis, eps, a, b, c, d, i, diff, st.TailBound)
							} else if diff > worst {
								worst = diff
							}
						}
						total.Add(st)
					}
				}
			}
			switch {
			case eps == 0 && (total.Skipped != 0 || total.TailBound != 0):
				t.Fatalf("%s: cut 0 skipped %d primitive quartets", sys.basis, total.Skipped)
			case eps > 0 && total.Skipped == 0:
				t.Fatalf("%s ε=%g: nothing skipped", sys.basis, eps)
			}
			t.Logf("%s ε=%g: skip ratio %.3f, Σ tail %.3g, worst |Δ| %.3g", sys.basis, eps, total.SkipRatio(), total.TailBound, worst)
		}
	}
}

// TestPrimSurvivorsIsTheKernelsCount: what a cost model reads off two
// pairs' factor lists is what the kernel evaluates at the same cut — per
// primitive quartet, per bra and per ket primitive pair — for every shell
// quartet of two bases, cut 0 included, in either orientation.
func TestPrimSurvivorsIsTheKernelsCount(t *testing.T) {
	for _, basisName := range []string{"STO-3G", "6-31G*"} {
		e := NewEngine(basis.MustBuild(basisName, chem.WaterCluster(2, 1)))
		ns := e.Basis.NShells()
		out := make([]float64, e.MaxERIBufLen())
		s := NewScratch()
		for _, eps := range []float64{0, 1e-6, 1e-10} {
			partial := 0
			for a := 0; a < ns; a++ {
				for b := 0; b <= a; b++ {
					for c := 0; c < ns; c++ {
						d := (a + 2*c) % ns
						bq, kq := e.PrimSchwarz(a, b), e.PrimSchwarz(c, d)
						n := len(bq) * len(kq)
						cut := eps / float64(n)
						nq, nb, nk := PrimSurvivors(bq, kq, cut)
						e.ERIShellCut(a, b, c, d, out, cut, false, nil, s)
						if st := s.TakePrimStats(); st.Evaluated != int64(nq) || st.Skipped != int64(n-nq) {
							t.Fatalf("%s ε=%g (%d %d|%d %d): kernel evaluated %d of %d, PrimSurvivors says %d",
								basisName, eps, a, b, c, d, st.Evaluated, n, nq)
						}
						wb, wk := 0, 0
						for _, q := range bq {
							if q*kq[0] >= cut {
								wb++
							}
						}
						for _, q := range kq {
							if q*bq[0] >= cut {
								wk++
							}
						}
						if nb != wb || nk != wk {
							t.Fatalf("%s ε=%g (%d %d|%d %d): %d bra and %d ket primitives keep a quartet, want %d and %d",
								basisName, eps, a, b, c, d, nb, nk, wb, wk)
						}
						if rq, rk, rb := PrimSurvivors(kq, bq, cut); rq != nq || rb != nb || rk != nk {
							t.Fatalf("%s ε=%g (%d %d|%d %d): the count is not symmetric", basisName, eps, a, b, c, d)
						}
						if nq > 0 && nq < n {
							partial++
						}
					}
				}
			}
			if (eps > 0) != (partial > 0) {
				t.Fatalf("%s ε=%g: %d quartets were cut partially", basisName, eps, partial)
			}
		}
	}
}

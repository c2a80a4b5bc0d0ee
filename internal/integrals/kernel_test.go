package integrals

import (
	"math"
	"math/rand"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/boys"
	"hfxmd/internal/chem"
	"hfxmd/internal/qpx"
)

// The reference below is the kernel this package shipped before the
// Hermite-space core: Hermite term lists rebuilt from the E tables for
// every primitive quartet, contracted in a bra-terms × ket-terms triple
// loop against an R tensor seeded with math.Pow. hfx.ReferenceJK goes
// through Engine.ERIShell, i.e. through eriQuartet itself, so this is the
// only independent check of the contraction.

type refTerm struct {
	t, u, v int
	val     float64
}

func refHermList(ets *[3]*eTable, cA, cB CartComponent, scale float64, phase bool) []refTerm {
	var dst []refTerm
	for t := 0; t <= cA.X+cB.X; t++ {
		for u := 0; u <= cA.Y+cB.Y; u++ {
			for v := 0; v <= cA.Z+cB.Z; v++ {
				val := scale * ets[0].at(cA.X, cB.X, t) * ets[1].at(cA.Y, cB.Y, u) * ets[2].at(cA.Z, cB.Z, v)
				if phase && (t+u+v)&1 == 1 {
					val = -val
				}
				dst = append(dst, refTerm{t, u, v, val})
			}
		}
	}
	return dst
}

func refRTensor(ltot int, pc [3]float64, p float64, fn []float64) []float64 {
	n := ltot + 1
	idx := func(t, u, v int) int { return (t*n+u)*n + v }
	var cur []float64
	for m := ltot; m >= 0; m-- {
		up := cur
		cur = make([]float64, n*n*n)
		cur[0] = math.Pow(-2*p, float64(m)) * fn[m]
		for l := 1; l <= ltot-m; l++ {
			for t := l; t >= 0; t-- {
				for u := l - t; u >= 0; u-- {
					v := l - t - u
					var val float64
					switch {
					case t > 0:
						val = pc[0] * up[idx(t-1, u, v)]
						if t > 1 {
							val += float64(t-1) * up[idx(t-2, u, v)]
						}
					case u > 0:
						val = pc[1] * up[idx(t, u-1, v)]
						if u > 1 {
							val += float64(u-1) * up[idx(t, u-2, v)]
						}
					default:
						val = pc[2] * up[idx(t, u, v-1)]
						if v > 1 {
							val += float64(v-1) * up[idx(t, u, v-2)]
						}
					}
					cur[idx(t, u, v)] = val
				}
			}
		}
	}
	return cur
}

// genericRTensor is the loop-nest form of the recurrence the R programs
// unroll: seeds by running power, one ping-pong buffer per parity of the
// auxiliary order, each triple lowered along its first nonzero axis. A
// triple at 1 along its axis has no second term: its weight is zero and
// its second source aliases the first. The result is in cube layout.
func genericRTensor(ltot int, pc [3]float64, f []float64, p, scale float64) []float64 {
	n := ltot + 1
	su, st := n, n*n
	seed := make([]float64, n)
	for m := range seed {
		seed[m] = f[m] * scale
		scale *= -2 * p
	}
	bufs := [2][]float64{make([]float64, st*n), make([]float64, st*n)}
	var cur []float64
	for m := ltot; m >= 0; m-- {
		up := cur
		cur = bufs[m&1]
		cur[0] = seed[m]
		deg := ltot - m
		for v := 1; v <= deg; v++ {
			cur[v] = pc[2]*up[v-1] + float64(v-1)*up[max(v-2, 0)]
		}
		for u := 1; u <= deg; u++ {
			o, w := u*su, float64(u-1)
			o1 := o - su
			o2 := max(o1-su, 0)
			for v := 0; v <= deg-u; v++ {
				cur[o+v] = pc[1]*up[o1+v] + w*up[o2+v]
			}
		}
		for t := 1; t <= deg; t++ {
			w := float64(t - 1)
			for u := 0; u <= deg-t; u++ {
				o := t*st + u*su
				o1 := o - st
				o2 := max(o1-st, u*su)
				for v := 0; v <= deg-t-u; v++ {
					cur[o+v] = pc[0]*up[o1+v] + w*up[o2+v]
				}
			}
		}
	}
	return cur
}

// TestRProgramsMatchGenericRecurrence: for every total angular momentum
// the straight-line forms (L ≤ 2) and the step tables (L ≥ 3) reproduce
// the loop-nest recurrence on every live entry, value for value, at
// random separations and at separations along one axis (where two of the
// three X factors are exactly zero).
func TestRProgramsMatchGenericRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for l := 0; l <= maxRL; l++ {
		n := l + 1
		w := make([]float64, rSize(l))
		f := make([]float64, n)
		for trial := 0; trial < 8; trial++ {
			pc := [3]float64{4*rng.Float64() - 2, 4*rng.Float64() - 2, 4*rng.Float64() - 2}
			if trial >= 4 {
				axis := trial % 3
				pc = [3]float64{}
				pc[axis] = 4*rng.Float64() - 2
			}
			p, scale := 0.1+3*rng.Float64(), 0.5+rng.Float64()
			boys.Eval(l, p*(pc[0]*pc[0]+pc[1]*pc[1]+pc[2]*pc[2]), f)
			want := genericRTensor(l, pc, f, p, scale)
			for i := range w {
				w[i] = math.NaN() // a live entry the program skips must show
			}
			buildR(l, f, p, scale, pc[0], pc[1], pc[2], w)
			for h := 0; h < hermCount[l]; h++ {
				tuv := hermTUV[h]
				if hermPos(int(tuv[0]), int(tuv[1]), int(tuv[2])) != h {
					t.Fatalf("hermPos%v != %d", tuv, h)
				}
				o := (int(tuv[0])*n+int(tuv[1]))*n + int(tuv[2])
				if w[o] != want[o] {
					t.Fatalf("L=%d X=%v R_%v: program %.17g, recurrence %.17g", l, pc, tuv, w[o], want[o])
				}
			}
		}
	}
}

// refERI returns the (ab|cd) block by the naive per-primitive-quartet
// term-list contraction.
func refERI(sa, sb, sc, sd *basis.Shell) []float64 {
	ca, cb, cc, cd := Components(sa.L), Components(sb.L), Components(sc.L), Components(sd.L)
	out := make([]float64, len(ca)*len(cb)*len(cc)*len(cd))
	ltot := sa.L + sb.L + sc.L + sd.L
	n := ltot + 1
	fn := make([]float64, n)
	tables := func(s1, s2 *basis.Shell, e1, e2 float64) (ets [3]*eTable, px [3]float64) {
		for d := 0; d < 3; d++ {
			ets[d] = new(eTable)
			ets[d].build(s1.L, s2.L, s1.Center[d]-s2.Center[d], e1, e2)
			px[d] = (e1*s1.Center[d] + e2*s2.Center[d]) / (e1 + e2)
		}
		return
	}
	for ia, ea := range sa.Exps {
		for ib, eb := range sb.Exps {
			braE, pp := tables(sa, sb, ea, eb)
			for ic, ec := range sc.Exps {
				for id, ed := range sd.Exps {
					ketE, qq := tables(sc, sd, ec, ed)
					p, q := ea+eb, ec+ed
					alpha := p * q / (p + q)
					pq := [3]float64{pp[0] - qq[0], pp[1] - qq[1], pp[2] - qq[2]}
					boys.Eval(ltot, alpha*(pq[0]*pq[0]+pq[1]*pq[1]+pq[2]*pq[2]), fn)
					r := refRTensor(ltot, pq, alpha, fn)
					pref := twoPi52 / (p * q * math.Sqrt(p+q)) *
						sa.Coefs[ia] * sb.Coefs[ib] * sc.Coefs[ic] * sd.Coefs[id]
					o := 0
					for _, cA := range ca {
						for _, cB := range cb {
							bra := refHermList(&braE, cA, cB, pref*componentNorm(cA)*componentNorm(cB), false)
							for _, cC := range cc {
								for _, cD := range cd {
									ket := refHermList(&ketE, cC, cD, componentNorm(cC)*componentNorm(cD), true)
									var v float64
									for _, b := range bra {
										for _, k := range ket {
											v += b.val * k.val * r[((b.t+k.t)*n+(b.u+k.u))*n+(b.v+k.v)]
										}
									}
									out[o] += v
									o++
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// randShell draws a shell of angular momentum l with 1–3 primitives at c.
func randShell(rng *rand.Rand, l int, c chem.Vec3) basis.Shell {
	n := 1 + rng.Intn(3)
	sh := basis.Shell{L: l, Center: c}
	for i := 0; i < n; i++ {
		sh.Exps = append(sh.Exps, 0.1*math.Pow(300, rng.Float64()))
		sh.Coefs = append(sh.Coefs, 0.2+rng.Float64())
	}
	return sh
}

// kernelBlock evaluates (ab|cd) through the production core.
func kernelBlock(sa, sb, sc, sd *basis.Shell, vector bool, stats *qpx.Stats, s *Scratch) []float64 {
	out := make([]float64, sa.NFuncs()*sb.NFuncs()*sc.NFuncs()*sd.NFuncs())
	eriQuartet(buildPairData(sa, sb), buildPairData(sc, sd), out, vector, stats, s)
	return out
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// TestKernelMatchesNaiveReference sweeps every class ssss…dddd with mixed
// contraction lengths over random, pairwise-coincident and all-coincident
// centres: the Hermite-space core must agree with the naive contraction
// to 1e-12 of the block's largest element, and lane accounting must not
// change a bit of it.
func TestKernelMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	var stats qpx.Stats
	randCentre := func() chem.Vec3 {
		return chem.Vec3{4*rng.Float64() - 2, 4*rng.Float64() - 2, 4*rng.Float64() - 2}
	}
	for cls := 0; cls < 81; cls++ {
		l := [4]int{cls / 27, cls / 9 % 3, cls / 3 % 3, cls % 3}
		for geom := 0; geom < 3; geom++ {
			var c [4]chem.Vec3
			switch geom {
			case 0: // four distinct centres
				c = [4]chem.Vec3{randCentre(), randCentre(), randCentre(), randCentre()}
			case 1: // bra on one atom, ket on another
				c[0], c[2] = randCentre(), randCentre()
				c[1], c[3] = c[0], c[2]
			case 2: // one-centre integral: T = 0 and half the terms vanish
				c[0] = randCentre()
				c[1], c[2], c[3] = c[0], c[0], c[0]
			}
			var sh [4]basis.Shell
			for i := range sh {
				sh[i] = randShell(rng, l[i], c[i])
			}
			want := refERI(&sh[0], &sh[1], &sh[2], &sh[3])
			got := kernelBlock(&sh[0], &sh[1], &sh[2], &sh[3], false, nil, s)
			vec := kernelBlock(&sh[0], &sh[1], &sh[2], &sh[3], true, &stats, s)
			tol := 1e-12 * maxAbs(want)
			for i := range want {
				if d := math.Abs(got[i] - want[i]); !(d <= tol) {
					t.Fatalf("class %v geom %d [%d]: core %.17g, reference %.17g (|Δ| %.3g > %.3g)",
						l, geom, i, got[i], want[i], d, tol)
				}
				if math.Float64bits(vec[i]) != math.Float64bits(got[i]) {
					t.Fatalf("class %v geom %d [%d]: vector %.17g != scalar %.17g", l, geom, i, vec[i], got[i])
				}
			}
		}
	}
	if stats.Batches() == 0 {
		t.Fatal("vector mode recorded no Boys batches")
	}
}

// TestKernelPermutationSymmetryD checks (ab|cd) = (ba|cd) = (ab|dc) =
// (cd|ab) on contracted d shells at four distinct centres.
func TestKernelPermutationSymmetryD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	var sh [4]basis.Shell
	for i := range sh {
		sh[i] = randShell(rng, 2, chem.Vec3{3 * rng.Float64(), 3 * rng.Float64(), 3 * rng.Float64()})
	}
	const n = 6
	base := kernelBlock(&sh[0], &sh[1], &sh[2], &sh[3], false, nil, s)
	tol := 1e-12 * maxAbs(base)
	perms := []struct {
		name string
		p    [4]int // shell order of the permuted block
	}{
		{"(ba|cd)", [4]int{1, 0, 2, 3}},
		{"(ab|dc)", [4]int{0, 1, 3, 2}},
		{"(cd|ab)", [4]int{2, 3, 0, 1}},
	}
	for _, pm := range perms {
		blk := kernelBlock(&sh[pm.p[0]], &sh[pm.p[1]], &sh[pm.p[2]], &sh[pm.p[3]], false, nil, s)
		var f [4]int // component index per original shell
		for f[0] = 0; f[0] < n; f[0]++ {
			for f[1] = 0; f[1] < n; f[1]++ {
				for f[2] = 0; f[2] < n; f[2]++ {
					for f[3] = 0; f[3] < n; f[3]++ {
						v1 := base[((f[0]*n+f[1])*n+f[2])*n+f[3]]
						v2 := blk[((f[pm.p[0]]*n+f[pm.p[1]])*n+f[pm.p[2]])*n+f[pm.p[3]]]
						if math.Abs(v1-v2) > tol {
							t.Fatalf("(ab|cd) != %s at %v: %.17g vs %.17g", pm.name, f, v1, v2)
						}
					}
				}
			}
		}
	}
}

// TestERIKernelSteadyStateAllocs: on a warm Scratch the kernel performs
// no heap allocation with or without lane accounting, under a primitive
// cut and in either orientation, and the lane accounting of a
// gathered list reaches the shared Stats in one flush.
func TestERIKernelSteadyStateAllocs(t *testing.T) {
	e := NewEngine(basis.MustBuild("6-31G*", chem.Water()))
	ns := e.Basis.NShells()
	out := make([]float64, e.MaxERIBufLen())
	s := NewScratch()
	var stats qpx.Stats
	sweep := func() {
		for a := 0; a < ns; a++ {
			for c := 0; c < ns; c++ {
				e.ERIShellScratch(a, (a+1)%ns, c, (c+2)%ns, out, false, nil, s)
				e.ERIShellScratch(a, (a+1)%ns, c, (c+2)%ns, out, true, &stats, s)
				e.ERIShellCut(a, (a+1)%ns, c, (c+2)%ns, out, 1e-10, false, nil, s)
			}
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("warm ERI kernel allocates %.1f objects per sweep, want 0", allocs)
	}
	if u := stats.Utilization(); u <= 0.75 || u > 1 {
		t.Fatalf("lane utilisation %g: Boys must be gathered over the whole primitive list", u)
	}
}

// TestQuartetOpsCountsTermTables: the operation count handed to the cost
// model is the size of the real term tables at a general geometry, in the
// orientation the kernel takes — the cheaper of the two.
func TestQuartetOpsCountsTermTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for la := 0; la <= 2; la++ {
		for lb := 0; lb <= 2; lb++ {
			sa := randShell(rng, la, chem.Vec3{0.3, -0.2, 0.9})
			sb := randShell(rng, lb, chem.Vec3{-0.7, 0.5, 0.1})
			pd := buildPairData(&sa, &sb)
			if got, want := len(pd.val), len(pd.prims)*pairTerms[la][lb]; got != want {
				t.Fatalf("(%d %d| pair: %d terms, pairTerms predicts %d", la, lb, got, want)
			}
			if pd.terms != pairTerms[la][lb] {
				t.Fatalf("(%d %d| pair carries terms = %d, want %d", la, lb, pd.terms, pairTerms[la][lb])
			}
			const nbra, nket = 9, 9
			perPrim, perBraPrim, swapped := QuartetOps(ClassOf(la, lb, nbra), ClassOf(1, 0, nket))
			l := la + lb + 1
			r := (l + 1) * (l + 2) * (l + 3) * (l + 4) / 24
			asIs := [2]int{r + pairTerms[1][0]*hermCount[la+lb], 3 * pairTerms[la][lb]}
			turned := [2]int{r + pairTerms[la][lb]*hermCount[1], NCart(la) * NCart(lb) * pairTerms[1][0]}
			want := asIs
			if swapped {
				want = turned
			}
			if perPrim != want[0] || perBraPrim != want[1] {
				t.Fatalf("QuartetOps(%d,%d,1,0) = %d, %d (swapped %v), want %v", la, lb, perPrim, perBraPrim, swapped, want)
			}
			total := func(o [2]int) int { return nbra*nket*o[0] + nbra*o[1] }
			if other := map[bool][2]int{false: turned, true: asIs}[swapped]; total(want) > total(other) {
				t.Fatalf("QuartetOps(%d,%d,1,0) took the dearer orientation: %d ops against %d", la, lb, total(want), total(other))
			}
			// The roadmap's example: (ss|pp) is evaluated as (pp|ss).
			if _, _, sw := QuartetOps(ClassOf(0, 0, nbra), ClassOf(1, 1, nket)); !sw {
				t.Fatal("(ss|pp) must be evaluated as (pp|ss)")
			}
			if _, _, sw := QuartetOps(ClassOf(1, 1, nbra), ClassOf(0, 0, nket)); sw {
				t.Fatal("(pp|ss) must be evaluated as it stands")
			}
		}
	}
	if a, b, _ := QuartetOps(ClassOf(0, 0, 9), ClassOf(0, 0, 9)); a != 0 || b != 0 {
		t.Fatalf("ssss takes the closed form, got %d, %d ops", a, b)
	}
}

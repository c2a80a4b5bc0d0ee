package hfx

import (
	"math"
	"slices"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// eriPerms are the eight index permutations of a quartet (a,b,c,d) that
// leave (ab|cd) invariant: position k of an image takes slot perm[k].
var eriPerms = [8][4]int{
	{0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {1, 0, 3, 2},
	{2, 3, 0, 1}, {2, 3, 1, 0}, {3, 2, 0, 1}, {3, 2, 1, 0},
}

// scatterImages is the eight-image form of the J/K contraction, the oracle
// of digest: every distinct shell-level image of the quartet q adds, for
// each integral v of its block, J[g0,g1] += P[g2,g3]·v and
// K[g0,g2] += P[g1,g3]·v, g the image's function indices.
func scatterImages(set *basis.Set, q [4]int, blk []float64, p, j, k *linalg.Matrix) {
	var seen [][4]int
	for _, perm := range eriPerms {
		img := [4]int{q[perm[0]], q[perm[1]], q[perm[2]], q[perm[3]]}
		if slices.Contains(seen, img) {
			continue
		}
		seen = append(seen, img)
		var sh [4]*basis.Shell
		for s := range sh {
			sh[s] = &set.Shells[q[s]]
		}
		i := 0
		for f0 := 0; f0 < sh[0].NFuncs(); f0++ {
			for f1 := 0; f1 < sh[1].NFuncs(); f1++ {
				for f2 := 0; f2 < sh[2].NFuncs(); f2++ {
					for f3 := 0; f3 < sh[3].NFuncs(); f3++ {
						g := [4]int{sh[0].Index + f0, sh[1].Index + f1, sh[2].Index + f2, sh[3].Index + f3}
						v := blk[i]
						i++
						j.Add(g[perm[0]], g[perm[1]], p.At(g[perm[2]], g[perm[3]])*v)
						k.Add(g[perm[0]], g[perm[2]], p.At(g[perm[1]], g[perm[3]])*v)
					}
				}
			}
		}
	}
}

// TestDigestionMatchesPermutationOracle holds digest plus the leaf's
// symmetrization against the eight-image scatter, quartet by quartet, over
// every canonical quartet of water in 6-31G* — s, p and d shells in all six
// symmetry classes (none, a=b, c=d, (ab)=(cd), a=b with c=d, a=b=c=d) — for
// two random symmetric densities, to 1e-14 of the largest element.
func TestDigestionMatchesPermutationOracle(t *testing.T) {
	eng := integrals.NewEngine(basis.MustBuild("6-31G*", chem.Water()))
	set := eng.Basis
	n, ns := set.NBasis, set.NShells()
	var pairs [][2]int
	for a := 0; a < ns; a++ {
		for b := a; b < ns; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	blk := make([]float64, eng.MaxERIBufLen())
	j, k := linalg.NewSquare(n), linalg.NewSquare(n)
	jr, kr := linalg.NewSquare(n), linalg.NewSquare(n)
	// seen[class][L] marks a class checked with a shell of angular momentum L.
	var seen [6][3]bool
	for _, seed := range []int64{3, 4} {
		p := testDensity(n, seed)
		for bi, bra := range pairs {
			for _, ket := range pairs[:bi+1] {
				q := [4]int{bra[0], bra[1], ket[0], ket[1]}
				blk := blk[:eriBlockLen(set, q[0], q[1], q[2], q[3])]
				eng.ERIShell(q[0], q[1], q[2], q[3], blk, nil)
				j.Zero()
				k.Zero()
				digest(set, q[0], q[1], q[2], q[3], blk, p, j, k)
				j.Symmetrize()
				k.Symmetrize()
				jr.Zero()
				kr.Zero()
				scatterImages(set, q, blk, p, jr, kr)
				for _, m := range [][2]*linalg.Matrix{{j, jr}, {k, kr}} {
					var scale float64
					for _, v := range m[1].Data {
						scale = math.Max(scale, math.Abs(v))
					}
					if d := linalg.MaxAbsDiff(m[0], m[1]); d > 1e-14*scale {
						t.Fatalf("quartet %v: digest differs from the eight images by %g (largest element %g)", q, d, scale)
					}
				}
				class := 0
				switch ab, cd, same := q[0] == q[1], q[2] == q[3], bra == ket; {
				case same && ab:
					class = 5
				case ab && cd:
					class = 4
				case same:
					class = 3
				case cd:
					class = 2
				case ab:
					class = 1
				}
				for _, s := range q {
					seen[class][set.Shells[s].L] = true
				}
			}
		}
	}
	for class, ls := range seen {
		for l, ok := range ls {
			if !ok {
				t.Errorf("symmetry class %d never checked with an L=%d shell", class, l)
			}
		}
	}
}

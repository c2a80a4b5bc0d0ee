package integrals

import (
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
)

// classQuartets returns up to 16 spread-out shell quartets of (H2O)2 /
// STO-3G whose angular momenta are (la lb|lc ld).
func classQuartets(e *Engine, la, lb, lc, ld int) [][4]int {
	var byL [2][]int
	for i, sh := range e.Basis.Shells {
		byL[sh.L] = append(byL[sh.L], i)
	}
	pick := func(l, k int) int { return byL[l][k%len(byL[l])] }
	qs := make([][4]int, 16)
	for q := range qs {
		qs[q] = [4]int{pick(la, q), pick(lb, q/2+1), pick(lc, q/3), pick(ld, q/5+2)}
	}
	return qs
}

var eriClasses = []struct {
	name string
	l    [4]int
}{
	{"ssss", [4]int{0, 0, 0, 0}},
	{"sssp", [4]int{0, 0, 0, 1}},
	{"sspp", [4]int{0, 0, 1, 1}},
	{"spsp", [4]int{0, 1, 0, 1}},
	{"sppp", [4]int{0, 1, 1, 1}},
	{"pppp", [4]int{1, 1, 1, 1}},
}

// BenchmarkERIClass times the kernel per angular-momentum class on a warm
// Scratch and reports ns per primitive quartet next to ns per shell
// quartet (ns/op); allocs/op must read 0.
func BenchmarkERIClass(b *testing.B) {
	e := NewEngine(basis.MustBuild("STO-3G", chem.WaterCluster(2, 1)))
	out := make([]float64, e.MaxERIBufLen())
	scratch := NewScratch()
	for _, cl := range eriClasses {
		qs := classQuartets(e, cl.l[0], cl.l[1], cl.l[2], cl.l[3])
		b.Run(cl.name, func(b *testing.B) {
			prims := 0
			for _, q := range qs {
				n := 1
				for _, sh := range q {
					n *= e.Basis.Shells[sh].NPrims()
				}
				prims += n
				e.ERIShellScratch(q[0], q[1], q[2], q[3], out, false, nil, scratch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				e.ERIShellScratch(q[0], q[1], q[2], q[3], out, false, nil, scratch)
			}
			perQuartet := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perQuartet/(float64(prims)/float64(len(qs))), "ns/primquartet")
		})
	}
}

// BenchmarkPairTables times what a new geometry pays before its first
// quartet: the Hermite term tables of every canonical shell pair of
// (H2O)3 / STO-3G, with their primitive-pair Schwarz factors and the sort.
func BenchmarkPairTables(b *testing.B) {
	set := basis.MustBuild("STO-3G", chem.WaterCluster(3, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for a := range set.Shells {
			for c := a; c < len(set.Shells); c++ {
				buildPairData(&set.Shells[a], &set.Shells[c])
			}
		}
	}
}

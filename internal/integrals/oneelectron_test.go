package integrals

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// TestOneElectronBitsPinned pins the bits of S, T, V, H and the dipole
// matrices about an origin off every nucleus. The d shells of 6-31G* reach
// the largest E tables a request builds: one bra degree up for μ, two ket
// degrees up for T.
func TestOneElectronBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		basis string
		mol   *chem.Molecule
		want  uint64
	}{
		{"LiH/STO-3G", "STO-3G", chem.LithiumHydride(), 0x239343c0a2ee5b26},
		{"(H2O)2/6-31G*", "6-31G*", chem.WaterCluster(2, 1), 0xd3b4545a2e9008ce},
	} {
		e := NewEngine(basis.MustBuild(tc.basis, tc.mol))
		mu := e.Dipole([3]float64{0.3, -0.7, 1.1})
		h := fnv.New64a()
		for _, m := range []*linalg.Matrix{e.Overlap(), e.Kinetic(), e.Nuclear(), e.CoreHamiltonian(), mu[0], mu[1], mu[2]} {
			fold(h, m.Data)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: S, T, V, H and μ hash to %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
}

// oneElectronCalls makes the one-electron requests an SCF and its dipole
// make: S, H, and μ about the origin. The engine is a fresh one, so its S
// pass is walked and counted rather than read back from an earlier call.
func oneElectronCalls(set *basis.Set) {
	e := NewEngine(set)
	e.Overlap()
	e.CoreHamiltonian()
	e.Dipole([3]float64{})
}

// TestOneElectronAllocs: the one-electron requests allocate their
// matrices and a fixed scratch, however many shell pairs they walk.
func TestOneElectronAllocs(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{1, 4} {
		set := basis.MustBuild("STO-3G", chem.WaterCluster(n, 1))
		allocs[i] = testing.AllocsPerRun(3, func() { oneElectronCalls(set) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("S, H and μ allocate %.0f objects on (H2O)1 and %.0f on (H2O)4: want one count", allocs[0], allocs[1])
	}
}

// TestOverlapComputedOnce: the engine keeps S, so Overlap and then
// OverlapAndCore walk the S pass once, and the pair of matrices has the
// bits of a fresh engine's OverlapAndCore.
func TestOverlapComputedOnce(t *testing.T) {
	set := basis.MustBuild("6-31G*", chem.WaterCluster(2, 1))
	want, wantH := NewEngine(set).OverlapAndCore()
	e := NewEngine(set)
	before := OverlapPasses()
	s := e.Overlap()
	s2, h := e.OverlapAndCore()
	if n := OverlapPasses() - before; n != 1 {
		t.Fatalf("Overlap then OverlapAndCore walked the S pass %d times, want 1", n)
	}
	if s2 != s || e.Overlap() != s {
		t.Fatal("OverlapAndCore and a second Overlap did not return the engine's S")
	}
	for _, c := range []struct {
		name      string
		got, want *linalg.Matrix
	}{{"S", s, want}, {"H", h, wantH}} {
		for i, v := range c.got.Data {
			if math.Float64bits(v) != math.Float64bits(c.want.Data[i]) {
				t.Fatalf("%s[%d] = %v, a fresh engine's OverlapAndCore gives %v", c.name, i, v, c.want.Data[i])
			}
		}
	}
}

// TestOverlapSharedAcrossGoroutines: concurrent first requests for S on
// one engine all return the one matrix the engine publishes.
func TestOverlapSharedAcrossGoroutines(t *testing.T) {
	e := NewEngine(basis.MustBuild("STO-3G", chem.WaterCluster(2, 1)))
	got := make([]*linalg.Matrix, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = e.Overlap()
			} else {
				got[i], _ = e.OverlapAndCore()
			}
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != e.Overlap() {
			t.Fatalf("goroutine %d got an S the engine did not keep", i)
		}
	}
}

// BenchmarkOneElectron times S, H and μ on (H2O)2/6-31G*, a fresh engine
// per request set.
func BenchmarkOneElectron(b *testing.B) {
	set := basis.MustBuild("6-31G*", chem.WaterCluster(2, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oneElectronCalls(set)
	}
}

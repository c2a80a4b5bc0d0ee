package hfx

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// TestSpillWarmBitwiseIdentical is the acceptance pin for ERI spill: a
// cold builder warmed from another builder's exported cache image must
// replay on its first build (zero integral evaluations for admitted
// quartets) and produce J/K bitwise identical to a direct build.
func TestSpillWarmBitwiseIdentical(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(3, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	direct := NewBuilder(eng, scr, opts)
	defer direct.Close()
	jd, kd, _ := direct.BuildJK(p)

	opts.CacheBudgetBytes = 256 << 20
	hot := NewBuilder(eng, scr, opts)
	_, _, repHot := hot.BuildJK(p) // fill every surviving quartet
	img := hot.ExportERICache()
	if img == nil {
		t.Fatal("ExportERICache returned nil for a filled cache")
	}
	key := hot.SpillKey()
	if key == "" {
		t.Fatal("SpillKey empty for a semi-direct builder")
	}
	hot.Close() // the evicted-builder scenario: pool gone, image survives

	cold := NewBuilder(eng, scr, opts)
	defer cold.Close()
	if cold.SpillKey() != key {
		t.Fatalf("spill key not reproducible: %s vs %s", cold.SpillKey(), key)
	}
	warmed, err := cold.ImportERICache(img)
	if err != nil {
		t.Fatalf("ImportERICache: %v", err)
	}
	if warmed != repHot.Cache.ResidentBlocks {
		t.Fatalf("warmed %d blocks, exporter had %d resident", warmed, repHot.Cache.ResidentBlocks)
	}
	jw, kw, repWarm := cold.BuildJK(p)
	if repWarm.Cache.Misses != 0 {
		t.Fatalf("warmed builder's first build missed %d quartets", repWarm.Cache.Misses)
	}
	if repWarm.Cache.Hits != repHot.QuartetsComputed {
		t.Fatalf("warmed hits %d, want %d", repWarm.Cache.Hits, repHot.QuartetsComputed)
	}
	if diff := linalg.MaxAbsDiff(jd, jw); diff != 0 {
		t.Fatalf("spill-warmed J vs direct diff %g, want bitwise 0", diff)
	}
	if diff := linalg.MaxAbsDiff(kd, kw); diff != 0 {
		t.Fatalf("spill-warmed K vs direct diff %g, want bitwise 0", diff)
	}
	if got := repWarm.Metrics.Counter("ericache.warmed_blocks").Value(); got != warmed {
		t.Fatalf("ericache.warmed_blocks = %d, want %d", got, warmed)
	}
}

// TestSpillKeyIndependentOfDensity: the spill key addresses the
// (basis, shell-pair list, screening, admission) layout only — two
// builders over the same inputs agree regardless of any density or SCF
// setting, while a different geometry or budget changes the key.
func TestSpillKeyDiscriminates(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 64 << 20
	b1 := NewBuilder(eng, scr, opts)
	defer b1.Close()
	b2 := NewBuilder(eng, scr, opts)
	defer b2.Close()
	if b1.SpillKey() != b2.SpillKey() {
		t.Fatalf("same inputs, different spill keys: %s vs %s", b1.SpillKey(), b2.SpillKey())
	}

	// Different geometry → different pair list → different key.
	eng3, scr3 := setup(t, chem.WaterCluster(3, 1), 1e-8)
	b3 := NewBuilder(eng3, scr3, opts)
	defer b3.Close()
	if b3.SpillKey() == b1.SpillKey() {
		t.Fatal("different geometry reused the spill key")
	}

	// Different budget → different admission layout → different key.
	opts4 := opts
	opts4.CacheBudgetBytes = 1 << 20
	b4 := NewBuilder(eng, scr, opts4)
	defer b4.Close()
	if b4.SpillKey() == b1.SpillKey() {
		t.Fatal("different budget reused the spill key")
	}

	// Fully direct builder has no spill identity.
	b5 := NewBuilder(eng, scr, DefaultOptions())
	defer b5.Close()
	if b5.SpillKey() != "" {
		t.Fatalf("direct builder spill key = %q, want empty", b5.SpillKey())
	}
}

// TestSpillImportRejectsMismatch: an image from a different layout must
// be rejected wholesale, leaving the importing cache untouched.
func TestSpillImportRejectsMismatch(t *testing.T) {
	engA, scrA := setup(t, chem.WaterCluster(2, 1), 1e-8)
	engB, scrB := setup(t, chem.WaterCluster(3, 1), 1e-8)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 64 << 20
	a := NewBuilder(engA, scrA, opts)
	defer a.Close()
	a.BuildJK(testDensity(engA.Basis.NBasis, 1))
	img := a.ExportERICache()

	b := NewBuilder(engB, scrB, opts)
	defer b.Close()
	if _, err := b.ImportERICache(img); err == nil {
		t.Fatal("cross-geometry import must fail")
	}
	if _, err := b.ImportERICache(img[:16]); err == nil {
		t.Fatal("truncated image must fail")
	}
	if _, err := b.ImportERICache([]byte("not a spill")); err == nil {
		t.Fatal("garbage image must fail")
	}
	_, _, rep := b.BuildJK(testDensity(engB.Basis.NBasis, 1))
	if rep.Cache.Hits != 0 {
		t.Fatalf("rejected import leaked %d resident blocks", rep.Cache.Hits)
	}

	// Same layout, written by another ERI kernel: its blocks differ in
	// the last bits from what this build recomputes, so the image must be
	// refused — an hfxd upgraded across a kernel change and restarted on
	// its old store directory recomputes instead of replaying stale bits.
	a2 := NewBuilder(engA, scrA, opts)
	defer a2.Close()
	other := a2.layoutHashAt(integrals.KernelRevision - 1)
	if other == a2.builderLayoutHash() {
		t.Fatal("spill layout hash ignores the kernel revision")
	}
	stale := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(stale[len(eriSpillMagic):], other)
	if _, err := a2.ImportERICache(stale); err == nil {
		t.Fatal("image of another kernel revision must fail")
	}
	_, _, rep2 := a2.BuildJK(testDensity(engA.Basis.NBasis, 1))
	if rep2.Cache.Hits != 0 {
		t.Fatalf("refused image leaked %d resident blocks", rep2.Cache.Hits)
	}
	if _, err := a2.ImportERICache(img); err != nil {
		t.Fatalf("image of this kernel revision refused: %v", err)
	}
}

// TestSpillKeyFollowsThreshold: the primitive-level cut of every cached
// block is derived from ε, so two builders over the same pair list but
// different thresholds hold different bits and must not exchange images.
func TestSpillKeyFollowsThreshold(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 64 << 20
	var keys [2]string
	var imgs [2][]byte
	var builders [2]*Builder
	for i, eps := range []float64{1e-8, 1e-10} {
		eng, scr := setup(t, chem.Water(), eps)
		if len(scr.Pairs) != 15 {
			t.Fatalf("ε=%g: %d of water's 15 shell pairs survive; the test wants identical pair lists", eps, len(scr.Pairs))
		}
		b := NewBuilder(eng, scr, opts)
		defer b.Close()
		b.BuildJK(testDensity(eng.Basis.NBasis, 1))
		builders[i], keys[i], imgs[i] = b, b.SpillKey(), b.ExportERICache()
	}
	if keys[0] == keys[1] {
		t.Fatalf("spill key %s ignores the screening threshold", keys[0])
	}
	if _, err := builders[1].ImportERICache(imgs[0]); err == nil {
		t.Fatal("an image cut under another ε must be refused")
	}
}

// TestSpillEmptyExport: a cold cache exports nothing.
func TestSpillEmptyExport(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 64 << 20
	b := NewBuilder(eng, scr, opts)
	defer b.Close()
	if img := b.ExportERICache(); img != nil {
		t.Fatalf("cold cache exported %d bytes", len(img))
	}
	d := NewBuilder(eng, scr, DefaultOptions())
	defer d.Close()
	if img := d.ExportERICache(); img != nil {
		t.Fatal("direct builder exported a cache image")
	}
}

// cacheState serializes what a builder's ERI cache holds: every shard's
// fill flags and slab bits, then the fill count.
func cacheState(b *Builder) []byte {
	c := b.pl.cache
	var out []byte
	for i := range c.shards {
		sh := &c.shards[i]
		for _, f := range sh.filled {
			if f {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		for _, v := range sh.slab {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return binary.LittleEndian.AppendUint64(out, uint64(c.filled.Load()))
}

// FuzzImportERICache feeds arbitrary images to the spill decoder of a
// semi-direct builder. It must never panic, and an import either succeeds
// or fails with the builder's cache exactly as it was before the call.
func FuzzImportERICache(f *testing.F) {
	eng, scr := setup(f, chem.Water(), 1e-8)
	opts := DefaultOptions()
	opts.Threads = 1
	opts.CacheBudgetBytes = 1 << 20
	src := NewBuilder(eng, scr, opts)
	src.BuildJK(testDensity(eng.Basis.NBasis, 1))
	img := src.ExportERICache()
	if img == nil {
		f.Fatal("ExportERICache returned nil for a filled cache")
	}
	restamped := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(restamped[len(eriSpillMagic):], src.layoutHashAt(integrals.KernelRevision-1))
	src.Close()
	f.Add(img)
	f.Add(restamped)
	f.Add(img[:len(img)/2])

	dst := NewBuilder(eng, scr, opts)
	f.Cleanup(dst.Close)
	f.Fuzz(func(t *testing.T, b []byte) {
		before := cacheState(dst)
		if _, err := dst.ImportERICache(b); err != nil {
			if !bytes.Equal(cacheState(dst), before) {
				t.Fatalf("failed import (%v) changed the cache", err)
			}
		}
	})
}

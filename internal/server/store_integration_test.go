package server

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/scf"
	"hfxmd/internal/store"
)

// ---------------------------------------------------------------------------
// Tiered-store integration: restart warm hits, ERI spill/warm, prefix reuse.

func TestStoreDirMustDifferFromJournalDir(t *testing.T) {
	dir := t.TempDir()
	_, err := New(Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "jobs.journal"),
		StoreDir:    dir,
	})
	if err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("same dir for journal and store must be rejected, got %v", err)
	}
	// Distinct directories are fine.
	s := mustNew(t, Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "journal", "jobs.journal"),
		StoreDir:    filepath.Join(dir, "store"),
	})
	s.Shutdown(context.Background())
}

func TestRestartAnswersFromDiskWithZeroFockBuilds(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	req := JobRequest{Kind: KindSCF, System: "water", Functional: "PBE0"}

	s1 := mustNew(t, Config{Workers: 1, StoreDir: storeDir})
	ts1 := httptest.NewServer(s1.Handler())
	r1 := submit(t, ts1, req)
	ts1.Close()
	if r1.State != StateDone || r1.CacheHit || r1.SCF == nil {
		t.Fatalf("first run: %+v", r1)
	}
	if counter(s1, "hfx.fock_builds") == 0 {
		t.Fatal("first run should have built Fock matrices")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A brand-new server over the same store directory must answer the
	// repeated canonical job from the disk tier: cache hit, and the
	// restarted process never runs a Fock build.
	s2 := mustNew(t, Config{Workers: 1, StoreDir: storeDir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown(context.Background())
	r2 := submit(t, ts2, req)
	if r2.State != StateDone || !r2.CacheHit {
		t.Fatalf("restarted server should serve a disk-warm hit: %+v", r2)
	}
	if got := counter(s2, "hfx.fock_builds"); got != 0 {
		t.Fatalf("restarted server ran %d Fock builds answering a stored job", got)
	}
	if got := counter(s2, "store.disk_hits"); got == 0 {
		t.Fatal("disk tier never hit on the restarted server")
	}
	if r2.SCF.Energy != r1.SCF.Energy || r2.CacheKey != r1.CacheKey {
		t.Fatalf("disk-warm result drifted: %+v vs %+v", r2.SCF, r1.SCF)
	}
}

func TestERISpillWarmsReplacementBuilder(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, StoreDir: filepath.Join(t.TempDir(), "store")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Fill the first builder's ERI cache.
	b1 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", CacheMB: 64})
	if b1.State != StateDone || b1.Build == nil {
		t.Fatalf("cold buildjk: %+v", b1)
	}
	if b1.Build.EriCacheMisses == 0 || b1.Build.EriCacheHits != 0 {
		t.Fatalf("cold cache traffic: hits=%d misses=%d",
			b1.Build.EriCacheHits, b1.Build.EriCacheMisses)
	}

	// MaxIter is numerically irrelevant for buildjk but participates in
	// the builder key, so the single worker evicts its builder (spilling
	// the filled ERI cache to the store) and creates a replacement with
	// the same spill key — which must warm from disk and replay every
	// quartet as a hit, bitwise identical to the cold build.
	b2 := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water", CacheMB: 64, MaxIter: 7})
	if b2.State != StateDone || b2.CacheHit {
		t.Fatalf("replacement buildjk: %+v", b2)
	}
	if b2.Build.EriCacheMisses != 0 || b2.Build.EriCacheHits == 0 {
		t.Fatalf("warmed builder traffic: hits=%d misses=%d",
			b2.Build.EriCacheHits, b2.Build.EriCacheMisses)
	}
	if b2.Build.JNorm != b1.Build.JNorm || b2.Build.KNorm != b1.Build.KNorm {
		t.Fatal("spill-warmed build must be bitwise identical to the cold build")
	}
	if spills, warmed := counter(s, "eri.spills"), counter(s, "eri.warmed_builders"); spills != 1 || warmed != 1 {
		t.Fatalf("spill lifecycle: spills=%d warmed=%d, want 1/1", spills, warmed)
	}
	if counter(s, "eri.spill_bytes") == 0 {
		t.Fatal("eri.spill_bytes not accounted")
	}
}

func TestPrefixDensitySeedsRelatedJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, StoreDir: filepath.Join(t.TempDir(), "store")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	r1 := submit(t, ts, JobRequest{Kind: KindSCF, System: "water"})
	if r1.State != StateDone || r1.SCF == nil || !r1.SCF.Converged {
		t.Fatalf("first scf: %+v", r1)
	}
	if counter(s, "prefix.density_stored") == 0 {
		t.Fatal("converged density was not stored")
	}

	// Different canonical job (MaxIter changes the cache key) but same
	// model chemistry and composition: the stored density seeds it, so
	// it converges in fewer iterations to the same energy.
	r2 := submit(t, ts, JobRequest{Kind: KindSCF, System: "water", MaxIter: 50})
	if r2.State != StateDone || r2.CacheHit || r2.SCF == nil || !r2.SCF.Converged {
		t.Fatalf("seeded scf: %+v", r2)
	}
	if counter(s, "prefix.density_hits") == 0 {
		t.Fatal("prefix density never hit")
	}
	if r2.SCF.Iterations >= r1.SCF.Iterations {
		t.Fatalf("seeded run took %d iterations, cold run %d — no warm-start win",
			r2.SCF.Iterations, r1.SCF.Iterations)
	}
	if math.Abs(r2.SCF.Energy-r1.SCF.Energy) > 1e-8 {
		t.Fatalf("seeded energy %g drifted from cold energy %g", r2.SCF.Energy, r1.SCF.Energy)
	}
}

func TestDensityChainsAcrossGeometries(t *testing.T) {
	// The scan/MD scenario behind prefix reuse: geometries that differ
	// only in coordinates share a prefix key, so point i seeds point i+1.
	// (A real solvent-scan job exercises the same path but is far too
	// expensive for a unit test; this pins the chaining directly.)
	s := mustNew(t, Config{Workers: 1, StoreDir: filepath.Join(t.TempDir(), "store")})
	defer s.Shutdown(context.Background())

	req := JobRequest{Kind: KindSCF, System: "water"}
	req.normalize()
	molA := chem.Water()
	molB := chem.Water()
	for i := range molB.Atoms {
		molB.Atoms[i].Pos[2] += 0.05 // bohr: same composition, new geometry
	}

	cfgA := s.scfConfig(&req)
	set, err := basis.Build(req.Basis, molA)
	if err != nil {
		t.Fatal(err)
	}
	keyA := s.seedDensity(&cfgA, molA, set.NBasis)
	if cfgA.InitialDensity != nil {
		t.Fatal("empty store must not seed")
	}
	resA, err := scf.Run(molA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	s.storeDensity(keyA, resA)

	cfgB := s.scfConfig(&req)
	keyB := s.seedDensity(&cfgB, molB, set.NBasis)
	if keyB != keyA {
		t.Fatalf("perturbed geometry changed the prefix key: %s vs %s", keyB, keyA)
	}
	if cfgB.InitialDensity == nil {
		t.Fatal("neighbouring geometry's density should seed the next point")
	}
	resB, err := scf.Run(molB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Converged || resB.Iterations >= resA.Iterations {
		t.Fatalf("seeded neighbour took %d iterations (cold %d)",
			resB.Iterations, resA.Iterations)
	}
	if got := counter(s, "prefix.density_hits"); got != 1 {
		t.Fatalf("prefix.density_hits = %d, want 1", got)
	}
}

// TestSeedGuardRejectsOtherGeometries: a stored density seeds only the
// geometry it nearly belongs to. A rotated copy of the molecule and the
// same molecule with its atoms listed in another order share the prefix
// key (same composition) but not the density — its rows are basis
// functions in atom order — so both fall back to the SAD guess, are
// counted as rejected, and converge in no more iterations than a cold run.
func TestSeedGuardRejectsOtherGeometries(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, StoreDir: filepath.Join(t.TempDir(), "store")})
	defer s.Shutdown(context.Background())

	req := JobRequest{Kind: KindSCF, System: "water"}
	req.normalize()
	mol := chem.Water()
	run := func(m *chem.Molecule) (*scf.Result, scf.Config) {
		t.Helper()
		cfg := s.scfConfig(&req)
		set, err := basis.Build(req.Basis, m)
		if err != nil {
			t.Fatal(err)
		}
		key := s.seedDensity(&cfg, m, set.NBasis)
		res, err := scf.Run(m, cfg)
		if err != nil || !res.Converged {
			t.Fatalf("scf: %v", err)
		}
		s.storeDensity(key, res)
		return res, cfg
	}
	cold, cfg := run(mol)
	if cfg.InitialDensity != nil || counter(s, "prefix.density_misses") != 1 {
		t.Fatal("empty store must be a miss")
	}

	near := chem.Water()
	near.Atoms[1].Pos[0] += 0.1 // well inside scf.SeedMaxShift
	res, cfg := run(near)
	if cfg.InitialDensity == nil || counter(s, "prefix.density_hits") != 1 {
		t.Fatal("a geometry within the shift bound must be seeded")
	}
	if res.Iterations > cold.Iterations {
		t.Fatalf("near seed took %d iterations, cold %d", res.Iterations, cold.Iterations)
	}
	s.storeDensity(densityKeyPrefix+scf.DensityPrefixKey(cfg, mol), cold) // the reference geometry again

	rotated := chem.Water()
	for i := range rotated.Atoms { // quarter turn about x: (x, y, z) → (x, −z, y)
		p := rotated.Atoms[i].Pos
		rotated.Atoms[i].Pos = chem.Vec3{p[0], -p[2], p[1]}
	}
	permuted := chem.Water()
	permuted.Atoms[0], permuted.Atoms[2] = permuted.Atoms[2], permuted.Atoms[0]
	for i, m := range []*chem.Molecule{rotated, permuted} {
		cfg := s.scfConfig(&req)
		set, err := basis.Build(req.Basis, m)
		if err != nil {
			t.Fatal(err)
		}
		if key := s.seedDensity(&cfg, m, set.NBasis); key != densityKeyPrefix+scf.DensityPrefixKey(cfg, mol) {
			t.Fatalf("case %d: same composition must share the prefix key", i)
		}
		if cfg.InitialDensity != nil {
			t.Fatalf("case %d: a density of another geometry must not seed", i)
		}
		if got := counter(s, "prefix.density_rejected"); got != int64(i+1) {
			t.Fatalf("case %d: prefix.density_rejected = %d, want %d", i, got, i+1)
		}
		res, err := scf.Run(m, cfg)
		if err != nil || !res.Converged {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Iterations > cold.Iterations {
			t.Fatalf("case %d: SAD fallback took %d iterations, cold run %d", i, res.Iterations, cold.Iterations)
		}
		if math.Abs(res.Energy-cold.Energy) > 1e-7 {
			t.Fatalf("case %d: energy %.10f, reference %.10f", i, res.Energy, cold.Energy)
		}
	}

	// An entry without a geometry (the pre-guard format) is a miss.
	cfg = s.scfConfig(&req)
	key := densityKeyPrefix + scf.DensityPrefixKey(cfg, mol)
	if err := s.store.Put(key, store.EncodeMatrix(cold.Set.NBasis, cold.P.Data)); err != nil {
		t.Fatal(err)
	}
	misses := counter(s, "prefix.density_misses")
	if s.seedDensity(&cfg, mol, cold.Set.NBasis); cfg.InitialDensity != nil || counter(s, "prefix.density_misses") != misses+1 {
		t.Fatal("an entry stored without its geometry must be a miss")
	}
}

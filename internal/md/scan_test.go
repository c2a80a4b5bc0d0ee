package md

import (
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/scf"
	"hfxmd/internal/store"
)

// TestProfileRelate pins the one rule every profile is measured by: Rel
// from the first converged point, the well over converged points only.
func TestProfileRelate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pts     []ScanPoint
		wantRel []float64
		well    float64
	}{
		{
			name:    "well",
			pts:     []ScanPoint{{Energy: -10, Converged: true}, {Energy: -10.5, Converged: true}, {Energy: -9, Converged: true}},
			wantRel: []float64{0, -0.5, 1},
			well:    -0.5,
		},
		{
			name:    "unconverged first point",
			pts:     []ScanPoint{{Energy: -537}, {Energy: -10, Converged: true}, {Energy: -10.25, Converged: true}},
			wantRel: []float64{0, 0, -0.25},
			well:    -0.25,
		},
		{
			name:    "unconverged point inside the well",
			pts:     []ScanPoint{{Energy: -10, Converged: true}, {Energy: -99}, {Energy: -9.5, Converged: true}},
			wantRel: []float64{0, 0, 0.5},
			well:    0,
		},
		{
			name:    "purely repulsive",
			pts:     []ScanPoint{{Energy: -10, Converged: true}, {Energy: -9.75, Converged: true}, {Energy: -9, Converged: true}},
			wantRel: []float64{0, 0.25, 1},
			well:    0,
		},
		{
			name:    "nothing converged",
			pts:     []ScanPoint{{Energy: -10}, {Energy: -11}},
			wantRel: []float64{0, 0},
			well:    0,
		},
	} {
		p := Profile{Points: tc.pts}
		p.relate()
		for i, pt := range p.Points {
			if pt.Rel != tc.wantRel[i] {
				t.Errorf("%s: point %d Rel = %g, want %g", tc.name, i, pt.Rel, tc.wantRel[i])
			}
		}
		if p.Well != tc.well {
			t.Errorf("%s: well %g, want %g", tc.name, p.Well, tc.well)
		}
	}
}

// lihAt returns LiH at bond length r bohr.
func lihAt(r float64) (*chem.Molecule, error) {
	m := chem.LithiumHydride()
	m.Atoms[1].Pos[2] = r
	return m, nil
}

// TestScanMatchesColdSCF: a LiH bond scan through Scan agrees with an
// independent cold scf.Run per point under the same solver settings, every
// point converges, and the session's warm starts cost no more iterations
// in total than the cold runs.
func TestScanMatchesColdSCF(t *testing.T) {
	coords := []float64{3.6, 3.4, 3.2, 3.0, 2.8, 2.4, 2.0}
	prof, err := Scan(sessionCfg(), SessionOptions{}, coords, lihAt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != len(coords) {
		t.Fatalf("%d points for %d coordinates", len(prof.Points), len(coords))
	}
	var warm, cold int
	for i, p := range prof.Points {
		m, _ := lihAt(coords[i])
		ref, err := scf.Run(m, scanConfig(sessionCfg()))
		if err != nil || !ref.Converged {
			t.Fatalf("cold r=%g: %v", coords[i], err)
		}
		if !p.Converged || p.R != coords[i] {
			t.Fatalf("point %d: %+v", i, p)
		}
		if d := math.Abs(p.Energy - ref.Energy); d > 1e-8 {
			t.Errorf("r=%g: scan %.12f, cold %.12f (|ΔE| %.2e)", p.R, p.Energy, ref.Energy, d)
		}
		warm += p.Iterations
		cold += ref.Iterations
	}
	if warm > cold {
		t.Fatalf("scan took %d iterations, cold runs %d", warm, cold)
	}
	t.Logf("iterations: scan %d, cold %d", warm, cold)
}

// TestScanStoreSeedsAndPersists: with a store, the first point starts from
// a density stored within scf.SeedMaxShift of it, and every converged point
// persists its own density (the points are farther apart than the shift
// bound, so the entry after point i seeds point i and no other).
func TestScanStoreSeedsAndPersists(t *testing.T) {
	st, err := store.Open(store.Options{}) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := sessionCfg()
	near, _ := lihAt(3.3)
	res, err := scf.Run(near, cfg)
	if err != nil || !scf.SaveSeed(st, cfg, res) {
		t.Fatalf("storing the neighbour's density: %v", err)
	}

	coords := []float64{3.0, 3.6, 4.2}
	var stats []SessionStats
	var entries [][]byte
	prof, err := Scan(cfg, SessionOptions{Store: st}, coords, lihAt, func(s SessionStats) {
		stats = append(stats, s)
		b, _ := st.Get(scf.DensityKey(cfg, near))
		entries = append(entries, b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].StoreSeeds != 1 || stats[0].ColdStarts != 0 {
		t.Fatalf("first point: %+v, want one store seed", stats[0])
	}
	for i, r := range coords {
		if !prof.Points[i].Converged {
			t.Fatalf("point %d did not converge", i)
		}
		m, _ := lihAt(r)
		if _, status := scf.DecodeSeed(entries[i], m); status != scf.SeedHit {
			t.Fatalf("after point %d the stored density is not its own (status %d)", i, status)
		}
		if i > 0 {
			prev, _ := lihAt(coords[i-1])
			if _, status := scf.DecodeSeed(entries[i], prev); status != scf.SeedRejected {
				t.Fatalf("after point %d the store still holds point %d's density", i, i-1)
			}
		}
	}
}

// TestScanRetriesSeededPointCold: a seeded point that does not converge is
// rerun cold (Session.Run's fallback), and the point reports both runs'
// iterations and no relative energy.
func TestScanRetriesSeededPointCold(t *testing.T) {
	st, err := store.Open(store.Options{}) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := sessionCfg()
	near, _ := lihAt(3.1)
	res, err := scf.Run(near, cfg)
	if err != nil || !scf.SaveSeed(st, cfg, res) {
		t.Fatalf("storing the neighbour's density: %v", err)
	}
	cfg.MaxIter = 3 // inside the damping window: nothing converges
	var stats SessionStats
	prof, err := Scan(cfg, SessionOptions{Store: st}, []float64{3.0}, lihAt, func(s SessionStats) { stats = s })
	if err != nil {
		t.Fatal(err)
	}
	if p := prof.Points[0]; p.Converged || p.Iterations != 6 || p.Rel != 0 || prof.Well != 0 {
		t.Fatalf("point %+v, well %g: want an unconverged point of 3 seeded + 3 cold iterations", p, prof.Well)
	}
	if stats.StoreSeeds != 1 || stats.Fallbacks != 1 {
		t.Fatalf("stats %+v: want one store seed and one cold fallback", stats)
	}
}

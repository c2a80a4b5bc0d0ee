package hfx

import (
	"math"
	"runtime"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
)

// referenceTwoElectronEnergy is ½Tr(P·J[P]) − ¼aₓTr(P·K[P]) by the
// unscreened brute-force oracle.
func referenceTwoElectronEnergy(mol *chem.Molecule, basisName string, p *linalg.Matrix, aX float64) float64 {
	j, k := ReferenceJK(integrals.NewEngine(basis.MustBuild(basisName, mol)), p)
	return 0.5*linalg.TraceMul(p, j) - 0.25*aX*linalg.TraceMul(p, k)
}

// TestGradientMatchesReferenceFiniteDifference is the two-electron
// component oracle: at fixed P the gradient phase must reproduce the
// Richardson-extrapolated central difference of the brute-force
// ReferenceJK energy on displaced geometries — for the pure Coulomb
// energy, the PBE0 fraction and full exchange, in a d-shell basis too —
// and sum to zero over the atoms.
func TestGradientMatchesReferenceFiniteDifference(t *testing.T) {
	water := chem.Water()
	water.Atoms[2].Pos[0] += 0.15 // no symmetry to hide a sign behind
	for _, tc := range []struct {
		name, basis string
		mol         *chem.Molecule
		threads     int
	}{
		{"LiH/STO-3G", "STO-3G", chem.LithiumHydride(), 1},
		{"H2O/STO-3G", "STO-3G", water, 3},
		{"H2O/6-31G*", "6-31G*", water, 2},
	} {
		eng := integrals.NewEngine(basis.MustBuild(tc.basis, tc.mol))
		scr := screen.BuildPairList(eng, screen.Options{Threshold: 1e-14, ExtentEps: 1e-14})
		p := testDensity(eng.Basis.NBasis, 11)
		opts := DefaultOptions()
		opts.Threads = tc.threads
		b := NewBuilder(eng, scr, opts)
		for _, aX := range []float64{0, 0.25, 1} {
			if tc.basis != "STO-3G" && aX == 0 {
				continue // the d-shell reference is O(N⁴) in 19 functions: two fractions suffice
			}
			g := b.Gradient(p, aX)
			var sum chem.Vec3
			for a := range g {
				sum = sum.Add(g[a])
				for k := 0; k < 3; k++ {
					energy := func(x float64) float64 {
						m := tc.mol.Clone()
						m.Atoms[a].Pos[k] += x
						return referenceTwoElectronEnergy(m, tc.basis, p, aX)
					}
					const h = 2e-3
					d1 := (energy(h) - energy(-h)) / (2 * h)
					d2 := (energy(h/2) - energy(-h/2)) / h
					want := (4*d2 - d1) / 3
					if d := math.Abs(g[a][k] - want); !(d <= 2e-8*math.Max(1, math.Abs(want))) {
						t.Errorf("%s aX=%g atom %d axis %d: analytic %.12g, FD %.12g (|Δ| %.3g)", tc.name, aX, a, k, g[a][k], want, d)
					}
				}
			}
			if sum.Norm() > 1e-10 {
				t.Errorf("%s aX=%g: gradient sums to %.3g over the atoms, want 0", tc.name, aX, sum.Norm())
			}
		}
		b.Close()
	}
}

// TestGradientScreeningControlled: at a fixed density the gradient under
// the default screening threshold stays within a small multiple of the
// threshold-sized neglected integrals of the unscreened one, for both the
// plain and the density-weighted quartet test.
func TestGradientScreeningControlled(t *testing.T) {
	eng := integrals.NewEngine(basis.MustBuild("STO-3G", chem.WaterCluster(2, 3)))
	p := testDensity(eng.Basis.NBasis, 4)
	exact := NewBuilder(eng, screen.BuildPairList(eng, screen.Options{Threshold: 0, ExtentEps: 1e-30, NoDistance: true}), Options{Threads: 2})
	defer exact.Close()
	want := exact.Gradient(p, 1)
	sopts := screen.DefaultOptions()
	for _, dw := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Threads = 2
		opts.DensityWeighted = dw
		b := NewBuilder(eng, screen.BuildPairList(eng, sopts), opts)
		got := b.Gradient(p, 1)
		b.Close()
		var worst float64
		for a := range got {
			worst = math.Max(worst, got[a].Sub(want[a]).Norm())
		}
		// Each neglected quartet is below the threshold in magnitude; a few
		// thousand of them against O(1) densities stay far below 1e-6.
		if worst > 100*sopts.Threshold {
			t.Fatalf("dw=%v: screened gradient off by %.3g Eh/bohr at threshold %.1g", dw, worst, sopts.Threshold)
		}
		t.Logf("dw=%v: max |Δg| %.3g at threshold %.1g", dw, worst, sopts.Threshold)
	}
}

// TestGradientDeterministic: at fixed Options.Threads the gradient is
// bitwise identical from run to run, after an intervening BuildJK, and for
// any GOMAXPROCS — the assignment is static and the merge a fixed tree.
func TestGradientDeterministic(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 5), 1e-10)
	p := testDensity(eng.Basis.NBasis, 9)
	opts := DefaultOptions()
	opts.Threads = 3
	b := NewBuilder(eng, scr, opts)
	defer b.Close()
	want := b.Gradient(p, 0.25)
	b.BuildJK(p)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		fresh := NewBuilder(eng, scr, opts)
		for i, got := range [][]chem.Vec3{b.Gradient(p, 0.25), fresh.Gradient(p, 0.25)} {
			for a := range want {
				if got[a] != want[a] {
					t.Fatalf("GOMAXPROCS=%d builder %d atom %d: %v != %v", procs, i, a, got[a], want[a])
				}
			}
		}
		fresh.Close()
	}
}

// TestGradientSteadyStateAllocs: a gradient build on a warm builder
// allocates its result and nothing per quartet.
func TestGradientSteadyStateAllocs(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 5), 1e-10)
	p := testDensity(eng.Basis.NBasis, 9)
	opts := DefaultOptions()
	opts.Threads = 2
	b := NewBuilder(eng, scr, opts)
	defer b.Close()
	b.Gradient(p, 0.25)
	if allocs := testing.AllocsPerRun(5, func() { b.Gradient(p, 0.25) }); allocs > 1 {
		t.Fatalf("steady-state Gradient allocates %.0f objects per build, want the result slice only", allocs)
	}
}

// TestGradientBitwiseAcrossPlacements: the gradient phase runs on the same
// core as BuildJK, so every placement over four slots — one rank of four
// executors, two ranks of two, two ranks of one executor over two stealing
// units each with a straggler rank driving migration — returns the same
// bits, for both screening modes.
func TestGradientBitwiseAcrossPlacements(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 5), 1e-10)
	p := testDensity(eng.Basis.NBasis, 9)
	for _, dw := range []bool{false, true} {
		opts := DefaultOptions()
		opts.DensityWeighted = dw
		opts.Threads = 4
		pool := NewBuilder(eng, scr, opts)
		want := pool.Gradient(p, 0.25)
		pool.Close()
		dist, err := NewDistBuilder(eng, scr, DistOptions{Ranks: 2, ThreadsPerRank: 2, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		stolen, err := NewStealBuilder(eng, scr, StealOptions{
			Ranks: 2, UnitsPerThread: 2, Opts: opts, Steal: true, Seed: 7,
			Noise: &steal.NoisePlan{StragglerRank: 1, StragglerSlow: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		migrated := 0
		for i := 0; i < 3; i++ {
			for name, b := range map[string]*Builder{"dist": dist.Builder, "steal": stolen.Builder} {
				got := b.Gradient(p, 0.25)
				for a := range want {
					if got[a] != want[a] {
						t.Fatalf("dw=%v %s run %d atom %d: %v, pool %v", dw, name, i, a, got[a], want[a])
					}
				}
			}
			migrated += stolen.pl.deques.Migrated()
		}
		if migrated == 0 {
			t.Errorf("dw=%v: the straggler never drove a unit off its home rank", dw)
		}
		dist.Close()
		stolen.Close()
	}
}

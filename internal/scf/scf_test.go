package scf

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
)

func runHF(t testing.TB, mol *chem.Molecule) *Result {
	t.Helper()
	res, err := Run(mol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("%s did not converge in %d iterations (E=%.8f)", mol.Name, res.Iterations, res.Energy)
	}
	return res
}

// Literature RHF/STO-3G total energies (hartree).
func TestH2Energy(t *testing.T) {
	res := runHF(t, chem.Hydrogen(1.4))
	// Szabo & Ostlund: E(H2, R=1.4) = −1.1167 Eh.
	if math.Abs(res.Energy-(-1.1167)) > 5e-4 {
		t.Fatalf("H2 energy %.6f want -1.1167", res.Energy)
	}
}

func TestHeliumEnergy(t *testing.T) {
	res := runHF(t, chem.Helium())
	// STO-3G helium RHF: −2.8078 Eh.
	if math.Abs(res.Energy-(-2.8078)) > 1e-3 {
		t.Fatalf("He energy %.6f want -2.8078", res.Energy)
	}
}

func TestWaterEnergy(t *testing.T) {
	res := runHF(t, chem.Water())
	// RHF/STO-3G at the experimental geometry: ≈ −74.963 Eh.
	if math.Abs(res.Energy-(-74.963)) > 5e-3 {
		t.Fatalf("H2O energy %.6f want about -74.963", res.Energy)
	}
	if res.NOcc != 5 {
		t.Fatalf("water NOcc %d", res.NOcc)
	}
	// Aufbau sanity: HOMO below LUMO, gap positive.
	if !(res.Gap() > 0) {
		t.Fatalf("gap %g", res.Gap())
	}
}

func TestLiHEnergy(t *testing.T) {
	res := runHF(t, chem.LithiumHydride())
	// RHF/STO-3G LiH ≈ −7.862 Eh near equilibrium.
	if math.Abs(res.Energy-(-7.862)) > 5e-3 {
		t.Fatalf("LiH energy %.6f want about -7.862", res.Energy)
	}
}

func TestEnergyDecompositionConsistency(t *testing.T) {
	res := runHF(t, chem.Water())
	sum := res.EOne + res.ECoulomb + res.EExchangeHF + res.EXC + res.ENuclear
	if math.Abs(sum-res.Energy) > 1e-10 {
		t.Fatalf("decomposition %.10f != total %.10f", sum, res.Energy)
	}
	if res.ECoulomb <= 0 || res.EExchangeHF >= 0 || res.EOne >= 0 || res.ENuclear <= 0 {
		t.Fatalf("component signs wrong: %+v", res)
	}
}

func TestDensityTrace(t *testing.T) {
	res := runHF(t, chem.Water())
	eng := integrals.NewEngine(res.Set)
	s := eng.Overlap()
	// tr(P·S) = number of electrons.
	if got := linalg.TraceMul(res.P, s); math.Abs(got-10) > 1e-8 {
		t.Fatalf("tr(PS) = %g want 10", got)
	}
}

func TestVirialRatioApprox(t *testing.T) {
	// −V/T ≈ 2 for a system near equilibrium (loose check 1.9–2.1).
	res := runHF(t, chem.Water())
	eng := integrals.NewEngine(res.Set)
	kin := linalg.TraceMul(res.P, eng.Kinetic())
	v := res.Energy - kin
	ratio := -v / kin
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("virial ratio %g", ratio)
	}
}

func TestOddElectronRejected(t *testing.T) {
	mol := chem.Water()
	mol.Charge = 1
	if _, err := Run(mol, Config{}); err == nil {
		t.Fatal("expected error for odd electron count")
	}
}

func TestUnknownBasisPropagates(t *testing.T) {
	if _, err := Run(chem.Water(), Config{Basis: "NOPE"}); err == nil {
		t.Fatal("expected basis error")
	}
}

func TestLDAWater(t *testing.T) {
	res, err := Run(chem.Water(), Config{
		Functional: dft.LDA{},
		Grid:       dft.GridSpec{NRadial: 32, NAngular: 26},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("LDA water did not converge")
	}
	// SVWN total energy is below HF for water in the same basis (the
	// LDA XC energy overbinds).
	if res.EXC >= 0 {
		t.Fatalf("EXC %g should be negative", res.EXC)
	}
	if math.Abs(res.GridElectrons-10) > 0.05 {
		t.Fatalf("grid electrons %g want ~10", res.GridElectrons)
	}
	if res.EExchangeHF != 0 {
		t.Fatal("pure functional should have no HF exchange")
	}
}

func TestPBEWater(t *testing.T) {
	res, err := Run(chem.Water(), Config{
		Functional: dft.PBE{},
		Grid:       dft.GridSpec{NRadial: 32, NAngular: 26},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PBE water did not converge")
	}
	if res.EXC >= 0 {
		t.Fatal("PBE XC energy should be negative")
	}
}

func TestPBE0Water(t *testing.T) {
	res, err := Run(chem.Water(), Config{
		Functional: dft.PBE0{},
		Grid:       dft.GridSpec{NRadial: 32, NAngular: 26},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PBE0 water did not converge")
	}
	// The hybrid must carry both exact exchange and a semilocal part.
	if res.EExchangeHF >= 0 {
		t.Fatalf("PBE0 HF-exchange part %g should be negative", res.EExchangeHF)
	}
	if res.EXC >= 0 {
		t.Fatalf("PBE0 semilocal part %g should be negative", res.EXC)
	}
	// 25% mixing: |E_x^HF(PBE0)| should be about a quarter of the HF one.
	hf := runHF(t, chem.Water())
	ratio := res.EExchangeHF / hf.EExchangeHF
	if ratio < 0.15 || ratio > 0.35 {
		t.Fatalf("PBE0/HF exchange ratio %g want ~0.25", ratio)
	}
}

func TestMullikenChargesSumToCharge(t *testing.T) {
	res := runHF(t, chem.Water())
	eng := integrals.NewEngine(res.Set)
	q := MullikenCharges(res, eng)
	var sum float64
	for _, v := range q {
		sum += v
	}
	if math.Abs(sum-0) > 1e-8 {
		t.Fatalf("Mulliken charges sum %g want 0", sum)
	}
	// Oxygen negative, hydrogens positive.
	if q[0] >= 0 || q[1] <= 0 || q[2] <= 0 {
		t.Fatalf("charges %v have wrong polarity", q)
	}
}

func TestDipoleWater(t *testing.T) {
	res := runHF(t, chem.Water())
	eng := integrals.NewEngine(res.Set)
	mu := Dipole(res, eng)
	norm := math.Sqrt(mu[0]*mu[0] + mu[1]*mu[1] + mu[2]*mu[2])
	// RHF/STO-3G water dipole ≈ 0.68 a.u. (1.7 D); loose window.
	if norm < 0.4 || norm > 1.0 {
		t.Fatalf("water dipole %g a.u. out of window", norm)
	}
	// By symmetry (molecule in xz plane, C2v along z): μx ≈ μy ≈ 0... our
	// geometry has the H atoms symmetric about the z axis in the x
	// direction, so μx ≈ 0.
	if math.Abs(mu[0]) > 1e-6 {
		t.Fatalf("μx = %g should vanish by symmetry", mu[0])
	}
}

func TestH2DissociationCurveShape(t *testing.T) {
	// Energy must have a minimum near R=1.4 a0 in STO-3G.
	energies := map[float64]float64{}
	for _, r := range []float64{1.0, 1.4, 2.2} {
		res := runHF(t, chem.Hydrogen(r))
		energies[r] = res.Energy
	}
	if !(energies[1.4] < energies[1.0] && energies[1.4] < energies[2.2]) {
		t.Fatalf("no minimum at 1.4: %v", energies)
	}
}

func TestBaselineHFXOptionsGiveSameEnergy(t *testing.T) {
	resA, err := Run(chem.Water(), Config{HFX: hfx.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(chem.Water(), Config{HFX: hfx.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resA.Energy-resB.Energy) > 1e-6 {
		t.Fatalf("paper %f vs baseline %f", resA.Energy, resB.Energy)
	}
}

// TestBaselineHFXOptionsRespected guards against fillDefaults replacing
// an explicitly requested configuration. hfx.BaselineOptions() happens
// to have Balancer == sched.Block (0), Threads == 0 and DensityWeighted
// == false, which the old field-by-field "is it unset?" test mistook for
// the zero value — so a baseline run silently got the production options
// (vector kernels on). Only the full zero value means "use defaults".
func TestBaselineHFXOptionsRespected(t *testing.T) {
	res, err := Run(chem.Water(), Config{HFX: hfx.BaselineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("baseline SCF did not converge")
	}
	// The baseline has Vector off, so the report must show zero lane
	// utilisation; the production defaults would report > 0.
	if res.HFXReport.LaneUtilization != 0 {
		t.Fatalf("baseline options were replaced by defaults: lane utilisation %g",
			res.HFXReport.LaneUtilization)
	}
	// And the zero value must still mean "fill in the defaults".
	var cfg Config
	cfg.fillDefaults()
	if cfg.HFX != hfx.DefaultOptions() {
		t.Fatalf("zero HFX config not defaulted: %+v", cfg.HFX)
	}
}

func TestLevelShiftStillConverges(t *testing.T) {
	res, err := Run(chem.Water(), Config{LevelShift: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("level-shifted SCF did not converge")
	}
	if math.Abs(res.Energy-(-74.963)) > 5e-3 {
		t.Fatalf("level-shifted energy %.6f drifted", res.Energy)
	}
}

// TestLevelShiftLeavesOrbitalEnergies: a level shift steers the SCF but
// must not show in the reported orbital energies — every level of a
// shifted run agrees with the unshifted run's, in both drivers (water RHF;
// the Li atom's UHF, whose occupied spin levels the shift raises too).
func TestLevelShiftLeavesOrbitalEnergies(t *testing.T) {
	cfg := Config{EnergyTol: 1e-11, CommutatorTol: 1e-8}
	shifted := cfg
	shifted.LevelShift = 0.3
	agree := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Errorf("%s level %d: shifted %.6f, unshifted %.6f", name, i, got[i], want[i])
			}
		}
	}
	rhf := func(c Config) *Result {
		res, err := Run(chem.Water(), c)
		if err != nil || !res.Converged {
			t.Fatalf("water RHF: converged %v, err %v", res != nil && res.Converged, err)
		}
		return res
	}
	ref, sh := rhf(cfg), rhf(shifted)
	if math.Abs(sh.LUMO()-ref.LUMO()) > 1e-6 {
		t.Errorf("LUMO shifted %.6f, unshifted %.6f", sh.LUMO(), ref.LUMO())
	}
	agree("RHF", sh.OrbitalEnergies, ref.OrbitalEnergies)

	li := &chem.Molecule{Name: "Li", Atoms: []chem.Atom{{El: chem.Li}}}
	uhf := func(c Config) *UnrestrictedResult {
		res, err := RunUnrestricted(li, c, 2)
		if err != nil || !res.Converged {
			t.Fatalf("Li UHF: converged %v, err %v", res != nil && res.Converged, err)
		}
		return res
	}
	uref, ush := uhf(cfg), uhf(shifted)
	agree("UHF alpha", ush.EpsAlpha, uref.EpsAlpha)
	agree("UHF beta", ush.EpsBeta, uref.EpsBeta)
}

func TestSemiDirectSCFMatchesDirect(t *testing.T) {
	// Semi-direct builds (hfx.Options.CacheBudgetBytes) replay cached ERI
	// blocks instead of re-evaluating them; the SCF trajectory must be
	// unchanged to machine precision.
	cached := hfx.DefaultOptions()
	cached.CacheBudgetBytes = 64 << 20
	direct, err := Run(chem.Water(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := Run(chem.Water(), Config{HFX: cached})
	if err != nil {
		t.Fatal(err)
	}
	if !semi.Converged {
		t.Fatal("semi-direct SCF did not converge")
	}
	if d := math.Abs(direct.Energy - semi.Energy); d > 1e-12 {
		t.Fatalf("semi-direct energy differs by %g", d)
	}
	if semi.Iterations != direct.Iterations {
		t.Fatalf("iteration count diverged: %d vs %d", semi.Iterations, direct.Iterations)
	}
	rep := semi.HFXReport
	if !rep.Cache.Enabled {
		t.Fatal("cache not enabled in final report")
	}
	if rep.Metrics.Counter("ericache.hits").Value() == 0 {
		t.Fatal("SCF never replayed from the cache")
	}
}

func BenchmarkSCFWaterHF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(chem.Water(), Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWater631GAnchors(t *testing.T) {
	// Literature RHF values at the experimental geometry:
	// 6-31G ≈ −75.985 Eh; 6-31G* ≈ −76.011 Eh (d functions included).
	res, err := Run(chem.Water(), Config{Basis: "6-31G"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("6-31G water did not converge")
	}
	if math.Abs(res.Energy-(-75.985)) > 1e-2 {
		t.Fatalf("6-31G water %.6f want about -75.985", res.Energy)
	}
	resD, err := Run(chem.Water(), Config{Basis: "6-31G*"})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged {
		t.Fatal("6-31G* water did not converge")
	}
	if math.Abs(resD.Energy-(-76.011)) > 1.5e-2 {
		t.Fatalf("6-31G* water %.6f want about -76.011", resD.Energy)
	}
	// Variational ordering: bigger basis, lower energy.
	if !(resD.Energy < res.Energy) {
		t.Fatalf("6-31G* %.6f not below 6-31G %.6f", resD.Energy, res.Energy)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(chem.Water(), Config{Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must still be returned on cancellation")
	}
	if res.Converged || res.Iterations != 0 {
		t.Fatalf("pre-cancelled run must not iterate: converged=%v iters=%d",
			res.Converged, res.Iterations)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Ctx: ctx,
		OnIteration: func(iter int, energy, diisErr float64) {
			if iter == 2 {
				cancel()
			}
		},
	}
	res, err := Run(chem.Water(), cfg)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Iterations != 2 {
		t.Fatalf("cancellation is checked once per iteration: stopped after %d, want 2", res.Iterations)
	}
	if res.Converged {
		t.Fatal("cancelled run must not report convergence")
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(chem.Water(), Config{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestRunContextUHF(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Ctx: ctx}
	res, err := RunUnrestricted(chem.Water(), cfg, 1)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from UHF, got %v", err)
	}
	if res == nil || res.Iterations != 0 {
		t.Fatal("UHF must stop before the first iteration when pre-cancelled")
	}
}

// TestInitialDensityGuess pins the prefix-reuse path: restarting water
// from its own converged density must converge to the same energy in
// fewer iterations than the SAD cold start, and a wrong-sized initial
// density must be rejected before any iteration runs.
func TestInitialDensityGuess(t *testing.T) {
	mol := chem.Water()
	cold, err := Run(mol, Config{})
	if err != nil || !cold.Converged {
		t.Fatalf("cold run: %v (converged=%v)", err, cold != nil && cold.Converged)
	}
	warm, err := Run(mol, Config{InitialDensity: cold.P})
	if err != nil || !warm.Converged {
		t.Fatalf("warm run: %v", err)
	}
	if math.Abs(warm.Energy-cold.Energy) > 1e-8 {
		t.Fatalf("warm energy %.10f, cold %.10f", warm.Energy, cold.Energy)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("converged-density restart took %d iterations, cold start %d",
			warm.Iterations, cold.Iterations)
	}
	// The stored matrix must be cloned, not aliased, so the caller's copy
	// survives the run untouched.
	before := cold.P.Clone()
	if _, err := Run(mol, Config{InitialDensity: cold.P, MaxIter: 2, EnergyTol: 1e-14, CommutatorTol: 1e-14}); err != nil {
		t.Fatal(err)
	}
	if diff := linalg.MaxAbsDiff(before, cold.P); diff != 0 {
		t.Fatalf("InitialDensity was mutated by the run (diff %g)", diff)
	}

	bad := linalg.NewSquare(3)
	if _, err := Run(mol, Config{InitialDensity: bad}); err == nil {
		t.Fatal("dimension-mismatched initial density must be rejected")
	}
}

// The tabulated integrator and the closed-form PBE potential replaced a
// per-iteration basis evaluation and a finite-difference potential; the
// converged energies and grid electron counts below are what the replaced
// code produced with these tolerances on the default grid, recorded
// before it was removed. (The commutator tolerance is the tightest
// LiH/PBE reaches before DIIS stalls, with either potential.)
func TestXCEnergiesPinnedToFiniteDifferencePotential(t *testing.T) {
	for _, tc := range []struct {
		mol           *chem.Molecule
		f             dft.Functional
		energy, nelec float64
	}{
		{chem.Water(), dft.LDA{}, -74.740589753330, 10.02530760030579},
		{chem.Water(), dft.PBE{}, -75.237645427952, 10.02515801992357},
		{chem.Water(), dft.PBE0{}, -75.255494972237, 10.02523316610485},
		{chem.LithiumHydride(), dft.LDA{}, -7.792587925280, 3.99161896152869},
		{chem.LithiumHydride(), dft.PBE{}, -7.921764892445, 3.99207425463536},
		{chem.LithiumHydride(), dft.PBE0{}, -7.928555742522, 3.99196180822600},
	} {
		res, err := Run(tc.mol, Config{Functional: tc.f, EnergyTol: 1e-11, CommutatorTol: 2e-7})
		if err != nil {
			t.Fatal(err)
		}
		name := tc.mol.Formula() + "/" + tc.f.Name()
		if !res.Converged {
			t.Fatalf("%s did not converge in %d iterations", name, res.Iterations)
		}
		if d := math.Abs(res.Energy - tc.energy); d > 1e-8 {
			t.Fatalf("%s: energy %.12f, want %.12f (off by %.2g)", name, res.Energy, tc.energy, d)
		}
		if d := math.Abs(res.GridElectrons - tc.nelec); d > 1e-10 {
			t.Fatalf("%s: grid electrons %.14f, want %.14f (off by %.2g)", name, res.GridElectrons, tc.nelec, d)
		}
	}
}

// TestExternalBuilderMustMatchGeometry: a run on an external builder takes
// the builder's basis and engine, bit for bit the run on its own builder,
// and fails unless the builder is bound to the run's basis, elements and
// positions.
func TestExternalBuilderMustMatchGeometry(t *testing.T) {
	water := chem.Water()
	own := runHF(t, water)
	eng := integrals.NewEngine(basis.MustBuild("STO-3G", water))
	b := hfx.NewBuilder(eng, screen.BuildPairList(eng, screen.DefaultOptions()), hfx.DefaultOptions())
	defer b.Close()
	res, err := Run(water.Clone(), Config{ExternalBuilder: b})
	if err != nil || res.Energy != own.Energy || res.Set != eng.Basis {
		t.Fatalf("on the bound geometry: err %v, E %.12f (own builder %.12f), builder's basis %v",
			err, res.Energy, own.Energy, res != nil && res.Set == eng.Basis)
	}
	moved := water.Clone()
	moved.Atoms[1].Pos[0] += 1e-3
	hf := water.Clone()
	hf.Atoms[0].El, hf.Charge = chem.F, 1
	for name, run := range map[string]func() error{
		"moved atom":    func() error { _, err := Run(moved, Config{ExternalBuilder: b}); return err },
		"other element": func() error { _, err := Run(hf, Config{ExternalBuilder: b}); return err },
		"other basis":   func() error { _, err := Run(water, Config{Basis: "6-31G", ExternalBuilder: b}); return err },
		"fewer atoms":   func() error { _, err := Run(chem.Hydrogen(1.4), Config{ExternalBuilder: b}); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "external builder") {
			t.Errorf("%s: err %v, want the external builder's mismatch", name, err)
		}
	}
}

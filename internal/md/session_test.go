package md

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
	"hfxmd/internal/store"
)

func sessionCfg() scf.Config { return scf.Config{Basis: "STO-3G"} }

// nudged returns LiH with atom 1 displaced along z by dz bohr. LiH
// (not h2) because a 2-function system converges in ~3 iterations from
// any guess, leaving no headroom to measure warm-start savings.
func nudged(dz float64) *chem.Molecule {
	m := chem.LithiumHydride()
	m.Atoms[1].Pos[2] += dz
	return m
}

// TestSessionWarmStartReducesIterations drives a session through a
// sequence of MD-sized geometry steps and checks the two cross-step
// claims: the predictor-seeded SCFs converge in measurably fewer iterations
// than cold ones at the same geometries, to energies that agree with
// the cold answers to convergence tolerance; and the screening pair
// list is built once and rebound thereafter.
func TestSessionWarmStartReducesIterations(t *testing.T) {
	steps := []float64{0, 0.01, 0.02, 0.03, 0.04}

	var coldIters int64
	coldE := make([]float64, len(steps))
	for i, dz := range steps {
		res, err := scf.Run(nudged(dz), sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		coldIters += int64(res.Iterations)
		coldE[i] = res.Energy
	}

	s := NewSession(sessionCfg(), SessionOptions{})
	defer s.Close()
	for i, dz := range steps {
		res, err := s.Run(nudged(dz))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("step %d did not converge", i)
		}
		if d := math.Abs(res.Energy - coldE[i]); d > 1e-7 {
			t.Fatalf("step %d: seeded energy off by %.3e Eh from cold", i, d)
		}
	}
	st := s.Stats()
	if st.Runs != int64(len(steps)) || st.WarmStarts != int64(len(steps)-1) || st.ColdStarts != 1 {
		t.Fatalf("stats %+v: want %d runs, %d warm starts, 1 cold", st, len(steps), len(steps)-1)
	}
	if st.PairListBuilds != 1 || st.PairListReuses != int64(len(steps)-1) {
		t.Fatalf("stats %+v: pair list should be built once and rebound %d times", st, len(steps)-1)
	}
	if st.SCFIterations >= coldIters {
		t.Fatalf("warm session took %d SCF iterations, cold sequence %d — no reduction", st.SCFIterations, coldIters)
	}
	t.Logf("SCF iterations: warm %d vs cold %d", st.SCFIterations, coldIters)
}

// TestSessionInvalidationBound: a displacement past MaxDisplacement
// must rebuild the pair list (and reset the reuse reference), one
// within the bound must rebind.
func TestSessionInvalidationBound(t *testing.T) {
	s := NewSession(sessionCfg(), SessionOptions{MaxDisplacement: 0.05})
	defer s.Close()
	for _, dz := range []float64{0, 0.04} { // within bound
		if _, err := s.Run(nudged(dz)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PairListBuilds != 1 || st.PairListReuses != 1 {
		t.Fatalf("within-bound step should rebind, stats %+v", st)
	}
	if _, err := s.Run(nudged(0.2)); err != nil { // past bound vs reference at 0
		t.Fatal(err)
	}
	if st := s.Stats(); st.PairListBuilds != 2 {
		t.Fatalf("past-bound step should rebuild the pair list, stats %+v", st)
	}
	// The reference moved to 0.2: a nearby geometry rebinds again.
	if _, err := s.Run(nudged(0.21)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PairListBuilds != 2 || st.PairListReuses != 2 {
		t.Fatalf("post-rebuild step should rebind against the new reference, stats %+v", st)
	}
}

// TestSessionSumsEveryBuild: HFXSums adds every Fock build of every
// builder the session ran once, across a pair-list rebuild. Under plain
// screening each build on one pair list computes the same quartets, so
// the quartet sum is Σ builds × that build's count.
func TestSessionSumsEveryBuild(t *testing.T) {
	cfg := sessionCfg()
	cfg.HFX = hfx.DefaultOptions()
	cfg.HFX.DensityWeighted = false
	s := NewSession(cfg, SessionOptions{MaxDisplacement: 0.05})
	defer s.Close()
	var builds, quartets int64
	for _, dz := range []float64{0, 0.04, 0.2, 0.21} { // the third step rebuilds
		res, err := s.Run(nudged(dz))
		if err != nil {
			t.Fatal(err)
		}
		n := s.Stats().FockBuilds - builds
		builds += n
		quartets += n * res.HFXReport.QuartetsComputed
	}
	st := s.Stats()
	if st.PairListBuilds != 2 {
		t.Fatalf("want one rebuild, stats %+v", st)
	}
	if st.HFXSums[0] != st.FockBuilds || st.HFXSums[1] != quartets {
		t.Fatalf("HFXSums builds/quartets %d/%d, want %d/%d", st.HFXSums[0], st.HFXSums[1], st.FockBuilds, quartets)
	}
}

// TestSessionCompositionChange: a different system can never reuse the
// builder, whatever the displacement metric says.
func TestSessionCompositionChange(t *testing.T) {
	s := NewSession(sessionCfg(), SessionOptions{MaxDisplacement: 1e9})
	defer s.Close()
	if _, err := s.Run(chem.Hydrogen(1.4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(chem.Helium()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PairListBuilds != 2 || st.PairListReuses != 0 {
		t.Fatalf("composition change must rebuild, stats %+v", st)
	}
}

// handedBuilder is a builder made outside a session, under the options a
// session defaults to, on mol's own engine.
func handedBuilder(t *testing.T, mol *chem.Molecule) *hfx.Builder {
	t.Helper()
	set, err := basis.Build("STO-3G", mol)
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(set)
	return hfx.NewBuilder(eng, screen.BuildPairList(eng, screen.DefaultOptions()), hfx.DefaultOptions())
}

// TestSessionRunsOnHandedBuilder: a builder handed in through
// cfg.ExternalBuilder is the builder of the session's first pair list. The
// first step runs on it and its engine, screens nothing and counts as the
// step's pair-list build, and its energy and forces are the bits of a
// session that screened for itself; the next step rebinds it like any
// builder the session made.
func TestSessionRunsOnHandedBuilder(t *testing.T) {
	cfg := sessionCfg()
	cfg.Functional = dft.PBE0{}
	own := NewSession(cfg, SessionOptions{})
	defer own.Close()
	wantF, wantE, err := own.Forces(nudged(0.01), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := own.Stats(); st.Screenings != 1 || st.ScreenWallNS <= 0 || st.PairListBuilds != 1 {
		t.Fatalf("a session that screens for itself: %+v", st)
	}

	b := handedBuilder(t, nudged(0.01))
	eng := b.Eng
	cfg.ExternalBuilder = b
	s := NewSession(cfg, SessionOptions{})
	defer s.Close()
	f, e, err := s.Forces(nudged(0.01), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.builder != b || b.Eng != eng {
		t.Fatal("the first step did not run on the handed builder and its engine")
	}
	st := s.Stats()
	if st.Screenings != 0 || st.ScreenWallNS != 0 || st.PairListBuilds != 1 || st.PairListReuses != 0 {
		t.Fatalf("a session on a handed builder: %+v, want one build and no screening of its own", st)
	}
	if math.Float64bits(e) != math.Float64bits(wantE) {
		t.Fatalf("energy %.17g on the handed builder, %.17g screened by the session", e, wantE)
	}
	for i := range f {
		if f[i] != wantF[i] {
			t.Fatalf("force[%d] %v on the handed builder, %v screened by the session", i, f[i], wantF[i])
		}
	}
	if _, _, err := s.Forces(nudged(0.02), 0, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); s.builder != b || st.PairListBuilds != 1 || st.PairListReuses != 1 || st.Screenings != 0 {
		t.Fatalf("the second step should rebind the handed builder: %+v", st)
	}
}

// TestSessionRebindsMovedHandedBuilder: a first geometry within the
// displacement bound of the handed builder's rebinds it, still as the
// step's pair-list build.
func TestSessionRebindsMovedHandedBuilder(t *testing.T) {
	cfg := sessionCfg()
	b := handedBuilder(t, nudged(0))
	eng := b.Eng
	cfg.ExternalBuilder = b
	s := NewSession(cfg, SessionOptions{})
	defer s.Close()
	if _, err := s.Run(nudged(0.01)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); s.builder != b || b.Eng == eng || st.PairListBuilds != 1 || st.PairListReuses != 0 || st.Screenings != 0 {
		t.Fatalf("a moved first geometry should rebind the handed builder as its build: %+v", st)
	}
}

// TestSessionReplacesStaleHandedBuilder: a handed builder bound to another
// composition is closed and replaced on the first step, like any stale
// builder; no goroutine of it outlives the session.
func TestSessionReplacesStaleHandedBuilder(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := sessionCfg()
	b := handedBuilder(t, chem.Hydrogen(1.4))
	cfg.ExternalBuilder = b
	s := NewSession(cfg, SessionOptions{MaxDisplacement: 1e9})
	if _, err := s.Run(chem.LithiumHydride()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); s.builder == b || st.PairListBuilds != 1 || st.Screenings != 1 {
		t.Fatalf("a handed builder of another composition must be replaced: %+v", st)
	}
	s.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d: the replaced builder was not closed", before, runtime.NumGoroutine())
		}
	}
}

// TestSessionStepComputesOverlapOnce: the predictor and the solver of a
// served step read S from one engine, the builder's, so each step walks
// the S pass once — the cold first step, the pair-list rebuild and the
// warm steps alike.
func TestSessionStepComputesOverlapOnce(t *testing.T) {
	cfg := sessionCfg()
	cfg.Functional = dft.PBE0{}
	s := NewSession(cfg, SessionOptions{MaxDisplacement: 0.015})
	defer s.Close()
	for _, dz := range []float64{0, 0.01, 0.02, 0.03} {
		before := integrals.OverlapPasses()
		if _, _, err := s.Forces(nudged(dz), 0, 1); err != nil {
			t.Fatal(err)
		}
		if n := integrals.OverlapPasses() - before; n != 1 {
			t.Fatalf("step at dz = %g walked the S pass %d times, want 1", dz, n)
		}
	}
	if st := s.Stats(); st.PairListBuilds < 2 || st.PairListReuses == 0 || st.WarmStarts == 0 {
		t.Fatalf("steps did not cover a rebuild, a reuse and a warm start: %+v", st)
	}
}

// coldFDForces is the oracle of the analytic evaluators: central
// finite differences over cold SCFs, tightly converged so that the
// quotient's noise (energy residual over h) stays below the comparison.
func coldFDForces(t *testing.T, mol *chem.Molecule, cfg scf.Config) []chem.Vec3 {
	t.Helper()
	cfg.EnergyTol, cfg.CommutatorTol = 1e-11, 1e-8
	f, err := ForcesN(mol, SCFPotential(cfg), 2e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func requireForcesClose(t *testing.T, what string, got, want []chem.Vec3, tol float64) {
	t.Helper()
	for i := range want {
		for c := 0; c < 3; c++ {
			if d := math.Abs(got[i][c] - want[i][c]); d > tol {
				t.Fatalf("%s force[%d][%d]: %g vs cold FD %g (|Δ| %.3e)", what, i, c, got[i][c], want[i][c], d)
			}
		}
	}
}

// TestSCFForcesMatchColdFD: the state-free evaluator — a cold SCF plus
// its analytic gradient — agrees with finite differences over cold SCFs
// at the served tolerances, returns the cold energy, and is a pure
// function of the geometry: two calls agree to the bit.
func TestSCFForcesMatchColdFD(t *testing.T) {
	mol := chem.LithiumHydride()
	cfg := sessionCfg()
	cfg.Functional = dft.PBE0{}
	eval := SCFForces(cfg)
	epot, f, err := eval(mol)
	if err != nil {
		t.Fatal(err)
	}
	requireForcesClose(t, "state-free", f, coldFDForces(t, mol, cfg), 2e-5)
	cres, err := scf.Run(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if epot != cres.Energy {
		t.Fatalf("state-free energy %.17g, cold SCF %.17g", epot, cres.Energy)
	}
	epot2, f2, err := eval(mol)
	if err != nil {
		t.Fatal(err)
	}
	if epot2 != epot {
		t.Fatalf("second evaluation energy %.17g != %.17g", epot2, epot)
	}
	for i := range f {
		if f2[i] != f[i] {
			t.Fatalf("second evaluation force[%d] %v != %v", i, f2[i], f[i])
		}
	}
}

// TestSessionForcesMatchColdForces: the session's shortcuts (predicted
// seeds across steps, rebound pair list and builder) must not change the physics —
// analytic forces on the warm path agree with finite differences over
// cold SCFs, for one SCF and no displaced run.
func TestSessionForcesMatchColdForces(t *testing.T) {
	mol := nudged(0.02)
	cfg := sessionCfg()
	cfg.Functional = dft.PBE0{}
	coldF := coldFDForces(t, mol, cfg)

	s := NewSession(cfg, SessionOptions{})
	defer s.Close()
	// Prime the session at a neighbouring geometry so the test exercises
	// the warm path, not the first cold run.
	if _, err := s.Run(nudged(0)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	f, epot, err := s.Forces(mol, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := scf.Run(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(epot - cres.Energy); d > 1e-7 {
		t.Fatalf("session energy off by %.3e Eh", d)
	}
	requireForcesClose(t, "session", f, coldF, 2e-5)
	st := s.Stats()
	if st.DisplacedRuns != 0 || st.Runs != before.Runs+1 || st.WarmStarts != before.WarmStarts+1 ||
		st.PairListReuses != before.PairListReuses+1 {
		t.Fatalf("stats %+v after %+v: want one warm, rebound SCF and no displaced run", st, before)
	}
	if iters := st.SCFIterations - before.SCFIterations; iters >= int64(cres.Iterations) {
		t.Fatalf("warm force evaluation took %d SCF iterations, a cold SCF %d", iters, cres.Iterations)
	}
}

// TestSessionStoreSeedsFreshSession: a session with a Store persists each
// converged density, and a fresh session sharing the store (another
// process, the next aimd run) starts its first SCF from it — in fewer
// iterations than cold, to the state-free evaluator's energy and forces.
// An entry whose atoms list the elements in another order shares the
// prefix key but cannot seed: that session starts cold.
func TestSessionStoreSeedsFreshSession(t *testing.T) {
	st, err := store.Open(store.Options{}) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := sessionCfg()
	forces := func(m *chem.Molecule) SessionStats {
		t.Helper()
		s := NewSession(cfg, SessionOptions{Store: st})
		defer s.Close()
		if _, _, err := s.Forces(m, 0, 1); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	if s1 := forces(nudged(0)); s1.ColdStarts != 1 || s1.StoreSeeds != 0 {
		t.Fatalf("first session on an empty store: %+v", s1)
	}
	if _, ok := st.Get(scf.DensityKey(cfg, nudged(0))); !ok {
		t.Fatal("first session persisted no density")
	}

	mol := nudged(0.02)
	s2 := NewSession(cfg, SessionOptions{Store: st})
	defer s2.Close()
	f, epot, err := s2.Forces(mol, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Stats(); st2.StoreSeeds != 1 || st2.ColdStarts != 0 || st2.Fallbacks != 0 {
		t.Fatalf("fresh session at a nudged geometry: %+v, want one store seed", st2)
	}
	cres, err := scf.Run(mol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if iters := s2.Stats().SCFIterations; iters >= int64(cres.Iterations) {
		t.Fatalf("store-seeded SCF took %d iterations, cold %d", iters, cres.Iterations)
	}
	eCold, fCold, err := SCFForces(cfg)(mol)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(epot - eCold); d > 1e-8 {
		t.Fatalf("store-seeded energy off by %.3e Eh from cold", d)
	}
	for i := range fCold {
		for c := 0; c < 3; c++ {
			if d := math.Abs(f[i][c] - fCold[i][c]); d > 1e-6 {
				t.Fatalf("force[%d][%d]: %g vs cold %g", i, c, f[i][c], fCold[i][c])
			}
		}
	}

	swapped := nudged(0.02)
	swapped.Atoms[0], swapped.Atoms[1] = swapped.Atoms[1], swapped.Atoms[0]
	if s3 := forces(swapped); s3.ColdStarts != 1 || s3.StoreSeeds != 0 {
		t.Fatalf("entry for another atom order seeded the SCF: %+v", s3)
	}
}

// TestSessionForcesRefuseUnconverged: when neither the seeded SCF nor its
// cold retry converges, Forces reports the geometry as unconverged — the
// error md has always returned — and no force.
func TestSessionForcesRefuseUnconverged(t *testing.T) {
	cfg := sessionCfg()
	cfg.MaxIter = 2
	s := NewSession(cfg, SessionOptions{})
	defer s.Close()
	f, _, err := s.Forces(chem.LithiumHydride(), 0, 1)
	if f != nil || !errors.Is(err, scf.ErrNotConverged) || !strings.Contains(err.Error(), "md: SCF not converged at this geometry") {
		t.Fatalf("forces %v, err %v", f, err)
	}
}

// TestSessionForcesSteadyStateAllocs: on a warm session a force evaluation
// allocates per SCF iteration and per shell pair, not per quartet or per
// grid block — its allocation count does not grow with the gradient's
// quartet and grid loops, which own all their buffers after the first call.
func TestSessionForcesSteadyStateAllocs(t *testing.T) {
	cfg := sessionCfg()
	cfg.Functional = dft.PBE0{}
	cfg.HFX = hfx.DefaultOptions()
	cfg.HFX.Threads = 1
	s := NewSession(cfg, SessionOptions{})
	defer s.Close()
	mol := chem.LithiumHydride()
	if _, _, err := s.Forces(mol, 0, 1); err != nil {
		t.Fatal(err)
	}
	var scfOnly, withForces float64
	scfOnly = testing.AllocsPerRun(3, func() {
		if _, err := s.Run(mol); err != nil {
			t.Fatal(err)
		}
	})
	withForces = testing.AllocsPerRun(3, func() {
		if _, _, err := s.Forces(mol, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	// LiH has 55 quartets and 52 grid blocks of 32 points: one allocation
	// in either loop would add ≥ 50 to the ~115 of the once-per-evaluation
	// set-up (result slices, derivative tables of the ten shell pairs, the
	// ∇∇φ table of the new grid).
	if extra := withForces - scfOnly; extra > 150 {
		t.Fatalf("gradient adds %.0f allocations to a warm SCF (%.0f vs %.0f)", extra, withForces, scfOnly)
	}
	t.Logf("allocations: warm SCF %.0f, warm SCF + gradient %.0f", scfOnly, withForces)
}

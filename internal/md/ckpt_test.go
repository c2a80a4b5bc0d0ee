package md

import (
	"bytes"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/scf"
)

// ckptOpts is the shared trajectory configuration for the resume tests:
// a thermostatted water-cluster run on the analytic spring surface, so
// every integrator feature (velocity init, Berendsen, drift extrema) is
// exercised without paying for SCF.
func ckptOpts(steps int) Options {
	return Options{
		Steps: steps, Dt: 0.5, TemperatureK: 300, Thermostat: true, TauFS: 5,
		FDStep: 1e-4, Seed: 11,
	}
}

func ckptMol() *chem.Molecule { return chem.WaterCluster(2, 3) }
func ckptPot() PotentialFunc  { return springPot(0.1, 2.0) }

// runUninterrupted is the reference: one continuous trajectory.
func runUninterrupted(t *testing.T, steps int) *Trajectory {
	t.Helper()
	traj, err := Run(ckptMol(), ckptPot(), ckptOpts(steps))
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// assertBitwiseEqual compares two final states through the canonical
// encoding: every position, velocity, force, energy and extremum bit.
func assertBitwiseEqual(t *testing.T, got, want *ckpt.MDState) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("missing final state (got %v, want %v)", got, want)
	}
	if !bytes.Equal(ckpt.EncodeState(got), ckpt.EncodeState(want)) {
		t.Fatalf("final states differ:\n got step %d epot %x\nwant step %d epot %x",
			got.Step, math.Float64bits(got.Epot), want.Step, math.Float64bits(want.Epot))
	}
}

// crashAndResume runs with the given fault plan until the injected
// crash, then resumes from the checkpoint directory and returns the
// completed trajectory.
func crashAndResume(t *testing.T, steps int, plan *ckpt.FaultPlan, every int64) *Trajectory {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: every, Keep: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	opts := ckptOpts(steps)
	opts.Ckpt = w
	_, err = Run(ckptMol(), ckptPot(), opts)
	if !errors.Is(err, ckpt.ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	var se *StepError
	if !errors.As(err, &se) || int64(se.Step) != plan.CrashAtStep {
		t.Fatalf("crash should surface as StepError at step %d, got %v", plan.CrashAtStep, err)
	}
	w.Close()

	res, err := ckpt.Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: every, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	opts = ckptOpts(steps)
	opts.Ckpt = w2
	opts.Resume = res.State
	traj, err := Run(ckptMol(), ckptPot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

func TestResumeBitwiseIdenticalCleanCrash(t *testing.T) {
	const steps = 30
	ref := runUninterrupted(t, steps)
	got := crashAndResume(t, steps, &ckpt.FaultPlan{CrashAtStep: 17}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatalf("drift differs: %x vs %x",
			math.Float64bits(got.EnergyDrift()), math.Float64bits(ref.EnergyDrift()))
	}
}

func TestResumeBitwiseIdenticalTornWrite(t *testing.T) {
	const steps = 30
	ref := runUninterrupted(t, steps)
	// The torn record for step 17 must be discarded; resume restarts
	// from step 16 and still lands on the identical final state.
	got := crashAndResume(t, steps, &ckpt.FaultPlan{CrashAtStep: 17, TornWrite: true}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after torn-write resume")
	}
}

func TestResumeBitwiseIdenticalCorruptSnapshot(t *testing.T) {
	const steps = 30
	ref := runUninterrupted(t, steps)
	// Crash exactly at a snapshot step with the fresh snapshot (step 16)
	// corrupted: the journal was just reset, so resume must fall back to
	// the previous ring entry (step 8) and re-integrate forward.
	got := crashAndResume(t, steps,
		&ckpt.FaultPlan{CrashAtStep: 16, CorruptSection: ckpt.SectionVelocities}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after corrupt-snapshot resume")
	}
	if first := got.Frames[0].Step; first != 8 {
		t.Fatalf("corrupt-snapshot resume should restart from the ring fallback at 8, got %d", first)
	}
}

func TestResumeEnergyConservationAcrossBoundary(t *testing.T) {
	// NVE (no thermostat): the drift of a resumed run must equal the
	// uninterrupted drift to the last ulp, and stay physically small.
	const steps = 200
	opts := Options{Steps: steps, Dt: 0.25, FDStep: 1e-4}
	ref, err := Run(chem.Hydrogen(1.5), springPot(0.35, 1.4), opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 25, Keep: 2,
		Plan: &ckpt.FaultPlan{CrashAtStep: 90}})
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Ckpt = w
	if _, err := Run(chem.Hydrogen(1.5), springPot(0.35, 1.4), o); !errors.Is(err, ckpt.ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	w.Close()
	res, err := ckpt.Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	o = opts
	o.Resume = res.State
	got, err := Run(chem.Hydrogen(1.5), springPot(0.35, 1.4), o)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, got.Final, ref.Final)
	if gd, rd := got.EnergyDrift(), ref.EnergyDrift(); math.Float64bits(gd) != math.Float64bits(rd) {
		t.Fatalf("drift across resume boundary: %g (%x) vs %g (%x)",
			gd, math.Float64bits(gd), rd, math.Float64bits(rd))
	}
	if got.EnergyDrift() > 3e-5 {
		t.Fatalf("resumed NVE drift %g Eh/atom too large", got.EnergyDrift())
	}
}

func TestResumeRejectsMismatchedParams(t *testing.T) {
	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 5, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := ckptOpts(10)
	opts.Ckpt = w
	if _, err := Run(ckptMol(), ckptPot(), opts); err != nil {
		t.Fatal(err)
	}
	w.Close()
	res, err := ckpt.Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := ckptOpts(20)
	bad.Dt = 0.4 // different timestep: different dynamics
	bad.Resume = res.State
	if _, err := Run(ckptMol(), ckptPot(), bad); err == nil {
		t.Fatal("resume with a different timestep must be rejected")
	}
	// Different molecule: atom count mismatch.
	other := ckptOpts(20)
	other.Resume = res.State
	if _, err := Run(chem.Hydrogen(1.4), ckptPot(), other); err == nil {
		t.Fatal("resume with a different molecule must be rejected")
	}
}

func TestStepErrorCarriesStepIndex(t *testing.T) {
	// A potential that dies mid-trajectory must surface a typed
	// StepError with the failing step, not a bare string.
	fail := errors.New("md test: potential blew up")
	var calls atomic.Int64 // ForcesN evaluates displacements concurrently
	pot := func(m *chem.Molecule) (float64, error) {
		if calls.Add(1) > 30 { // initial Forces+pot plus a few steps
			return 0, fail
		}
		return springPot(0.35, 1.4)(m)
	}
	_, err := Run(chem.Hydrogen(1.5), pot, Options{Steps: 50, Dt: 0.25, FDStep: 1e-4})
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %T: %v", err, err)
	}
	if se.Step <= 0 {
		t.Fatalf("StepError.Step = %d, want mid-trajectory step", se.Step)
	}
	if !errors.Is(err, fail) {
		t.Fatal("StepError must unwrap to the underlying cause")
	}
}

func TestSCFNonConvergenceSurfacesAsStepError(t *testing.T) {
	// An SCF that converges at the initial geometry but not later must
	// produce a StepError carrying the failing step so a driver can
	// resume from the last snapshot and retry. The first few potential
	// evaluations (initial energy + finite-difference forces) use the
	// analytic spring; later calls hit a real SCF capped at one
	// iteration, which cannot converge.
	var calls atomic.Int64
	good := springPot(0.35, 1.4)
	diverge := SCFPotential(scf.Config{MaxIter: 1})
	pot := func(m *chem.Molecule) (float64, error) {
		if calls.Add(1) > 30 {
			return diverge(m)
		}
		return good(m)
	}
	_, err := Run(chem.Hydrogen(1.5), pot, Options{Steps: 50, Dt: 0.25, FDStep: 1e-4})
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %T: %v", err, err)
	}
	if se.Step <= 0 {
		t.Fatalf("StepError.Step = %d, want mid-trajectory step", se.Step)
	}
}

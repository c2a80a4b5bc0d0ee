package md_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
)

// ckptOpts is the shared trajectory configuration for the resume tests:
// a thermostatted water-cluster run on the spring surface, so every
// integrator feature (velocity init, Berendsen, drift extrema) is
// exercised without paying for SCF.
func ckptOpts(steps int) respa.Options {
	return respa.Options{
		Steps: steps, Dt: 0.5, TemperatureK: 300, Thermostat: true, TauFS: 5, Seed: 11,
	}
}

func ckptMol() *chem.Molecule { return chem.WaterCluster(2, 3) }
func ckptSurf() md.Surface    { return md.FDSurface(springPot(0.1, 2.0), 1e-4, 0) }

// runUninterrupted is the reference: one continuous trajectory.
func runUninterrupted(t *testing.T, steps int) *md.Trajectory {
	t.Helper()
	traj, err := verlet(ckptMol(), ckptSurf(), ckptOpts(steps))
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

// crashAndResume runs mol on surf with the given fault plan until the
// injected crash, then resumes from the checkpoint directory and returns
// the completed trajectory.
func crashAndResume(t *testing.T, mol *chem.Molecule, surf md.Surface, opts respa.Options, plan *ckpt.FaultPlan, every int64) *md.Trajectory {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: every, Keep: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Ckpt = w
	_, err = verlet(mol, surf, o)
	if !errors.Is(err, ckpt.ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", err)
	}
	var se *md.StepError
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
	o = opts
	o.Ckpt = w2
	o.Resume = res.State
	traj, err := verlet(mol, surf, o)
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

func TestResumeBitwiseIdenticalCleanCrash(t *testing.T) {
	const steps = 30
	ref := runUninterrupted(t, steps)
	got := crashAndResume(t, ckptMol(), ckptSurf(), ckptOpts(steps), &ckpt.FaultPlan{CrashAtStep: 17}, 8)
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
	got := crashAndResume(t, ckptMol(), ckptSurf(), ckptOpts(steps),
		&ckpt.FaultPlan{CrashAtStep: 17, TornWrite: true}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after torn-write resume")
	}
}

func TestResumeBitwiseIdenticalCorruptSnapshot(t *testing.T) {
	const steps = 30
	ref := runUninterrupted(t, steps)
	// Crash exactly at a segment opening with its fresh opening record
	// (step 16) corrupted: resume must fall back to the last record of
	// the previous segment (step 15) and re-integrate forward.
	got := crashAndResume(t, ckptMol(), ckptSurf(), ckptOpts(steps),
		&ckpt.FaultPlan{CrashAtStep: 16, CorruptSnapshot: true}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after corrupt-snapshot resume")
	}
	if first := got.Frames[0].Step; first != 15 {
		t.Fatalf("corrupt-snapshot resume should restart from the previous segment's last record at 15, got %d", first)
	}
}

func TestResumeEnergyConservationAcrossBoundary(t *testing.T) {
	// NVE (no thermostat): the drift of a resumed run must equal the
	// uninterrupted drift to the last ulp, and stay physically small.
	mol, surf := chem.Hydrogen(1.5), md.FDSurface(springPot(0.35, 1.4), 1e-4, 0)
	opts := respa.Options{Steps: 200, Dt: 0.25}
	ref, err := verlet(mol, surf, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := crashAndResume(t, mol, surf, opts, &ckpt.FaultPlan{CrashAtStep: 90}, 25)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if gd, rd := got.EnergyDrift(), ref.EnergyDrift(); math.Float64bits(gd) != math.Float64bits(rd) {
		t.Fatalf("drift across resume boundary: %g (%x) vs %g (%x)",
			gd, math.Float64bits(gd), rd, math.Float64bits(rd))
	}
	if got.EnergyDrift() > 3e-5 {
		t.Fatalf("resumed NVE drift %g Eh/atom too large", got.EnergyDrift())
	}
}

// TestResumeRejectsMismatchedParams covers the fingerprint fields the
// RESPA split test does not: the thermostat settings and the system.
func TestResumeRejectsMismatchedParams(t *testing.T) {
	st := runUninterrupted(t, 10).Final
	for name, mut := range map[string]func(*respa.Options){
		"thermostat": func(o *respa.Options) { o.Thermostat = false },
		"tau":        func(o *respa.Options) { o.TauFS = 7 },
	} {
		bad := ckptOpts(20)
		mut(&bad)
		bad.Resume = st
		if _, err := verlet(ckptMol(), ckptSurf(), bad); err == nil {
			t.Fatalf("resume with a different %s must be rejected", name)
		}
	}
	// Different molecule: atom count mismatch.
	other := ckptOpts(20)
	other.Resume = st
	if _, err := verlet(chem.Hydrogen(1.4), ckptSurf(), other); err == nil {
		t.Fatal("resume with a different molecule must be rejected")
	}
}

// failingAfter serves good for the first n surface calls and bad after.
func failingAfter(n int, good, bad md.Surface) md.Surface {
	calls := 0
	return func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		if calls++; calls > n {
			return bad(m)
		}
		return good(m)
	}
}

func TestStepErrorCarriesStepIndex(t *testing.T) {
	// A surface that dies mid-trajectory must surface a typed StepError
	// with the failing step, not a bare string. Call 1 is step 0.
	fail := errors.New("md test: potential blew up")
	surf := failingAfter(3, md.FDSurface(springPot(0.35, 1.4), 1e-4, 0),
		func(*chem.Molecule) (float64, []chem.Vec3, error) { return 0, nil, fail })
	_, err := verlet(chem.Hydrogen(1.5), surf, respa.Options{Steps: 50, Dt: 0.25})
	var se *md.StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %T: %v", err, err)
	}
	if se.Step != 3 {
		t.Fatalf("StepError.Step = %d, want 3", se.Step)
	}
	if !errors.Is(err, fail) {
		t.Fatal("StepError must unwrap to the underlying cause")
	}
}

func TestSCFNonConvergenceSurfacesAsStepError(t *testing.T) {
	// An SCF that converges at the initial geometry but not later must
	// produce a StepError carrying the failing step so a driver can
	// resume from the last snapshot and retry. The first surface calls
	// use the spring; later ones hit a real SCF capped at one iteration,
	// which cannot converge.
	surf := failingAfter(3, md.FDSurface(springPot(0.35, 1.4), 1e-4, 0),
		md.SCFForces(scf.Config{MaxIter: 1}))
	_, err := verlet(chem.Hydrogen(1.5), surf, respa.Options{Steps: 50, Dt: 0.25})
	var se *md.StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *StepError, got %T: %v", err, err)
	}
	if se.Step != 3 || !errors.Is(err, scf.ErrNotConverged) {
		t.Fatalf("want step 3 wrapping scf.ErrNotConverged, got %v", err)
	}
}

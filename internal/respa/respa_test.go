package respa

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/dft"
	"hfxmd/internal/md"
	"hfxmd/internal/phys"
	"hfxmd/internal/scf"
)

// springEval is an analytic all-pairs harmonic surface with exact
// forces — the full (slow) surface of these tests, so the integrator is
// exercised without SCF and without finite-difference noise.
func springEval(k, r0 float64) Evaluator {
	return func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		n := m.NAtoms()
		f := make([]chem.Vec3, n)
		var e float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := m.Atoms[j].Pos.Sub(m.Atoms[i].Pos)
				r := d.Norm()
				x := r - r0
				e += 0.5 * k * x * x
				// F_j = −k(r−r0)·d̂ (pulls the pair back to r0).
				for c := 0; c < 3; c++ {
					g := -k * x * d[c] / r
					f[j][c] += g
					f[i][c] -= g
				}
			}
		}
		return e, f, nil
	}
}

// springField is the forces-only form — the cheap reference, with a
// deliberately different spring constant so F_slow = F_full − F_cheap
// is non-zero and the slow kicks actually matter.
func springField(k, r0 float64) ForceField {
	eval := springEval(k, r0)
	return func(m *chem.Molecule) ([]chem.Vec3, error) {
		_, f, err := eval(m)
		return f, err
	}
}

func respaMol() *chem.Molecule { return chem.WaterCluster(2, 3) }

// respaOpts integrates the same total simulated time at every k: the
// inner timestep is fixed, outer steps shrink as k grows.
func respaOpts(totalInner, k int) Options {
	return Options{
		Steps: totalInner / k, K: k, Dt: 0.25,
		TemperatureK: 300, Seed: 11,
	}
}

const (
	fullK  = 0.10 // full-surface spring constant
	cheapK = 0.08 // cheap reference: 20% off, so the correction is real
	bondR0 = 2.0
)

func runRESPA(t *testing.T, totalInner, k int, mut func(*Options)) *md.Trajectory {
	t.Helper()
	opts := respaOpts(totalInner, k)
	if mut != nil {
		mut(&opts)
	}
	traj, err := Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts)
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestDriftAcrossK is the energy-drift gate: the conserved quantity
// E_full + E_kin, recorded at outer boundaries, must stay physically
// small at every split and must not blow up relative to the k=1
// baseline as the full force is applied 8× less often. The system is
// the md-layer conservation benchmark (stretched H2 on a bond spring,
// static start) so the k=1 row inherits its 3e-5 Eh/atom gate; the
// cheap reference is ~14% off the full surface, so the slow correction
// — the part integrated at k·δt — is genuinely exercised.
func TestDriftAcrossK(t *testing.T) {
	const totalInner = 256
	mol := chem.Hydrogen(1.5)
	full := springEval(0.35, 1.4)
	cheap := springField(0.30, 1.4)
	drifts := map[int]float64{}
	for _, k := range []int{1, 2, 4, 8} {
		traj, err := Run(mol, full, cheap, Options{Steps: totalInner / k, K: k, Dt: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if want := totalInner/k + 1; len(traj.Frames) != want {
			t.Fatalf("k=%d recorded %d frames, want %d (outer boundaries only)", k, len(traj.Frames), want)
		}
		drifts[k] = traj.EnergyDrift()
		t.Logf("k=%d drift %.3e Eh/atom", k, drifts[k])
	}
	if drifts[1] > 3e-5 {
		t.Fatalf("k=1 baseline drift %.3e Eh/atom too large", drifts[1])
	}
	assertK2Drift(t, drifts)
}

// assertK2Drift gates every split against the k=1 baseline. The slow
// component sees an effective timestep of k·δt, so its drift
// contribution grows ~k²: each drift must stay within that scaling law
// with 2x headroom (a sign error or a missed half-kick lands orders of
// magnitude above it) and under an absolute ceiling.
func assertK2Drift(t *testing.T, drifts map[int]float64) {
	t.Helper()
	floor := math.Max(drifts[1], 1e-6)
	for k, d := range drifts {
		if bound := 2 * float64(k*k) * floor; d > bound {
			t.Errorf("k=%d drift %.3e exceeds the k^2 scaling bound %.3e", k, d, bound)
		}
		if d > 5e-4 {
			t.Errorf("k=%d drift %.3e Eh/atom above the absolute ceiling", k, d)
		}
	}
}

// TestSessionDriftAcrossK holds the same law on an SCF surface: LiH/STO-3G
// RHF from rest, 16 inner steps of 0.25 fs on the spring reference, the
// full surface a warm md.Session, at k ∈ {1, 2, 4}. At k = 1 the session
// must also spend at most 0.9× the SCF iterations of the same campaign
// evaluated cold, with scf.RunForces at every step.
func TestSessionDriftAcrossK(t *testing.T) {
	const inner = 16
	mol := chem.LithiumHydride()
	cfg := scf.Config{Basis: "STO-3G"}
	opts := func(k int) Options { return Options{Steps: inner / k, K: k, Dt: 0.25} }
	drifts := map[int]float64{}
	var warm int64
	for _, k := range []int{1, 2, 4} {
		traj, st := sessionRun(t, mol, cfg, opts(k))
		drifts[k] = traj.EnergyDrift()
		if k == 1 {
			warm = st.SCFIterations
		}
		t.Logf("k=%d drift %.3e Eh/atom, %d SCF iterations", k, drifts[k], st.SCFIterations)
	}
	assertK2Drift(t, drifts)

	var cold int64
	coldFull := Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		res, f, err := scf.RunForces(m, cfg)
		if err != nil {
			return 0, nil, err
		}
		cold += int64(res.Iterations)
		return res.Energy, f, nil
	})
	if _, err := Run(mol, coldFull, SpringReference(mol, 0, 0), opts(1)); err != nil {
		t.Fatal(err)
	}
	if float64(warm) > 0.9*float64(cold) {
		t.Fatalf("k=1 session took %d SCF iterations, cold %d: above 0.9x", warm, cold)
	}
	t.Logf("k=1 SCF iterations: warm %d, cold %d", warm, cold)
}

// plainVerlet is the oracle of TestKOneMatchesPlainVerlet: velocity
// Verlet on the full surface from the same velocity draw, returning the
// conserved total energy after the last step.
func plainVerlet(t *testing.T, mol *chem.Molecule, full md.Surface, o Options) float64 {
	t.Helper()
	m := mol.Clone()
	masses := md.AtomicMasses(m)
	vel, _ := md.DrawVelocities(m, masses, o.TemperatureK, o.Seed)
	dt := o.Dt * phys.FemtosecondToAtomicTime
	epot, f, err := full(m)
	for s := 0; s < o.Steps && err == nil; s++ {
		for i := range vel {
			vel[i] = vel[i].Add(f[i].Scale(0.5 * dt / masses[i]))
			m.Atoms[i].Pos = m.Atoms[i].Pos.Add(vel[i].Scale(dt))
		}
		if epot, f, err = full(m); err == nil {
			for i := range vel {
				vel[i] = vel[i].Add(f[i].Scale(0.5 * dt / masses[i]))
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return epot + md.Kinetic(vel, masses)
}

// TestKOneMatchesPlainVerlet: at k=1 the split degenerates to velocity
// Verlet on the full surface (the cheap force enters and cancels, and the
// kicks are grouped differently, so agreement is to rounding, not
// bitwise). Both sides difference the same energy with the same step, so
// the per-step forces agree and only the integrator arithmetic differs.
func TestKOneMatchesPlainVerlet(t *testing.T) {
	pot := func(m *chem.Molecule) (float64, error) {
		e, _, err := springEval(fullK, bondR0)(m)
		return e, err
	}
	full := md.FDSurface(pot, 1e-5, 1)
	opts := respaOpts(64, 1)
	traj, err := Run(respaMol(), full, springField(cheapK, bondR0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if last := traj.Frames[len(traj.Frames)-1]; last.Step != opts.Steps {
		t.Fatalf("last frame at step %d, want %d", last.Step, opts.Steps)
	}
	want := plainVerlet(t, respaMol(), full, opts)
	if d := math.Abs(traj.Frames[len(traj.Frames)-1].Total - want); d > 1e-6 {
		t.Fatalf("k=1 total energy deviates from plain Verlet by %.3e Eh", d)
	}
}

// crashAndResume runs with an injected crash, reloads the most advanced
// durable state and finishes the trajectory. It returns the trajectory
// and the inner step it resumed from.
func crashAndResume(t *testing.T, totalInner, k int, plan *ckpt.FaultPlan, every int64) (*md.Trajectory, int64) {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: every, Keep: 3, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	opts := respaOpts(totalInner, k)
	opts.Ckpt = w
	_, err = Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts)
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
	if res.State.Slow == nil {
		t.Fatal("restored RESPA state lost its slow force")
	}
	w2, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: every, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	opts = respaOpts(totalInner, k)
	opts.Ckpt = w2
	opts.Resume = res.State
	traj, err := Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts)
	if err != nil {
		t.Fatal(err)
	}
	return traj, res.State.Step
}

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

// TestResumeBitwiseOnOuterBoundary crashes exactly at an outer boundary
// (step 16 with k=4): the restore point has a fresh slow force and the
// resumed run must land on the identical final bits.
func TestResumeBitwiseOnOuterBoundary(t *testing.T) {
	const totalInner, k = 32, 4
	ref := runRESPA(t, totalInner, k, nil)
	got, _ := crashAndResume(t, totalInner, k, &ckpt.FaultPlan{CrashAtStep: 16}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after boundary resume")
	}
}

// TestResumeBitwiseMidCycle crashes between two outer boundaries (step
// 18 with k=4, phase 2 of the cycle): the restore carries the cycle's
// slow force from two steps before, and resume is still bitwise because
// both forces are stored, not recomputed.
func TestResumeBitwiseMidCycle(t *testing.T) {
	const totalInner, k = 32, 4
	ref := runRESPA(t, totalInner, k, nil)
	got, _ := crashAndResume(t, totalInner, k, &ckpt.FaultPlan{CrashAtStep: 18}, 7)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after mid-cycle resume")
	}
}

// TestResumeBitwiseFaultedCheckpoint: a torn record and a corrupt fresh
// segment opening mid-campaign still resume to the uninterrupted bits;
// the corrupt one falls back to the last record of the segment before.
func TestResumeBitwiseFaultedCheckpoint(t *testing.T) {
	const totalInner, k = 32, 4
	ref := runRESPA(t, totalInner, k, nil)
	got, _ := crashAndResume(t, totalInner, k, &ckpt.FaultPlan{CrashAtStep: 18, TornWrite: true}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	got, from := crashAndResume(t, totalInner, k,
		&ckpt.FaultPlan{CrashAtStep: 16, CorruptSnapshot: true}, 8)
	assertBitwiseEqual(t, got.Final, ref.Final)
	if from != 15 {
		t.Fatalf("corrupt-snapshot resume should restart from the previous segment's last record at 15, got %d", from)
	}
	if got.EnergyDrift() != ref.EnergyDrift() {
		t.Fatal("drift differs after faulted resume")
	}
}

// TestResumeRejectsPlainMDState: a version-1 checkpoint (no slow force)
// must be refused, not silently integrated with a zero correction.
func TestResumeRejectsPlainMDState(t *testing.T) {
	opts := respaOpts(8, 2)
	ref := runRESPA(t, 8, 2, nil)
	st := ref.Final.Clone()
	st.Slow = nil
	opts.Resume = st
	if _, err := Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts); err == nil {
		t.Fatal("plain-MD state must not resume a RESPA run")
	}
}

// TestResumeRejectsDifferentSplit: the params fingerprint covers K, the
// reference label and the dynamics (timestep, temperature, seed), so a
// checkpoint from one configuration cannot seed another.
func TestResumeRejectsDifferentSplit(t *testing.T) {
	ref := runRESPA(t, 8, 2, nil)
	for name, mut := range map[string]func(*Options){
		"k":           func(o *Options) { o.K, o.Steps = 4, 2 },
		"reference":   func(o *Options) { o.RefLabel = "other" },
		"timestep":    func(o *Options) { o.Dt = 0.2 },
		"temperature": func(o *Options) { o.TemperatureK = 250 },
		"seed":        func(o *Options) { o.Seed = 12 },
	} {
		opts := respaOpts(8, 2)
		mut(&opts)
		opts.Resume = ref.Final
		if _, err := Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts); err == nil {
			t.Fatalf("checkpoint must not resume a run with a different %s", name)
		}
	}
}

// TestCancelIdentifiesStep: cancelling mid-campaign surfaces a typed
// *md.StepError naming the first step that observed the cancellation.
func TestCancelIdentifiesStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := respaOpts(64, 4)
	opts.Ctx = ctx
	opts.OnOuterStep = func(outer int, _ md.Frame) {
		if outer == 2 { // after inner step 8
			cancel()
		}
	}
	_, err := Run(respaMol(), springEval(fullK, bondR0), springField(cheapK, bondR0), opts)
	var se *md.StepError
	if !errors.As(err, &se) {
		t.Fatalf("want *md.StepError, got %v", err)
	}
	if se.Step != 9 {
		t.Fatalf("cancellation surfaced at step %d, want 9 (first step after the cancel)", se.Step)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause should unwrap to context.Canceled, got %v", err)
	}
}

// TestSpringReference exercises the built-in cheap reference: bonded
// pairs at the initial geometry, restoring force toward the captured
// r0.
func TestSpringReference(t *testing.T) {
	mol := chem.Hydrogen(1.4)
	ff := SpringReference(mol, 0, 0)
	stretched := mol.Clone()
	stretched.Atoms[1].Pos[2] += 0.2
	f, err := ff(stretched)
	if err != nil {
		t.Fatal(err)
	}
	if f[1][2] >= 0 {
		t.Fatalf("stretched bond must pull atom 1 back (-z), got F_z=%g", f[1][2])
	}
	if d := f[0][2] + f[1][2]; math.Abs(d) > 1e-15 {
		t.Fatalf("spring forces must sum to zero, residual %g", d)
	}
	// At the captured geometry the reference force vanishes.
	f0, err := ff(mol)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f0 {
		for c := 0; c < 3; c++ {
			if f0[i][c] != 0 {
				t.Fatalf("nonzero reference force at the captured geometry: %v", f0)
			}
		}
	}
}

// sessionRun runs a RESPA campaign whose full surface is a warm
// md.Session and returns the trajectory and the session's counters.
func sessionRun(t *testing.T, mol *chem.Molecule, cfg scf.Config, opts Options) (*md.Trajectory, md.SessionStats) {
	t.Helper()
	sess := md.NewSession(cfg, md.SessionOptions{})
	defer sess.Close()
	full := Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		f, e, err := sess.Forces(m, 0, 1)
		return e, f, err
	})
	traj, err := Run(mol, full, SpringReference(mol, 0, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	return traj, sess.Stats()
}

// TestSessionIterationsPerInnerStep gates the cost Mandal et al. count —
// SCF iterations per simulated step — on the m1 campaign (LiH/HF, 16 inner
// steps from rest) at the values committed before the session carried a
// density predictor, and on a short (H2O)2/PBE0 campaign at what the
// unprojected previous density needed there. No run may fall back cold.
func TestSessionIterationsPerInnerStep(t *testing.T) {
	const inner = 16
	for _, tc := range []struct {
		k     int
		bound float64
	}{{1, 5.4}, {2, 3.1}, {4, 1.9}} {
		_, st := sessionRun(t, chem.LithiumHydride(), scf.Config{},
			Options{Steps: inner / tc.k, K: tc.k, Dt: 0.25})
		per := float64(st.SCFIterations) / inner
		if per > tc.bound || st.Fallbacks != 0 {
			t.Errorf("LiH k=%d: %.2f SCF iterations per inner step (bound %.1f), %d fallbacks", tc.k, per, tc.bound, st.Fallbacks)
		}
		t.Logf("LiH k=%d: %.2f iterations per inner step", tc.k, per)
	}
	_, st := sessionRun(t, chem.WaterCluster(2, 1), scf.Config{Functional: dft.PBE0{}},
		Options{Steps: 6, K: 2, TemperatureK: 300, Seed: 1})
	if st.SCFIterations > 62 || st.Fallbacks != 0 {
		t.Errorf("(H2O)2/PBE0: %d SCF iterations over %d runs (bound 62), %d fallbacks", st.SCFIterations, st.Runs, st.Fallbacks)
	}
	t.Logf("(H2O)2/PBE0: %d iterations over %d runs", st.SCFIterations, st.Runs)
}

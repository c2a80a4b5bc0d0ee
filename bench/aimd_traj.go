package main

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
	"hfxmd/internal/trace"
)

// aimdTraj is the paper's application: one RESPA campaign on
// LiH/STO-3G/PBE0, k = 2, 300 K, wired like server.runTrajectory but
// in-process, with a checkpoint writer (journal append per inner step,
// snapshot every 10). It uses hfx the other way round from cold_fock —
// hundreds of small, rebinding, ΔP-warm-started builds — and is
// dominated by scf/dft/linalg/md/ckpt; fleet, server and store do
// nothing. An op is one outer step.
type aimdTraj struct{}

// Sized on the 2-core reference container: about 5 outer steps a second.
func (aimdTraj) opsFor(seconds float64) int { return max(int(5*seconds), 2) }

func (aimdTraj) procs() int { return 1 }

const (
	aimdK     = 2
	aimdTempK = 300
	// aimdWorkers is the finite-difference worker count of a full-force
	// evaluation: one, so that a step computes on one thread. (With two,
	// a step needs both virtual CPUs of the shared reference guest left
	// alone at once; ten seeds then read 94–126 ms at the 10th percentile,
	// against 177–185 ms with one.)
	aimdWorkers = 1
	// aimdDriftCeil is the ceiling on the per-atom peak-to-peak variation
	// of the conserved energy, in hartree: about kT at 300 K. (BENCH_mts's
	// 5e-4 is for a static start; from 300 K velocities seeds reach 4e-4.)
	aimdDriftCeil = 1e-3
)

func aimdConfig() scf.Config {
	h := hfxOptions(1)
	h.CacheBudgetBytes = 64 << 20
	return scf.Config{Basis: basisName, Functional: dft.PBE0{}, Screen: screen.DefaultOptions(), HFX: h}
}

type aimdPass struct {
	e     *env
	mol   *chem.Molecule
	sess  *md.Session
	cheap respa.ForceField
	ref   string
	w     *ckpt.Writer
	reg   *trace.Registry
	final *ckpt.MDState
}

func (aimdTraj) setup(e *env) (pass, error) {
	p := &aimdPass{e: e, mol: chem.LithiumHydride(), reg: trace.NewRegistry()}
	cfg := aimdConfig()
	p.sess = md.NewSession(cfg, md.SessionOptions{})
	var err error
	if p.cheap, p.ref, err = respa.BuildReference(respa.RefSpring, p.mol, cfg, 0, aimdWorkers); err != nil {
		return nil, err
	}
	if p.w, err = ckpt.NewWriter(ckpt.Config{Dir: filepath.Join(e.tmp, "ckpt"), Every: 10, Registry: p.reg}); err != nil {
		p.sess.Close()
		return nil, err
	}
	// Warm-up: one full-force evaluation, so the pair list, the builder
	// and the previous-step density exist before the first measured step.
	if _, _, err := p.sess.Forces(p.mol, 0, aimdWorkers); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *aimdPass) close() error {
	p.sess.Close()
	return p.w.Close()
}

func (p *aimdPass) measure(rec *recorder) (*outcome, error) {
	var forces, cheapCalls []time.Duration
	var opStart time.Time
	var opCPU time.Duration // process CPU at opStart
	type call struct {
		layer, name string
		t0, t1      time.Time
	}
	var calls []call // the current outer step's calls: spans once the step, their parent, has ended
	full := respa.Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		t0 := time.Now()
		f, epot, err := p.sess.Forces(m, 0, aimdWorkers)
		t1 := time.Now()
		forces = append(forces, t1.Sub(t0))
		calls = append(calls, call{"md", "md.forces", t0, t1})
		return epot, f, err
	})
	cheap := respa.ForceField(func(m *chem.Molecule) ([]chem.Vec3, error) {
		t0 := time.Now()
		f, err := p.cheap(m)
		t1 := time.Now()
		cheapCalls = append(cheapCalls, t1.Sub(t0))
		calls = append(calls, call{"respa", "respa.cheap_force", t0, t1})
		return f, err
	})
	ckptWall := func() time.Duration {
		return p.reg.Timer.Get("ckpt.journal_append") + p.reg.Timer.Get("ckpt.snapshot_write")
	}
	out := &outcome{opListHash: hashOf("lih", p.e.seed, p.e.ops), accuracyCeil: aimdDriftCeil, layer: metrics{}}
	ckpt0 := ckptWall()
	st0 := p.sess.Stats()
	opts := respa.Options{
		Steps: p.e.ops, K: aimdK, TemperatureK: aimdTempK,
		Seed: p.e.seed, RefLabel: p.ref, Ckpt: p.w,
		OnOuterStep: func(outer int, f md.Frame) {
			now, cpu := time.Now(), cpuNow()
			if outer > 0 {
				out.done("outer_step", now.Sub(opStart), cpu-opCPU)
				out.digest += hashOf(outer, f.Potential, f.Total)
				root := rec.add(0, outer, "respa", "respa.outer_step", opStart, now)
				for _, c := range calls {
					rec.add(root, outer, c.layer, c.name, c.t0, c.t1)
				}
				// The checkpoint calls are inside respa.Run; their wall is
				// read from the writer's registry after the fact and laid
				// at the start of the next step, where they ran.
				c := ckptWall()
				rec.within(root, outer, "ckpt", "ckpt.on_step", opStart, opStart.Add(c-ckpt0), c-ckpt0)
				ckpt0 = c
			}
			calls = calls[:0]
			opStart, opCPU = now, cpu
		},
	}
	traj, err := respa.Run(p.mol, full, cheap, opts)
	if err != nil {
		return nil, err
	}
	p.final = traj.Final
	sha := sha256.Sum256(ckpt.EncodeState(traj.Final))
	out.digest += hashOf(hex.EncodeToString(sha[:]))
	out.attempted = p.e.ops
	out.accuracyErr = traj.EnergyDrift()

	st := p.sess.Stats()
	inner := float64(p.e.ops * aimdK)
	runs := float64(st.Runs - st0.Runs)
	lists := float64(st.PairListBuilds - st0.PairListBuilds + st.PairListReuses - st0.PairListReuses)
	out.layer["scf_iters_per_step"] = float64(st.SCFIterations-st0.SCFIterations) / inner
	out.layer["md.warm_start_ratio"] = ratio(float64(st.WarmStarts-st0.WarmStarts), runs)
	out.layer["md.pairlist_reuse_ratio"] = ratio(float64(st.PairListReuses-st0.PairListReuses), lists)
	out.layer["md.displaced_runs_per_outer"] = ratio(float64(st.DisplacedRuns-st0.DisplacedRuns), runs)
	out.layer["md.forces_ms_p50"] = medianMS(forces)
	out.layer["respa.outer_step_ms_p50"] = median(out.lats())
	out.layer["respa.cheap_force_us_p50"] = medianUS(cheapCalls)
	out.layer["respa.drift_per_atom"] = out.accuracyErr
	bytes := p.reg.Counter("ckpt.journal_bytes").Value() + p.reg.Counter("ckpt.snapshot_bytes").Value()
	out.layer["ckpt.bytes_per_inner_step"] = float64(bytes) / inner
	return out, nil
}

func (p *aimdPass) verify(*outcome) error { return nil } // the drift is the check

// walk takes one full-surface evaluation apart at the trajectory's last
// geometry — admission-style prep, a new builder, a cold PBE0 SCF with
// per-iteration spans — and probes the layers an outer step leans on.
func (p *aimdPass) walk(rec *recorder, out *outcome, m metrics) error {
	mol := p.mol.Clone()
	for i := range mol.Atoms {
		mol.Atoms[i].Pos = p.final.Pos[i]
	}
	root := rec.open(0, -1, "walk", "walk.op")
	st, err := walkPrep(rec, root, -1, mol)
	if err != nil {
		return err
	}
	cfg := aimdConfig()
	var b *hfx.Builder
	rec.call(root, -1, "hfx", "hfx.new_builder", func() { b = hfx.NewBuilder(st.eng, st.scr, cfg.HFX) })
	cfg.Screening, cfg.ExternalBuilder = st.scr, b
	_, _, _, err = scfTimed(rec, root, -1, mol, cfg)
	b.Close()
	rec.close(root)
	if err != nil {
		return err
	}

	probeRoot := rec.open(0, -100, "probe", "probe.layers")
	defer rec.close(probeRoot)
	reps := p.e.reps()
	if _, err := probePrep(rec, probeRoot, -100, mol, 1, reps, m); err != nil {
		return err
	}
	probeHFX(st, reps, m)
	probeKernel(st.eng, reps, m)
	if err := probeSCF(rec, probeRoot, -100, mol, 1, reps, m); err != nil {
		return err
	}
	return probeCkpt(filepath.Join(p.e.tmp, "ckpt-probe"), p.final, m)
}

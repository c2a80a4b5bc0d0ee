package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"hfxmd"
	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
)

var (
	m1Steps int
	m1Dt    float64
	m1Out   string
)

// ---------------------------------------------------------------------------
// M1: multiple-time-step AIMD cost and drift, real (not simulated)
// SCF trajectories.
//
// Three measurements, three gates:
//
//  1. MTS sweep — the same simulated time span (m1Steps inner steps of
//     m1Dt fs) integrated at k ∈ {1, 2, 4}: the full SCF surface every
//     k-th step, the analytic spring reference in between, the
//     cross-step session (density predictor + pair-list rebind) feeding
//     every full evaluation — one SCF plus one analytic gradient. The
//     cost metric is SCF iterations per inner step — machine-independent,
//     unlike wall clock. Gate: the k=4 per-atom energy drift stays within
//     the committed k² scaling bound of the k=1 baseline (the slow
//     component integrates at an effective timestep k·δt) and under an
//     absolute ceiling.
//  2. Reuse — the k=1 campaign re-run cold: the same SCF-plus-gradient
//     evaluation, but every SCF from the SAD guess, the pair list
//     rebuilt per evaluation, no session. Gate: the warm arm's SCF
//     iterations per step undercut the cold arm's by the committed
//     factor (warm/cold ratio below m1ReuseMax).
//  3. Resume — a k=2 campaign on the deterministic cold surface is
//     crash-injected mid-cycle (between outer boundaries), resumed,
//     and its final restartable state compared against an
//     uninterrupted reference. Gate: bitwise equality of the encoded
//     states, witnessed by the sha256 committed to BENCH_mts.json.

const (
	// m1DriftK2Factor gates drift(k) against the k² scaling law with 2x
	// headroom: a missed half-kick or sign error lands orders of
	// magnitude above it.
	m1DriftK2Factor = 2.0
	// m1DriftFloor keeps the scaling gate meaningful when the k=1
	// baseline drift is at numerical zero.
	m1DriftFloor = 1e-6
	// m1DriftCeiling is the absolute per-atom drift ceiling at any k.
	m1DriftCeiling = 5e-4
	// m1ReuseMax is the committed warm/cold cost ratio: the predictor +
	// pair-list session must shave at least 10% of the SCF iterations
	// per step off the cold-per-step baseline.
	m1ReuseMax = 0.9
)

type m1Row struct {
	K              int     `json:"k"`
	OuterSteps     int     `json:"outerSteps"`
	DriftPerAtom   float64 `json:"driftPerAtom"`
	SCFIterations  int64   `json:"scfIterations"`
	ItersPerStep   float64 `json:"scfItersPerInnerStep"`
	WarmStarts     int64   `json:"warmStarts"`
	PairListBuilds int64   `json:"pairListBuilds"`
	PairListReuses int64   `json:"pairListReuses"`
	WallNS         int64   `json:"wallNS"`
}

type m1Resume struct {
	K            int    `json:"k"`
	CrashAtStep  int64  `json:"crashAtStep"`
	ResumedSha   string `json:"resumedFinalSha256"`
	ReferenceSha string `json:"referenceFinalSha256"`
	Bitwise      bool   `json:"bitwiseIdentical"`
}

type m1Output struct {
	System            string   `json:"system"`
	Basis             string   `json:"basis"`
	InnerSteps        int      `json:"innerSteps"`
	DtFS              float64  `json:"dtFs"`
	Ref               string   `json:"ref"`
	Rows              []m1Row  `json:"rows"`
	ColdSCFIterations int64    `json:"coldScfIterations"`
	ColdItersPerStep  float64  `json:"coldScfItersPerInnerStep"`
	WarmColdRatio     float64  `json:"warmColdRatio"`
	ReuseGateMax      float64  `json:"reuseGateMax"`
	DriftK2Factor     float64  `json:"driftGateK2Factor"`
	DriftCeiling      float64  `json:"driftGateCeiling"`
	Resume            m1Resume `json:"resume"`
}

func m1FinalSha(traj *md.Trajectory) string {
	sum := sha256.Sum256(ckpt.EncodeState(traj.Final))
	return hex.EncodeToString(sum[:])
}

func expM1(_, _ *hfxmd.MachineWorkload) {
	if m1Steps < 8 || m1Steps%4 != 0 {
		log.Fatalf("-m1-steps must be a multiple of 4, >= 8 (got %d)", m1Steps)
	}
	mol := chem.LithiumHydride() // enough SCF headroom to measure warm starts
	cfg := scf.Config{Basis: "STO-3G"}
	cheap, refLabel, err := respa.BuildReference(respa.RefSpring, mol, cfg, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Static start: velocity noise would bury the drift signal.
	mtsOpts := func(k int) respa.Options {
		return respa.Options{Steps: m1Steps / k, K: k, Dt: m1Dt, RefLabel: refLabel}
	}

	out := m1Output{
		System: "lih", Basis: cfg.Basis, InnerSteps: m1Steps, DtFS: m1Dt, Ref: refLabel,
		ReuseGateMax: m1ReuseMax, DriftK2Factor: m1DriftK2Factor, DriftCeiling: m1DriftCeiling,
	}

	fmt.Printf("LiH/%s, %d inner steps of %.2f fs (ref %s), session-warmed full surface\n\n",
		cfg.Basis, m1Steps, m1Dt, refLabel)
	fmt.Printf("%3s %7s %14s %10s %12s %6s %13s %10s\n",
		"k", "outer", "drift [Eh/at]", "SCF iters", "iters/step", "warm", "pair b/reuse", "wall")

	drifts := map[int]float64{}
	for _, k := range []int{1, 2, 4} {
		sess := md.NewSession(cfg, md.SessionOptions{})
		full := respa.Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
			f, e, ferr := sess.Forces(m, 0, 1)
			return e, f, ferr
		})
		t0 := time.Now()
		traj, rerr := respa.Run(mol, full, cheap, mtsOpts(k))
		wall := time.Since(t0)
		if rerr != nil {
			sess.Close()
			log.Fatalf("k=%d: %v", k, rerr)
		}
		st := sess.Stats()
		sess.Close()
		drifts[k] = traj.EnergyDrift()
		row := m1Row{
			K: k, OuterSteps: m1Steps / k, DriftPerAtom: drifts[k],
			SCFIterations:  st.SCFIterations,
			ItersPerStep:   float64(st.SCFIterations) / float64(m1Steps),
			WarmStarts:     st.WarmStarts,
			PairListBuilds: st.PairListBuilds, PairListReuses: st.PairListReuses,
			WallNS: wall.Nanoseconds(),
		}
		out.Rows = append(out.Rows, row)
		fmt.Printf("%3d %7d %14.3e %10d %12.1f %6d %8d/%-4d %10v\n",
			row.K, row.OuterSteps, row.DriftPerAtom, row.SCFIterations, row.ItersPerStep,
			row.WarmStarts, row.PairListBuilds, row.PairListReuses, wall.Round(time.Millisecond))
	}

	// Drift gates: k=1 inherits the md-layer conservation scale; every
	// split stays within the k² scaling law of it and under the ceiling.
	floor := drifts[1]
	if floor < m1DriftFloor {
		floor = m1DriftFloor
	}
	for _, k := range []int{2, 4} {
		if bound := m1DriftK2Factor * float64(k*k) * floor; drifts[k] > bound {
			log.Fatalf("drift gate: k=%d drift %.3e exceeds the k^2 scaling bound %.3e (k=1 baseline %.3e)",
				k, drifts[k], bound, drifts[1])
		}
		if drifts[k] > m1DriftCeiling {
			log.Fatalf("drift gate: k=%d drift %.3e above the absolute ceiling %.1e", k, drifts[k], m1DriftCeiling)
		}
	}

	// Cold baseline: the identical k=1 campaign, every evaluation the
	// same one SCF plus analytic gradient as the warm arm's, but from the
	// SAD guess with the pair list rebuilt — a pure function of the
	// geometry, which is what makes the resume gate below bitwise.
	var coldIters int64
	coldFull := respa.Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		res, f, ferr := scf.RunForces(m, cfg)
		if ferr != nil {
			return 0, nil, ferr
		}
		coldIters += int64(res.Iterations)
		return res.Energy, f, nil
	})
	if _, err = respa.Run(mol, coldFull, cheap, mtsOpts(1)); err != nil {
		log.Fatal(err)
	}
	out.ColdSCFIterations = coldIters
	out.ColdItersPerStep = float64(coldIters) / float64(m1Steps)
	out.WarmColdRatio = out.Rows[0].ItersPerStep / out.ColdItersPerStep
	fmt.Printf("\ncold k=1 baseline: %d SCF iterations (%.1f/step) -> warm/cold ratio %.3f (gate <= %.2f)\n",
		coldIters, out.ColdItersPerStep, out.WarmColdRatio, m1ReuseMax)
	if out.WarmColdRatio > m1ReuseMax {
		log.Fatalf("reuse gate: warm/cold SCF-iteration ratio %.3f above the committed %.2f",
			out.WarmColdRatio, m1ReuseMax)
	}

	// Resume gate: crash the deterministic cold k=2 campaign mid-cycle
	// (an odd inner step, between outer boundaries — the harder restore
	// point) and require the resumed final state to match the
	// uninterrupted reference bitwise.
	const resumeK = 2
	crashAt := int64(m1Steps/2 + 1) // odd for even m1Steps/2: mid-cycle
	if crashAt%resumeK == 0 {
		crashAt++
	}
	refTraj, err := respa.Run(mol, coldFull, cheap, mtsOpts(resumeK))
	if err != nil {
		log.Fatal(err)
	}
	refSha := m1FinalSha(refTraj)

	dir, err := os.MkdirTemp("", "hfxscale-m1-ckpt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 4, Keep: 3,
		Plan: &ckpt.FaultPlan{CrashAtStep: crashAt}})
	if err != nil {
		log.Fatal(err)
	}
	victimOpts := mtsOpts(resumeK)
	victimOpts.Ckpt = w
	_, err = respa.Run(mol, coldFull, cheap, victimOpts)
	if !errors.Is(err, ckpt.ErrInjectedCrash) {
		log.Fatalf("resume gate: expected the injected crash at step %d, got %v", crashAt, err)
	}
	w.Close()

	res, err := ckpt.Load(dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	w2, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 4, Keep: 3})
	if err != nil {
		log.Fatal(err)
	}
	resumeOpts := mtsOpts(resumeK)
	resumeOpts.Ckpt = w2
	resumeOpts.Resume = res.State
	resTraj, err := respa.Run(mol, coldFull, cheap, resumeOpts)
	if err != nil {
		log.Fatal(err)
	}
	w2.Close()
	resSha := m1FinalSha(resTraj)

	out.Resume = m1Resume{K: resumeK, CrashAtStep: crashAt,
		ResumedSha: resSha, ReferenceSha: refSha, Bitwise: resSha == refSha}
	fmt.Printf("resume: k=%d crashed at inner step %d (mid-cycle), resumed from step %d -> final state %s\n",
		resumeK, crashAt, res.State.Step, resSha[:16])
	if !out.Resume.Bitwise {
		log.Fatalf("resume gate: resumed final state %s != uninterrupted reference %s", resSha, refSha)
	}
	fmt.Printf("\ngates: drift k4 %.3e within %gx k^2 of k1 %.3e; warm/cold %.3f <= %.2f; resume bitwise\n",
		drifts[4], m1DriftK2Factor, drifts[1], out.WarmColdRatio, m1ReuseMax)

	if m1Out != "" {
		b, merr := json.MarshalIndent(out, "", " ")
		if merr != nil {
			log.Fatal(merr)
		}
		if werr := os.WriteFile(m1Out, append(b, '\n'), 0o644); werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("wrote %s\n", m1Out)
	}
}

// Command aimd runs Born–Oppenheimer molecular dynamics on the SCF
// potential-energy surface (experiment E7: hybrid-functional AIMD
// feasibility and energy conservation), with durable checkpoint/restart.
//
// Usage:
//
//	aimd -system h2 -steps 20 -dt 0.4 -functional HF
//	aimd -system water -steps 10 -functional PBE0 -temp 300
//
// Every trajectory is r-RESPA: an SCF plus its analytic gradient every
// k-th step, the spring reference force between (-steps counts outer steps);
// at the default -k 1 it is plain velocity Verlet. With -store-dir each
// SCF warm-starts from a density predictor over the previous steps, the
// first from the density a previous run stored:
//
//	aimd -system h2 -steps 10 -k 4 -functional PBE0
//	aimd -system lih -steps 20 -functional PBE0 -store-dir st
//
// Checkpointed trajectory, killed and resumed:
//
//	aimd -system h2 -steps 200 -ckpt-dir run1 -ckpt-every 10   # SIGKILL it
//	aimd -system h2 -steps 200 -ckpt-dir run1 -resume          # continues
//
// Without -store-dir (every SCF cold) the resumed trajectory is bitwise
// identical to an uninterrupted one: every completed step is recorded
// before the next begins, and the integrator re-executes
// deterministically from any durable state. The -json summary's
// finalStateSha256 fingerprints the complete final MD state. With
// -store-dir a resume agrees to SCF tolerance, not bitwise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hfxmd"
)

// aimdSummary is the -json output: the campaign summary plus this run's
// restore point (absent for a fresh run; ReplayedSteps counts journal
// records ahead of the snapshot the restore absorbed) and checkpoint
// traffic (absent without -ckpt-dir).
type aimdSummary struct {
	*hfxmd.CampaignSummary
	ResumedFromStep    *int64 `json:"resumedFromStep,omitempty"`
	ReplayedSteps      int64  `json:"replayedSteps,omitempty"`
	CkptSnapshots      int64  `json:"ckptSnapshots,omitempty"`
	CkptSnapshotBytes  int64  `json:"ckptSnapshotBytes,omitempty"`
	CkptJournalAppends int64  `json:"ckptJournalAppends,omitempty"`
	CkptJournalBytes   int64  `json:"ckptJournalBytes,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aimd: ")
	var (
		system     = flag.String("system", "h2", "system: h2|water|lih")
		functional = flag.String("functional", "HF", "functional: HF|LDA|PBE|PBE0")
		basisName  = flag.String("basis", "STO-3G", "basis set")
		steps      = flag.Int("steps", 10, "MD steps")
		dt         = flag.Float64("dt", 0.4, "timestep in fs")
		temp       = flag.Float64("temp", 0, "initial temperature in K (0 = static start)")
		thermostat = flag.Bool("thermostat", false, "enable Berendsen thermostat")
		seed       = flag.Int64("seed", 7, "velocity-initialisation seed")

		respaK = flag.Int("k", 1, "RESPA inner steps per full-force evaluation (1 = plain velocity Verlet; -steps counts outer steps and -dt is the inner timestep)")

		storeDir = flag.String("store-dir", "", "tiered store directory: each SCF warm-starts from a density predictor over the previous steps, the first from the density a previous run stored (same tolerance, different bits than a cold run; a resume is tolerance-equal, not bitwise)")

		ckptDir   = flag.String("ckpt-dir", "", "checkpoint directory (empty disables checkpointing)")
		ckptEvery = flag.Int64("ckpt-every", 10, "steps per checkpoint segment (every step is recorded)")
		ckptKeep  = flag.Int("ckpt-keep", 3, "checkpoint segment ring size")
		resume    = flag.Bool("resume", false, "resume from the most advanced durable state in -ckpt-dir")

		jsonOut = flag.Bool("json", false, "print a JSON summary instead of the frame table")
	)
	flag.Parse()

	var mol *hfxmd.Molecule
	switch strings.ToLower(*system) {
	case "h2":
		mol = hfxmd.Hydrogen(1.5) // slightly stretched: visible dynamics
	case "water":
		mol = hfxmd.Water()
	case "lih":
		mol = hfxmd.LithiumHydride()
	default:
		log.Fatalf("unknown system %q", *system)
	}
	f, ok := hfxmd.FunctionalByName(*functional)
	if !ok {
		log.Fatalf("unknown functional %q", *functional)
	}
	scfCfg := hfxmd.SCFConfig{Basis: *basisName, Functional: f}
	var sess *hfxmd.MDSession
	if *storeDir != "" {
		st, err := hfxmd.OpenStore(hfxmd.StoreOptions{Dir: *storeDir})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		sess = hfxmd.NewMDSession(scfCfg, hfxmd.MDSessionOptions{Store: st})
		defer sess.Close()
	}
	opts := hfxmd.RespaOptions{
		Steps: *steps, K: *respaK, Dt: *dt, TemperatureK: *temp,
		Thermostat: *thermostat, Seed: *seed,
	}

	reg := hfxmd.NewTraceRegistry()
	var res *hfxmd.CkptResume
	if *resume {
		if *ckptDir == "" {
			log.Fatal("-resume requires -ckpt-dir")
		}
		r, err := hfxmd.LoadCkpt(*ckptDir, reg)
		if err != nil {
			if errors.Is(err, hfxmd.ErrNoCheckpoint) {
				log.Fatalf("%s holds no usable checkpoint", *ckptDir)
			}
			log.Fatal(err)
		}
		res = r
		opts.Resume = r.State
	}
	if *ckptDir != "" {
		w, err := hfxmd.NewCkptWriter(hfxmd.CkptConfig{
			Dir: *ckptDir, Every: *ckptEvery, Keep: *ckptKeep, Registry: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		opts.Ckpt = w
	}

	if !*jsonOut {
		if *respaK > 1 {
			fmt.Printf("RESPA BOMD: %s, %s/%s, %d outer steps x %d inner of %.2f fs (ref spring), T0=%.0fK thermostat=%v\n",
				mol.Name, *functional, *basisName, *steps, *respaK, *dt, *temp, *thermostat)
		} else {
			fmt.Printf("BOMD: %s, %s/%s, %d steps of %.2f fs, T0=%.0fK thermostat=%v\n",
				mol.Name, *functional, *basisName, *steps, *dt, *temp, *thermostat)
		}
		if res != nil {
			fmt.Printf("resumed from step %d (segment opened at %d, %d replayed, %d fallbacks)\n",
				res.State.Step, res.SnapshotStep, res.ReplayedSteps, res.Fallbacks)
		}
		fmt.Println()
	}

	sum, traj, err := hfxmd.RunCampaign(mol, scfCfg, sess, opts)
	if err != nil {
		var se *hfxmd.MDStepError
		if errors.As(err, &se) {
			log.Fatalf("trajectory failed at step %d: %v (resume from -ckpt-dir to retry)", se.Step, se.Err)
		}
		log.Fatal(err)
	}

	if *jsonOut {
		out := aimdSummary{CampaignSummary: sum}
		if res != nil {
			out.ResumedFromStep = &res.State.Step
			out.ReplayedSteps = res.ReplayedSteps
		}
		if *ckptDir != "" {
			out.CkptSnapshots = reg.Counter("ckpt.snapshots").Value()
			out.CkptSnapshotBytes = reg.Counter("ckpt.snapshot_bytes").Value()
			out.CkptJournalAppends = reg.Counter("ckpt.journal_appends").Value()
			out.CkptJournalBytes = reg.Counter("ckpt.journal_bytes").Value()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%5s %8s %16s %14s %16s %9s\n", "step", "t [fs]", "E_pot [Eh]", "E_kin [Eh]", "E_tot [Eh]", "T [K]")
	for _, fr := range traj.Frames {
		fmt.Printf("%5d %8.2f %16.8f %14.8f %16.8f %9.1f\n",
			fr.Step, fr.TimeFS, fr.Potential, fr.Kinetic, fr.Total, fr.TempK)
	}
	fmt.Printf("\nenergy drift (peak-to-peak per atom): %.3e Eh\n", sum.DriftPerAtom)
	if sess != nil {
		fmt.Printf("store: %d store seeds, %d predictor warm starts, %d fallbacks (%s)\n",
			sum.StoreSeeds, sum.WarmStarts, sum.Fallbacks, *storeDir)
	}
	if *ckptDir != "" {
		fmt.Printf("checkpoints: %d snapshots (%d bytes), %d journal appends (%d bytes) in %s\n",
			reg.Counter("ckpt.snapshots").Value(), reg.Counter("ckpt.snapshot_bytes").Value(),
			reg.Counter("ckpt.journal_appends").Value(), reg.Counter("ckpt.journal_bytes").Value(),
			*ckptDir)
	}
}

package hfxmd_test

// E8 — the Li/air electrolyte chemistry figure, in two honest panels and
// (BenchmarkE8PeroxideDynamics, below) a short trajectory:
//
//  (a) rigid approach profiles of a Li2O2 unit along each solvent's open
//      axis (out-of-plane at PC's carbonate carbon; the open face of
//      DMSO). Both solvents form electrostatic encounter complexes; DMSO
//      binds lithium harder through its exposed S=O — which is precisely
//      why it is a good Li-electrolyte solvent.
//  (b) the degradation-prone indicator: the electrophilicity of the
//      solvent towards nucleophilic attack by the peroxide, measured by
//      the LUMO energy of the isolated molecule. PC's low-lying carbonate
//      π* is what the peroxide attacks in the paper's ring-opening
//      pathway; DMSO's LUMO lies higher — enhanced stability.
//
// Each profile is hfxmd.Scan, the routine hfxd's solvent-scan jobs run:
// one MD session, every point an SCF on a 17- or 14-atom complex
// warm-started from the points before it, which makes this the most
// expensive benchmark in the suite.

import (
	"fmt"
	"math"
	"testing"

	"hfxmd"
	"hfxmd/internal/phys"
)

func BenchmarkE8SolventStability(b *testing.B) {
	coords := []float64{9.0, 5.0, 4.0}
	scropt := hfxmd.DefaultScreening()
	scropt.Threshold = 1e-6
	cfg := hfxmd.SCFConfig{Screen: scropt} // a solvent-scan job with "screen": 1e-6

	type profile struct {
		solvent string
		*hfxmd.ScanProfile
		lumo float64 // isolated-solvent LUMO (electrophilicity)
	}
	var profiles []profile
	for i := 0; i < b.N; i++ {
		profiles = profiles[:0]
		for _, solvent := range []string{"PC", "DMSO"} {
			prof, err := hfxmd.Scan(cfg, hfxmd.MDSessionOptions{}, coords,
				func(r float64) (*hfxmd.Molecule, error) { return hfxmd.SolvatedPeroxide(solvent, r) }, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range prof.Points {
				if !p.Converged {
					b.Logf("%s at R=%.1f not converged after %d iterations", solvent, p.R, p.Iterations)
				}
			}
			// Electrophilicity panel: isolated-solvent LUMO.
			mono := hfxmd.PropyleneCarbonate()
			if solvent == "DMSO" {
				mono = hfxmd.DimethylSulfoxide()
			}
			res, err := hfxmd.RunSCF(mono, cfg)
			if err != nil {
				b.Fatal(err)
			}
			profiles = append(profiles, profile{solvent, prof, res.LUMO()})
		}
	}
	kcal := func(eh float64) float64 { return eh * phys.HartreeToKcalMol }
	b.ReportMetric(kcal(profiles[0].Well), "PC-well-kcal")
	b.ReportMetric(kcal(profiles[1].Well), "DMSO-well-kcal")
	b.ReportMetric(profiles[0].lumo, "PC-LUMO-Eh")
	b.ReportMetric(profiles[1].lumo, "DMSO-LUMO-Eh")
	for _, pr := range profiles {
		iters := 0
		for _, p := range pr.Points {
			iters += p.Iterations
		}
		b.ReportMetric(float64(iters), pr.solvent+"-scf-iters")
	}
	once("e8", func() {
		fmt.Printf("\n[E8] (a) Li2O2 approach profiles (HF/STO-3G, rigid fragments)\n")
		for _, pr := range profiles {
			fmt.Printf("%s + Li2O2:\n%10s %16s %14s %6s\n", pr.solvent, "R[bohr]", "E[Eh]", "ΔE[kcal/mol]", "iters")
			for _, p := range pr.Points {
				fmt.Printf("%10.2f %16.8f %14.2f %6d\n", p.R, p.Energy, kcal(p.Rel), p.Iterations)
			}
		}
		fmt.Printf("encounter wells: PC %.1f, DMSO %.1f kcal/mol (DMSO's exposed S=O binds Li harder — its solvating strength)\n",
			kcal(profiles[0].Well), kcal(profiles[1].Well))
		fmt.Printf("\n[E8] (b) electrophilicity (LUMO of the isolated solvent):\n")
		fmt.Printf("    PC   %8.4f Eh\n    DMSO %8.4f Eh\n", profiles[0].lumo, profiles[1].lumo)
		if profiles[0].lumo < profiles[1].lumo {
			fmt.Println("PC's lower-lying carbonate π* invites nucleophilic attack by the peroxide ->")
			fmt.Println("degradation-prone; DMSO-class solvents show enhanced stability (paper's conclusion).")
		} else {
			fmt.Println("ordering unresolved at this level (paper resolves it with PBE0 + realistic liquid models)")
		}
	})
}

// E8 (c) — the encounter complex as dynamics. With analytic forces an
// outer step of the 17-atom PC + Li2O2 complex is one warm-started SCF
// plus one gradient build where finite differences needed 6·17+1 = 103
// SCFs, so the peroxide's approach to the carbonate carbon can be
// integrated instead of scanned: a short PBE0/STO-3G RESPA campaign
// (k = 2, spring reference, 300 K) from the encounter well of panel (a),
// run by hfxmd.RunCampaign on an md.Session as an hfxd `trajectory` job
// runs it with this model chemistry (README: "E8 as a trajectory job").
// The SCF runs at the served defaults; a step that fails to converge ends
// the run with the session's typed error rather than a force.
func BenchmarkE8PeroxideDynamics(b *testing.B) {
	const (
		outerSteps = 10
		respaK     = 2
		startR     = 5.0 // bohr above the carbonate plane: the encounter well of panel (a)
	)
	pbe0, _ := hfxmd.FunctionalByName("PBE0")
	hopts := hfxmd.PaperExchangeOptions()
	hopts.CacheBudgetBytes = 256 << 20
	cfg := hfxmd.SCFConfig{Functional: pbe0, HFX: hopts}

	var sum *hfxmd.CampaignSummary
	var dist []float64 // min O…C per outer step
	for i := 0; i < b.N; i++ {
		mol, err := hfxmd.SolvatedPeroxide("PC", startR)
		if err != nil {
			b.Fatal(err)
		}
		sess := hfxmd.NewMDSession(cfg, hfxmd.MDSessionOptions{})
		var traj *hfxmd.Trajectory
		sum, traj, err = hfxmd.RunCampaign(mol, cfg, sess,
			hfxmd.RespaOptions{Steps: outerSteps, K: respaK, TemperatureK: 300, Seed: 1})
		sess.Close()
		if err != nil {
			b.Fatalf("after %d outer steps: %v", len(sum.Steps), err)
		}
		// Atom 0 is PC's carbonate carbon; the peroxide oxygens lead the
		// Li2O2 fragment. Frame 0 is the starting state, not a step.
		nSol := hfxmd.PropyleneCarbonate().NAtoms()
		dist = dist[:0]
		for j := range sum.Steps {
			pos := traj.Frames[j+1].Positions
			dist = append(dist, math.Min(pos[nSol].Sub(pos[0]).Norm(), pos[nSol+1].Sub(pos[0]).Norm()))
		}
	}
	var wallMS float64
	var iters int64
	for _, s := range sum.Steps {
		wallMS += s.WallMS
		iters += s.SCFIterations
	}
	n := float64(len(sum.Steps))
	b.ReportMetric(wallMS/n, "ms/outer-step")
	b.ReportMetric(float64(iters)/n, "scf-iters/outer-step")
	b.ReportMetric(sum.DriftPerAtom, "drift-Eh/atom")
	b.ReportMetric(float64(sum.Fallbacks), "cold-fallbacks")
	once("e8c", func() {
		fmt.Printf("\n[E8] (c) PC + Li2O2 dynamics (PBE0/STO-3G, RESPA k=%d, spring reference, 300 K, %d outer steps)\n", respaK, len(sum.Steps))
		fmt.Printf("%10s %16s %14s %10s %10s\n", "t[fs]", "E_total[Eh]", "min O…C[bohr]", "wall[s]", "SCF iters")
		for i, s := range sum.Steps {
			fmt.Printf("%10.2f %16.8f %14.4f %10.2f %10d\n", s.TimeFS, s.Total, dist[i], s.WallMS/1e3, s.SCFIterations)
		}
		fmt.Printf("drift %.2e Eh/atom; one SCF + one gradient build per outer step (finite differences: 103 SCFs)\n", sum.DriftPerAtom)
		if sum.Fallbacks > 0 {
			fmt.Printf("%d of %d force evaluations: the seeded SCF ran out of iterations and the session recomputed the step cold\n",
				sum.Fallbacks, len(sum.Steps)+1)
		}
	})
}

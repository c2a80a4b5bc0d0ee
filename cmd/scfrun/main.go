// Command scfrun performs a single-point SCF calculation (HF, LDA, PBE or
// PBE0) on a built-in system or an XYZ file and prints the energy
// decomposition, orbital spectrum, Mulliken charges and dipole moment.
//
// Usage:
//
//	scfrun -system water -functional PBE0 -basis STO-3G
//	scfrun -xyz geometry.xyz -functional HF -threads 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hfxmd"
	"hfxmd/internal/chem"
	"hfxmd/internal/phys"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scfrun: ")
	var (
		xyzPath    = flag.String("xyz", "", "path to an XYZ geometry (ångström)")
		system     = flag.String("system", "water", "built-in system: "+strings.Join(chem.SystemNames(), "|"))
		nwater     = flag.Int("n", 4, "cluster size for -system watercluster")
		basisName  = flag.String("basis", "STO-3G", "basis set: "+strings.Join(hfxmd.AvailableBasisSets(), "|"))
		functional = flag.String("functional", "HF", "functional: HF|LDA|PBE|PBE0")
		threads    = flag.Int("threads", 0, "HFX worker threads (0 = all CPUs)")
		eps        = flag.Float64("screen", 1e-8, "integral screening threshold")
		charge     = flag.Int("charge", 0, "total molecular charge")
		uhf        = flag.Bool("uhf", false, "spin-unrestricted SCF (HF only)")
		mult       = flag.Int("mult", 0, "spin multiplicity 2S+1 for -uhf (0 = lowest)")
		jsonOut    = flag.Bool("json", false, "emit the shared JSON result encoding (hfxd wire format)")
		cacheMB    = flag.Int("cache-mb", 0, "semi-direct ERI block cache budget in MiB (0 = fully direct builds)")
	)
	flag.Parse()

	mol, err := pickSystem(*xyzPath, *system, *nwater)
	if err != nil {
		log.Fatal(err)
	}
	mol.Charge = *charge

	f, ok := hfxmd.FunctionalByName(*functional)
	if !ok {
		log.Fatalf("unknown functional %q", *functional)
	}
	scropt := hfxmd.DefaultScreening()
	scropt.Threshold = *eps
	hfxopt := hfxmd.PaperExchangeOptions()
	hfxopt.Threads = *threads
	hfxopt.CacheBudgetBytes = int64(*cacheMB) << 20

	if !*jsonOut {
		fmt.Printf("System     : %s (%s), charge %d, %d electrons\n",
			mol.Name, mol.Formula(), mol.Charge, mol.NElectrons())
		fmt.Printf("Model      : %s/%s, screening ε = %g\n", *functional, *basisName, *eps)
	}

	cfg := hfxmd.SCFConfig{
		Basis:      *basisName,
		Functional: f,
		Screen:     scropt,
		HFX:        hfxopt,
	}
	if *uhf {
		if *jsonOut {
			log.Fatal("-json is not supported with -uhf")
		}
		runUHF(mol, cfg, *mult)
		return
	}
	res, err := hfxmd.RunSCF(mol, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(hfxmd.SummarizeSCF(res)); err != nil {
			log.Fatal(err)
		}
		return
	}
	if !res.Converged {
		fmt.Fprintf(os.Stderr, "WARNING: SCF did not converge in %d iterations\n", res.Iterations)
	}

	fmt.Printf("\nConverged  : %v in %d iterations\n", res.Converged, res.Iterations)
	fmt.Printf("Total      : %14.8f Eh  (%.4f eV)\n", res.Energy, res.Energy*phys.HartreeToEV)
	fmt.Printf("  one-el.  : %14.8f Eh\n", res.EOne)
	fmt.Printf("  Coulomb  : %14.8f Eh\n", res.ECoulomb)
	fmt.Printf("  HF-X     : %14.8f Eh\n", res.EExchangeHF)
	fmt.Printf("  XC(grid) : %14.8f Eh\n", res.EXC)
	fmt.Printf("  nuclear  : %14.8f Eh\n", res.ENuclear)
	fmt.Printf("HOMO/LUMO  : %10.5f / %10.5f Eh (gap %.4f eV)\n",
		res.HOMO(), res.LUMO(), res.Gap()*phys.HartreeToEV)

	fmt.Printf("\nHFX build  : %s\n", res.HFXReport)
	fmt.Printf("screening  : %s (schwarz %v, sweep %v, %d threads)\n",
		res.HFXReport.ScreeningStats,
		res.HFXReport.ScreeningStats.SchwarzWall,
		res.HFXReport.ScreeningStats.PairWall,
		res.HFXReport.ScreeningStats.Threads)
	fmt.Printf("pool       : %d workers, %d persistent buffers (%.1f MiB), %d builds, %d reuse hits\n",
		res.HFXReport.Pool.Workers, res.HFXReport.Pool.BuffersAllocated,
		float64(res.HFXReport.Pool.BufferBytes)/(1<<20),
		res.HFXReport.Pool.Builds, res.HFXReport.Pool.ReuseHits)
	if c := res.HFXReport.Cache; c.Enabled {
		fmt.Printf("eri cache  : %d quartets admitted (%.1f/%.1f MiB), last build %d hits / %d misses (%.0f%% hit)\n",
			c.AdmittedQuartets, float64(c.UsedBytes)/(1<<20), float64(c.BudgetBytes)/(1<<20),
			c.Hits, c.Misses, 100*c.HitRatio())
	}
	fmt.Printf("accounting (last build + pool lifetime):\n%s", res.HFXReport.PhaseTable())

	mu := hfxmd.DipoleMoment(res)
	fmt.Printf("Dipole     : (%.4f, %.4f, %.4f) a.u.\n", mu[0], mu[1], mu[2])
	fmt.Println("\nMulliken charges:")
	for i, q := range hfxmd.MullikenCharges(res) {
		fmt.Printf("  %-2s %8.4f\n", mol.Atoms[i].El, q)
	}
}

func runUHF(mol *hfxmd.Molecule, cfg hfxmd.SCFConfig, mult int) {
	res, err := hfxmd.RunUHF(mol, cfg, mult)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Converged {
		fmt.Fprintf(os.Stderr, "WARNING: UHF did not converge in %d iterations\n", res.Iterations)
	}
	fmt.Printf("\nConverged  : %v in %d iterations (UHF, %d alpha / %d beta)\n",
		res.Converged, res.Iterations, res.NAlpha, res.NBeta)
	fmt.Printf("Total      : %14.8f Eh  (%.4f eV)\n", res.Energy, res.Energy*phys.HartreeToEV)
	fmt.Printf("  one-el.  : %14.8f Eh\n", res.EOne)
	fmt.Printf("  Coulomb  : %14.8f Eh\n", res.ECoulomb)
	fmt.Printf("  exchange : %14.8f Eh\n", res.EExchange)
	fmt.Printf("  nuclear  : %14.8f Eh\n", res.ENuclear)
	fmt.Printf("<S²>       : %8.4f (exact %8.4f)\n", res.S2, res.S2Exact())
}

func pickSystem(xyzPath, system string, nwater int) (*hfxmd.Molecule, error) {
	if xyzPath != "" {
		f, err := os.Open(xyzPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return hfxmd.ReadXYZ(f)
	}
	return chem.System(strings.ToLower(system), nwater)
}

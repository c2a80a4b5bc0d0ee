// Command solvents reproduces the paper's chemistry result (experiment
// E8): the stability of Li/air battery electrolyte solvents against
// attack by the discharge product lithium peroxide (Li2O2).
//
// For each solvent it computes a rigid-fragment approach profile of a
// Li2O2 unit along the solvent's sterically open axis towards the
// electrophilic centre (the carbonate carbon of propylene carbonate; the
// sulfur of dimethyl sulfoxide) and reports the interaction energies —
// the precursor of the degradation pathway the paper identifies for PC
// and the enhanced stability it predicts for alternative solvents. Each
// profile runs on one MD session (hfxmd.Scan), so every point
// warm-starts from the points before it; the table and -json report each
// point's SCF iterations.
//
// Usage:
//
//	solvents -functional HF -points 5
//	solvents -functional PBE0 -screen 1e-6   (slower, paper's method)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"hfxmd"
	"hfxmd/internal/phys"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solvents: ")
	var (
		functional = flag.String("functional", "HF", "functional: HF|LDA|PBE|PBE0")
		basisName  = flag.String("basis", "STO-3G", "basis set")
		eps        = flag.Float64("screen", 1e-6, "integral screening threshold")
		points     = flag.Int("points", 5, "number of scan points")
		rmin       = flag.Float64("rmin", 3.4, "closest approach (bohr)")
		rmax       = flag.Float64("rmax", 9.0, "farthest approach (bohr)")
		jsonOut    = flag.Bool("json", false, "emit the shared JSON scan encoding (hfxd wire format)")
	)
	flag.Parse()

	f, ok := hfxmd.FunctionalByName(*functional)
	if !ok {
		log.Fatalf("unknown functional %q", *functional)
	}
	scropt := hfxmd.DefaultScreening()
	scropt.Threshold = *eps
	cfg := hfxmd.SCFConfig{Basis: *basisName, Functional: f, Screen: scropt}

	coords := make([]float64, *points)
	for i := range coords {
		coords[i] = *rmax + (*rmin-*rmax)*float64(i)/float64(*points-1)
	}

	if !*jsonOut {
		fmt.Printf("Li2O2 attack profiles, %s/%s, ε=%g\n", *functional, *basisName, *eps)
	}
	var scans []*hfxmd.ScanSummary
	for _, solvent := range []string{"PC", "DMSO"} {
		prof, err := hfxmd.Scan(cfg, hfxmd.MDSessionOptions{}, coords,
			func(r float64) (*hfxmd.Molecule, error) { return hfxmd.SolvatedPeroxide(solvent, r) }, nil)
		if err != nil {
			log.Fatal(err)
		}
		scans = append(scans, &hfxmd.ScanSummary{Solvent: solvent, Points: prof.Points, WellKcal: prof.Well * phys.HartreeToKcalMol})
		if *jsonOut {
			continue
		}
		fmt.Printf("\n--- %s + Li2O2 ---\n%10s %16s %14s %6s\n", solvent, "R [bohr]", "E [Eh]", "ΔE [kcal/mol]", "iters")
		for _, p := range prof.Points {
			if !p.Converged {
				fmt.Printf("%10.2f   (SCF not converged after %d iterations)\n", p.R, p.Iterations)
				continue
			}
			fmt.Printf("%10.2f %16.8f %14.2f %6d\n", p.R, p.Energy, p.Rel*phys.HartreeToKcalMol, p.Iterations)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(scans); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("\n=== stability verdict ===")
	for _, s := range scans {
		fmt.Printf("%-5s Li2O2 encounter well: %8.2f kcal/mol\n", s.Solvent, s.WellKcal)
	}
	// Electrophilicity panel: the degradation pathway is nucleophilic
	// attack of the peroxide on the solvent, gauged by the LUMO of the
	// isolated molecule — from a plain SCF, since the scans' level shift
	// would lift every virtual level by 0.3 Eh.
	lumo := map[string]float64{}
	for _, pair := range []struct {
		name string
		mol  *hfxmd.Molecule
	}{{"PC", hfxmd.PropyleneCarbonate()}, {"DMSO", hfxmd.DimethylSulfoxide()}} {
		res, err := hfxmd.RunSCF(pair.mol, cfg)
		if err != nil {
			log.Fatal(err)
		}
		lumo[pair.name] = res.LUMO()
		fmt.Printf("%-5s LUMO (electrophilicity): %8.4f Eh\n", pair.name, res.LUMO())
	}
	if lumo["PC"] < lumo["DMSO"] {
		fmt.Println("PC's low-lying carbonate π* invites nucleophilic attack by the peroxide ->")
		fmt.Println("degradation-prone; DMSO-class solvents show enhanced stability (paper's conclusion).")
	} else {
		fmt.Println("NOTE: at this level of theory the ordering is not resolved;")
		fmt.Println("the paper resolves it with PBE0 and realistic liquid models.")
	}
}

// PC degradation: the Li/air electrolyte chemistry of the paper
// (experiment E8) in an example-sized setting. A lithium-peroxide unit
// approaches propylene carbonate's carbonate carbon out-of-plane and, for
// comparison, the open face of dimethyl sulfoxide; the interaction
// profiles probe which solvent binds the peroxide more strongly — the
// precursor of the ring-opening degradation the paper demonstrates, and
// the reason it proposes alternative solvent classes.
//
// The example uses HF/STO-3G with two distances per solvent so it runs in
// a few minutes even on one core; cmd/solvents exposes denser scans and
// the full PBE0 treatment.
package main

import (
	"fmt"
	"log"

	"hfxmd"
	"hfxmd/internal/phys"
)

func main() {
	coords := []float64{9.0, 4.2}
	scropt := hfxmd.DefaultScreening()
	scropt.Threshold = 1e-6
	cfg := hfxmd.SCFConfig{Screen: scropt}

	fmt.Println("Li2O2 approach energies (HF/STO-3G, rigid fragments)")
	wells := map[string]float64{}
	for _, solvent := range []string{"PC", "DMSO"} {
		prof, err := hfxmd.Scan(cfg, hfxmd.MDSessionOptions{}, coords,
			func(r float64) (*hfxmd.Molecule, error) { return hfxmd.SolvatedPeroxide(solvent, r) }, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s + Li2O2:\n%10s %16s %14s\n", solvent, "R [bohr]", "E [Eh]", "ΔE [kcal/mol]")
		for _, p := range prof.Points {
			fmt.Printf("%10.2f %16.8f %14.2f\n", p.R, p.Energy, p.Rel*phys.HartreeToKcalMol)
		}
		wells[solvent] = prof.Well * phys.HartreeToKcalMol
	}
	fmt.Printf("\nencounter energies near contact: PC %.1f kcal/mol, DMSO %.1f kcal/mol\n",
		wells["PC"], wells["DMSO"])

	// Electrophilicity (degradation propensity): LUMO of each solvent.
	fmt.Println("\nelectrophilicity (isolated-solvent LUMO):")
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
		fmt.Printf("  %-5s %8.4f Eh\n", pair.name, res.LUMO())
	}
	if lumo["PC"] < lumo["DMSO"] {
		fmt.Println("=> PC's carbonate π* is the easier nucleophilic target:")
		fmt.Println("   consistent with the paper's degradation finding for PC")
	}
}

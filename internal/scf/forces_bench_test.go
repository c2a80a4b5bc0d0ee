package scf

import (
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/screen"
)

// BenchmarkGradient times one analytic gradient build on the converged
// density of three systems, whole and by phase, on warm objects (engine
// with its derivative tables, builder, integrator bound for forces):
// total is what RunForces adds to a converged SCF apart from those
// first-use tables, eri the exchange builder's gradient phase, xc the
// grid pass, xc-first the same pass after rebinding the integrator (so it
// includes the once-per-geometry φ/∇φ/∇∇φ tabulation), and one-electron
// the overlap, kinetic and nuclear-attraction terms. The
// builder runs one thread, as in the gated aimd_traj workload.
func BenchmarkGradient(b *testing.B) {
	for _, sys := range []struct {
		name string
		mol  *chem.Molecule
		f    dft.Functional
	}{
		{"LiH-PBE0", chem.LithiumHydride(), dft.PBE0{}},
		{"H2O-HF", chem.Water(), dft.HF{}},
		{"H2O2-PBE0", chem.WaterCluster(2, 1), dft.PBE0{}},
	} {
		cfg := Config{Functional: sys.f, HFX: hfx.DefaultOptions()}
		cfg.HFX.Threads = 1
		res, err := Run(sys.mol, cfg)
		if err != nil || !res.Converged {
			b.Fatalf("%s: converged=%v err=%v", sys.name, res != nil && res.Converged, err)
		}
		set := basis.MustBuild("STO-3G", sys.mol)
		eng := integrals.NewEngine(set)
		builder := hfx.NewBuilder(eng, screen.BuildPairList(eng, screen.DefaultOptions()), cfg.HFX)
		var xcInt *dft.Integrator
		grid := dft.BuildGrid(sys.mol, cfg.Grid)
		if sys.f.NeedsGrid() {
			xcInt = new(dft.Integrator)
			xcInt.Rebind(sys.f, set, grid, true)
		}
		aX := sys.f.ExactExchangeFraction()
		eps := res.OrbitalEnergies[:res.NOcc]
		total := func() { forcesOf(sys.mol, builder, xcInt, res.P, res.C, eps, aX) }
		total() // first use builds the derivative tables
		type phase struct {
			name string
			run  func()
		}
		phases := []phase{
			{"total", total},
			{"eri", func() { builder.Gradient(res.P, aX) }},
			{"one-electron", func() { eng.OneElectronGradient(res.P, res.P) }},
		}
		if xcInt != nil {
			phases = append(phases, phase{"xc", func() { xcInt.Gradient(res.P) }})
		}
		for _, ph := range phases {
			b.Run(sys.name+"/"+ph.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ph.run()
				}
			})
		}
		if xcInt != nil {
			b.Run(sys.name+"/xc-first", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					xcInt.Rebind(sys.f, set, grid, true)
					xcInt.Gradient(res.P)
				}
			})
		}
		builder.Close()
	}
}

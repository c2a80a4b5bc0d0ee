package md

import (
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/scf"
)

// vibrating returns the i-th geometry of a smooth periodic path through
// mol: every atom swings along its own fixed direction with amplitude amp
// (bohr) and a period of 24 steps, about a molecular vibration sampled at
// an MD step.
func vibrating(mol *chem.Molecule, amp float64, i int) *chem.Molecule {
	m := mol.Clone()
	s := amp * math.Sin(2*math.Pi*float64(i)/24)
	for a := range m.Atoms {
		dir := chem.Vec3{math.Cos(float64(3 * a)), math.Sin(float64(5 * a)), math.Cos(float64(7*a + 1))}
		m.Atoms[a].Pos = m.Atoms[a].Pos.Add(dir.Scale(s / dir.Norm()))
	}
	return m
}

// BenchmarkSessionStep times one outer step of a served trajectory — a
// warm-started SCF plus its analytic gradient through Session.Forces — on
// consecutive geometries of a smooth path, and reports what the step's cost
// is made of: SCF iterations, passes over the XC tables, and the share of
// the grid those passes touch.
func BenchmarkSessionStep(b *testing.B) {
	for _, sys := range []struct {
		name string
		mol  *chem.Molecule
		amp  float64
	}{
		{"LiH-PBE0", chem.LithiumHydride(), 0.1},
		{"H2O2-PBE0", chem.WaterCluster(2, 1), 0.03},
	} {
		b.Run(sys.name, func(b *testing.B) {
			cfg := scf.Config{Functional: dft.PBE0{}, HFX: hfx.DefaultOptions()}
			cfg.HFX.Threads = 1
			cfg.HFX.CacheBudgetBytes = 64 << 20
			s := NewSession(cfg, SessionOptions{})
			defer s.Close()
			// One period fills the predictor's history and the caches.
			warm := 24
			for i := 0; i < warm; i++ {
				if _, _, err := s.Forces(vibrating(sys.mol, sys.amp, i), 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			st0 := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Forces(vibrating(sys.mol, sys.amp, warm+i), 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			st := s.Stats()
			n := float64(b.N)
			b.ReportMetric(float64(st.SCFIterations-st0.SCFIterations)/n, "scf-iters/step")
			b.ReportMetric(float64(st.XCPasses-st0.XCPasses)/n, "xc-passes/step")
			b.ReportMetric(float64(st.LivePoints)/float64(st.GridPoints), "live-ratio")
			if st.Fallbacks != 0 {
				b.Fatalf("%d cold fallbacks", st.Fallbacks)
			}
		})
	}
}

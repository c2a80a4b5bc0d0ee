package md

import (
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/scf"
)

// stretched returns water with one O–H bond lengthened by dz bohr.
func stretched(dz float64) *chem.Molecule {
	m := chem.Water()
	d := m.Atoms[1].Pos.Sub(m.Atoms[0].Pos)
	m.Atoms[1].Pos = m.Atoms[1].Pos.Add(d.Scale(dz / d.Norm()))
	return m
}

// overlapOf returns the overlap matrix of a converged result's basis.
func overlapOf(res *scf.Result) *linalg.Matrix { return integrals.NewEngine(res.Set).Overlap() }

// recordCold converges a cold SCF at m and pushes it onto pr.
func recordCold(t *testing.T, pr *predictor, m *chem.Molecule) *scf.Result {
	t.Helper()
	res, err := scf.Run(m, sessionCfg())
	if err != nil || !res.Converged {
		t.Fatalf("cold SCF: converged=%v err=%v", res != nil && res.Converged, err)
	}
	pr.record(res.P, overlapOf(res), res.C, res.NOcc, positionsOf(m))
	return res
}

// TestPredictorSeedInvariants: at every history length the seed carries N
// electrons and is idempotent in the metric of the geometry it is for, and a
// uniform sequence earns the full order.
func TestPredictorSeedInvariants(t *testing.T) {
	const step = 0.02
	var pr predictor
	for k := 1; k <= maxOrder+1; k++ {
		recordCold(t, &pr, stretched(step*float64(k-1)))
		next := stretched(step * float64(k))
		s := integrals.NewEngine(basis.MustBuild("STO-3G", next)).Overlap()
		p, order := pr.seed(s, positionsOf(next))
		if want := min(k, maxOrder); order != want {
			t.Fatalf("%d uniform steps: order %d, want %d", k, order, want)
		}
		ps := linalg.Mul(p, s)
		if d := math.Abs(ps.Trace() - float64(next.NElectrons())); d > 1e-12 {
			t.Fatalf("order %d: Tr(PS) off N by %.3e", order, d)
		}
		psp := linalg.Mul(ps, p)
		if d := linalg.MaxAbsDiff(psp, p.Clone().Scale(2)); d > 1e-12 {
			t.Fatalf("order %d: |PSP − 2P| = %.3e", order, d)
		}
		if !p.IsSymmetric(1e-14) {
			t.Fatalf("order %d: seed not symmetric", order)
		}
	}
	if len(pr.ps) != maxOrder || len(pr.pos) != maxOrder {
		t.Fatalf("history holds %d/%d entries, want %d", len(pr.ps), len(pr.pos), maxOrder)
	}
}

// TestPredictorOneEntryIsPurifiedPrevious: with a single step behind it the
// seed is the previous occupied space re-orthonormalised in the new metric,
// P = 2·C(CᵀS'C)⁻¹Cᵀ.
func TestPredictorOneEntryIsPurifiedPrevious(t *testing.T) {
	var pr predictor
	res := recordCold(t, &pr, stretched(0))
	next := stretched(0.05)
	s := integrals.NewEngine(basis.MustBuild("STO-3G", next)).Overlap()
	p, order := pr.seed(s, positionsOf(next))
	if order != 1 {
		t.Fatalf("order %d from one entry", order)
	}
	c := linalg.NewMatrix(res.C.Rows, res.NOcc)
	for i := 0; i < c.Rows; i++ {
		copy(c.Row(i), res.C.Row(i)[:res.NOcc])
	}
	gram := linalg.Mul(c.T(), linalg.Mul(s, c))
	inv, err := linalg.SolveLinear(gram, linalg.Identity(res.NOcc))
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Mul(c, linalg.Mul(inv, c.T())).Scale(2)
	if d := linalg.MaxAbsDiff(p, want); d > 1e-12 {
		t.Fatalf("seed differs from the purified previous density by %.3e", d)
	}
	// It is not the previous density itself: that one is not idempotent here.
	if d := linalg.MaxAbsDiff(p, res.P); d < 1e-6 {
		t.Fatalf("seed equals the unpurified previous density (Δ %.3e)", d)
	}
}

// TestPredictorOrderSelection: the order follows how well the stored
// geometries extrapolate to the new one, with no knob. Only geometries
// enter, so the history's matrices are left nil.
func TestPredictorOrderSelection(t *testing.T) {
	at := func(z float64) []chem.Vec3 { return []chem.Vec3{{0, 0, 0}, {0, 0, z}} }
	for _, tc := range []struct {
		name   string
		past   []float64 // oldest first
		next   float64
		expect int
	}{
		{"uniform", []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}, 0.06, 6},
		{"parabola", []float64{0, 0.01, 0.04, 0.09}, 0.16, 4},
		{"two steps", []float64{0, 0.01}, 0.02, 2},
		{"one step", []float64{0}, 0.5, 1},
		{"repeated start", []float64{0, 0, 0.01}, 0.02, 2},
		{"uneven scan", []float64{0, 0.01, 0.02}, 0.1, 1},
		{"reversed step", []float64{0, 0.01, 0.02}, 0.01, 1},
		{"same geometry again", []float64{0, 0.01, 0.02}, 0.02, 1},
		{"restart after a jump", []float64{0, 0.01, 0.02, 1.0, 1.01}, 1.02, 2},
	} {
		var pr predictor
		for _, z := range tc.past {
			pr.ps = append([]*linalg.Matrix{nil}, pr.ps...)
			pr.pos = append([][]chem.Vec3{at(z)}, pr.pos...)
		}
		if got := pr.order(at(tc.next)); got != tc.expect {
			t.Errorf("%s: order %d, want %d", tc.name, got, tc.expect)
		}
	}
	for m := 1; m <= maxOrder; m++ {
		var sum float64
		for j := 1; j <= m; j++ {
			sum += weight(m, j)
		}
		if sum != 1 {
			t.Errorf("order %d weights sum to %g", m, sum)
		}
	}
}

// TestSessionUnevenSequence drives a session through a scan with uneven
// steps, a reversal and a repeated geometry: every run converges to the cold
// energy, none falls back, and the order drops where the path stops being
// smooth.
func TestSessionUnevenSequence(t *testing.T) {
	s := NewSession(sessionCfg(), SessionOptions{})
	defer s.Close()
	path := []float64{0, 0.01, 0.02, 0.03, 0.1, 0.08, 0.08, 0.2, 0.21, 0.22}
	orders := make([]int, len(path))
	for i, dz := range path {
		res, err := s.Run(nudged(dz))
		if err != nil || !res.Converged {
			t.Fatalf("step %d: converged=%v err=%v", i, res != nil && res.Converged, err)
		}
		cold, err := scf.Run(nudged(dz), sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(res.Energy - cold.Energy); d > 1e-7 {
			t.Fatalf("step %d: energy off by %.3e Eh from cold", i, d)
		}
		orders[i] = s.Stats().PredictorOrder
	}
	// The smooth start climbs; the uneven step, the reversal and the repeat
	// each leave only the previous step to go by.
	want := []int{0, 1, 2, 3, 1, 1, 1}
	for i := range want {
		if orders[i] != want[i] {
			t.Fatalf("orders %v, want %v", orders, want)
		}
	}
	if st := s.Stats(); st.Fallbacks != 0 || st.WarmStarts != int64(len(path)-1) {
		t.Fatalf("stats %+v: want no fallback and every later run seeded", st)
	}
}

// TestSessionHistoryCleared: a composition change, an unconverged run and a
// cold fallback each leave the next run without history.
func TestSessionHistoryCleared(t *testing.T) {
	seededNext := func(s *Session, m *chem.Molecule) int {
		t.Helper()
		if _, err := s.Run(m); err != nil {
			t.Fatal(err)
		}
		return s.Stats().PredictorOrder
	}

	s := NewSession(sessionCfg(), SessionOptions{MaxDisplacement: 1e9})
	defer s.Close()
	seededNext(s, nudged(0))
	if o := seededNext(s, nudged(0.01)); o != 1 {
		t.Fatalf("second LiH step seeded at order %d, want 1", o)
	}
	if o := seededNext(s, chem.Water()); o != 0 || len(s.pred.ps) != 1 {
		t.Fatalf("after a composition change: order %d, %d entries", o, len(s.pred.ps))
	}

	// An SCF cut off before convergence is no basis for extrapolation.
	cfg := sessionCfg()
	cfg.MaxIter = 2
	u := NewSession(cfg, SessionOptions{})
	defer u.Close()
	u.pred = s.pred
	if res, err := u.Run(chem.Water()); err != nil || res.Converged {
		t.Fatalf("2-iteration run: converged=%v err=%v", res != nil && res.Converged, err)
	}
	if len(u.pred.ps) != 0 {
		t.Fatalf("%d entries survive an unconverged run", len(u.pred.ps))
	}

	// A seed that cannot converge within MaxIter — here the occupied space
	// swapped for virtual orbitals — falls back cold and takes the history
	// that produced it along.
	cold, err := scf.Run(nudged(0), sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxIter = cold.Iterations
	f := NewSession(cfg, SessionOptions{})
	defer f.Close()
	seededNext(f, nudged(0))
	n := cold.C.Rows
	for i := 0; i < n; i++ {
		copy(f.pred.cocc.Row(i), cold.C.Row(i)[n-cold.NOcc:])
	}
	f.pred.ps[0] = linalg.Mul(linalg.MulABt(f.pred.cocc, f.pred.cocc), overlapOf(cold))
	before := f.Stats()
	if _, _, err := f.Forces(nudged(0), 0, 1); err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	st := f.Stats()
	if st.Fallbacks != before.Fallbacks+1 || len(f.pred.ps) != 1 {
		t.Fatalf("stats %+v after %+v, %d entries: want one fallback and a history restarted from it", st, before, len(f.pred.ps))
	}
}

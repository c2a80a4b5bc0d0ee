package dft

import (
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

func TestLebedevWeightsAndMoments(t *testing.T) {
	for _, n := range []int{6, 14, 26, 38, 50} {
		pts, w := lebedev(n)
		if len(pts) != n || len(w) != n {
			t.Fatalf("order %d: %d points %d weights", n, len(pts), len(w))
		}
		var sum, x2, xy float64
		for i, p := range pts {
			if math.Abs(p.Norm()-1) > 1e-12 {
				t.Fatalf("order %d point %d not on unit sphere: |p|=%g", n, i, p.Norm())
			}
			sum += w[i]
			x2 += w[i] * p[0] * p[0]
			xy += w[i] * p[0] * p[1]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("order %d weights sum %g", n, sum)
		}
		// ⟨x²⟩ = 1/3 and ⟨xy⟩ = 0 for any rule exact beyond degree 2.
		if math.Abs(x2-1.0/3) > 1e-10 {
			t.Fatalf("order %d ⟨x²⟩ = %g", n, x2)
		}
		if math.Abs(xy) > 1e-12 {
			t.Fatalf("order %d ⟨xy⟩ = %g", n, xy)
		}
	}
}

func TestLebedevUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lebedev(17)
}

func TestBeckeWeightsPartitionUnity(t *testing.T) {
	mol := chem.Water()
	pts := []chem.Vec3{{0.3, 0.1, 0.5}, {1.5, -0.2, 0.9}, {-2, 1, 0}}
	part := newBecke(mol)
	for _, p := range pts {
		var sum float64
		for a := range mol.Atoms {
			sum += part.weight(a, p)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Becke weights at %v sum to %g", p, sum)
		}
	}
}

// beckeWeightReference is the partition weight as the parent commit
// computed it: every distance recomputed inside the double loop, both
// orders of every pair evaluated.
func beckeWeightReference(mol *chem.Molecule, ia int, p chem.Vec3) float64 {
	n := mol.NAtoms()
	if n == 1 {
		return 1
	}
	cells := make([]float64, n)
	for i := 0; i < n; i++ {
		cells[i] = 1
	}
	for i := 0; i < n; i++ {
		ri := p.Sub(mol.Atoms[i].Pos).Norm()
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rj := p.Sub(mol.Atoms[j].Pos).Norm()
			rij := mol.Atoms[j].Pos.Sub(mol.Atoms[i].Pos).Norm()
			mu := (ri - rj) / rij
			f := mu
			for it := 0; it < 3; it++ {
				f = 1.5*f - 0.5*f*f*f
			}
			cells[i] *= 0.5 * (1 - f)
		}
	}
	var total float64
	for _, c := range cells {
		total += c
	}
	if total <= 0 {
		return 0
	}
	return cells[ia] / total
}

// The precomputed-distance partition must reproduce the reference bit for
// bit for every atom at every grid point, so the grid itself is unchanged:
// point counts and weight sums are the parent commit's.
func TestBeckeWeightsMatchReferenceBitwise(t *testing.T) {
	for _, tc := range []struct {
		mol    *chem.Molecule
		points int
		weight float64
	}{
		{chem.Water(), 2476, 1801087675.6404181},
		{chem.WaterCluster(2, 1), 4899, 1325851785.9466872},
	} {
		part := newBecke(tc.mol)
		g := BuildGrid(tc.mol, DefaultGridSpec())
		var sum float64
		for _, pt := range g.Points {
			sum += pt.W
			for a := range tc.mol.Atoms {
				if got, want := part.weight(a, pt.Pos), beckeWeightReference(tc.mol, a, pt.Pos); got != want {
					t.Fatalf("%s atom %d at %v: weight %.17g, reference %.17g", tc.mol.Formula(), a, pt.Pos, got, want)
				}
			}
		}
		if len(g.Points) != tc.points || sum != tc.weight {
			t.Fatalf("%s: %d points of total weight %.17g, want %d and %.17g",
				tc.mol.Formula(), len(g.Points), sum, tc.points, tc.weight)
		}
	}
}

func TestGridIntegratesGaussian(t *testing.T) {
	// A normalized s Gaussian on the oxygen of water: ∫ρ = 1.
	mol := chem.Water()
	alpha := 1.3
	norm := math.Pow(2*alpha/math.Pi, 1.5)
	rho := func(r chem.Vec3) float64 {
		d := r.Sub(mol.Atoms[0].Pos)
		return norm * math.Exp(-2*alpha*d.Norm2())
	}
	// On a single centre the radial rule is essentially exact.
	he := chem.Helium()
	gHe := BuildGrid(he, GridSpec{NRadial: 48, NAngular: 14})
	got := gHe.NumberOfElectrons(func(r chem.Vec3) float64 {
		return norm * math.Exp(-2*alpha*r.Norm2())
	})
	if math.Abs(got-1) > 1e-7 {
		t.Fatalf("single-centre grid integral %g want 1", got)
	}
	// Multi-centre accuracy is limited by the small Lebedev orders (the
	// Becke partition shifts density onto neighbour grids); it must stay
	// within a few 1e-3 and improve with angular order.
	err26 := math.Abs(BuildGrid(mol, GridSpec{NRadial: 48, NAngular: 26}).NumberOfElectrons(rho) - 1)
	err50 := math.Abs(BuildGrid(mol, GridSpec{NRadial: 48, NAngular: 50}).NumberOfElectrons(rho) - 1)
	if err26 > 5e-3 {
		t.Fatalf("26-point angular error %g too large", err26)
	}
	if err50 >= err26 {
		t.Fatalf("angular refinement did not help: %g -> %g", err26, err50)
	}
}

func TestGridElectronCountFromDensityMatrix(t *testing.T) {
	// With P = 2(S^{-1}) ... simpler: use the exact normalized first basis
	// function: P with P_00 = 2 integrates to 2.
	mol := chem.Helium()
	set := basis.MustBuild("STO-3G", mol)
	g := BuildGrid(mol, GridSpec{NRadial: 48, NAngular: 14})
	p := linalg.NewSquare(set.NBasis)
	p.Set(0, 0, 2)
	res := NewIntegrator(LDA{}, set, g).Integrate(p)
	if math.Abs(res.NElec-2) > 1e-4 {
		t.Fatalf("grid electron count %g want 2", res.NElec)
	}
	if res.Energy >= 0 {
		t.Fatalf("LDA XC energy %g should be negative", res.Energy)
	}
	if !res.V.IsSymmetric(1e-12) {
		t.Fatal("XC matrix not symmetric")
	}
}

func TestEvalBasisGradientFiniteDifference(t *testing.T) {
	set := basis.MustBuild("STO-3G", chem.Water())
	n := set.NBasis
	vals := make([]float64, n)
	grads := make([][3]float64, n)
	r := chem.Vec3{0.4, -0.3, 0.7}
	EvalBasis(set, r, vals, grads)
	const h = 1e-6
	vp := make([]float64, n)
	vm := make([]float64, n)
	gp := make([][3]float64, n)
	for k := 0; k < 3; k++ {
		rp, rm := r, r
		rp[k] += h
		rm[k] -= h
		EvalBasis(set, rp, vp, gp)
		EvalBasis(set, rm, vm, gp)
		for i := 0; i < n; i++ {
			fd := (vp[i] - vm[i]) / (2 * h)
			if math.Abs(fd-grads[i][k]) > 1e-6*(1+math.Abs(fd)) {
				t.Fatalf("basis %d grad[%d]: analytic %g fd %g", i, k, grads[i][k], fd)
			}
		}
	}
}

func TestSlaterExchangeValue(t *testing.T) {
	// f_x(ρ) = −cx·ρ^{4/3}: check against an independent evaluation.
	rho := 0.8
	f, v, _ := (LDA{}).Eval(rho, 0)
	fx := -0.7385587663820224 * math.Pow(rho, 4.0/3.0)
	ecPart := f - fx
	if ecPart >= 0 {
		t.Fatalf("correlation energy density %g should be negative", ecPart)
	}
	// v must equal the numeric derivative of f w.r.t. ρ.
	h := 1e-7
	fp, _, _ := (LDA{}).Eval(rho+h, 0)
	fm, _, _ := (LDA{}).Eval(rho-h, 0)
	fd := (fp - fm) / (2 * h)
	if math.Abs(fd-v) > 1e-6 {
		t.Fatalf("LDA potential %g vs numeric %g", v, fd)
	}
}

func TestPBEReducesToLDAExchangeAtZeroGradient(t *testing.T) {
	rho := 0.37
	exPBE := pbeExchangeOnly(rho, 0)
	exLDA := -cx * rho * math.Cbrt(rho)
	if math.Abs(exPBE-exLDA) > 1e-13 {
		t.Fatalf("PBE exchange at s=0: %g vs LDA %g", exPBE, exLDA)
	}
}

func TestPBEEnhancementBounded(t *testing.T) {
	// PBE exchange enhancement is bounded by 1+κ = 1.804 (Lieb–Oxford).
	rho := 0.2
	exLDA := -cx * rho * math.Cbrt(rho)
	for _, gamma := range []float64{0, 0.01, 1, 100, 1e6} {
		ex := pbeExchangeOnly(rho, gamma)
		ratio := ex / exLDA
		if ratio < 1-1e-12 || ratio > 1.804+1e-12 {
			t.Fatalf("γ=%g: enhancement %g out of [1, 1.804]", gamma, ratio)
		}
	}
}

func TestPBEMoreNegativeWithGradient(t *testing.T) {
	// Exchange becomes more negative as the gradient grows.
	rho := 0.5
	prev := pbeExchangeOnly(rho, 0)
	for _, gamma := range []float64{0.1, 1, 10} {
		ex := pbeExchangeOnly(rho, gamma)
		if ex >= prev {
			t.Fatalf("exchange not decreasing with γ: %g -> %g", prev, ex)
		}
		prev = ex
	}
}

func TestVWNDerivativeConsistency(t *testing.T) {
	for _, rho := range []float64{0.01, 0.1, 1, 10} {
		ec, vc := vwn5(rho)
		if ec >= 0 {
			t.Fatalf("ε_c(%g) = %g not negative", rho, ec)
		}
		// v_c = d(ρ·ε_c)/dρ.
		h := rho * 1e-6
		ep, _ := vwn5(rho + h)
		em, _ := vwn5(rho - h)
		fd := ((rho+h)*ep - (rho-h)*em) / (2 * h)
		if math.Abs(fd-vc) > 1e-5*math.Abs(vc) {
			t.Fatalf("ρ=%g: v_c %g vs numeric %g", rho, vc, fd)
		}
	}
}

func TestFunctionalRegistry(t *testing.T) {
	for _, name := range []string{"HF", "LDA", "PBE", "PBE0"} {
		f, ok := ByName(name)
		if !ok || f.Name() == "" {
			t.Fatalf("missing functional %s", name)
		}
	}
	if _, ok := ByName("B3LYP"); ok {
		t.Fatal("unexpected functional")
	}
	if (PBE0{}).ExactExchangeFraction() != 0.25 {
		t.Fatal("PBE0 mixing wrong")
	}
	if (HF{}).ExactExchangeFraction() != 1 {
		t.Fatal("HF mixing wrong")
	}
}

func TestPBE0SemilocalLessExchangeThanPBE(t *testing.T) {
	// PBE0's semilocal part removes 25% of PBE exchange, so its energy
	// density must be above (less negative than) PBE's.
	rho, gamma := 0.4, 0.3
	fp, _, _ := (PBE{}).Eval(rho, gamma)
	f0, _, _ := (PBE0{}).Eval(rho, gamma)
	if !(f0 > fp) {
		t.Fatalf("PBE0 semilocal %g not above PBE %g", f0, fp)
	}
	diff := f0 - fp
	want := -0.25 * pbeExchangeOnly(rho, gamma)
	if math.Abs(diff-want) > 1e-9 {
		t.Fatalf("PBE0-PBE difference %g want %g", diff, want)
	}
}

func TestGridSpecDefaults(t *testing.T) {
	g := BuildGrid(chem.Helium(), GridSpec{})
	if len(g.Points) == 0 {
		t.Fatal("empty default grid")
	}
}

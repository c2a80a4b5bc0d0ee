package chem

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hfxmd/internal/phys"
)

func TestElementRoundTrip(t *testing.T) {
	for e := Element(1); e <= Ar; e++ {
		got, err := ElementFromSymbol(e.Symbol())
		if err != nil {
			t.Fatalf("symbol %q: %v", e.Symbol(), err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

func TestElementFromSymbolCaseInsensitive(t *testing.T) {
	for _, s := range []string{"li", "LI", "Li", " li "} {
		e, err := ElementFromSymbol(s)
		if err != nil || e != Li {
			t.Fatalf("%q -> %v, %v", s, e, err)
		}
	}
	if _, err := ElementFromSymbol("Xx"); err == nil {
		t.Fatal("expected error for unknown symbol")
	}
}

func TestWaterGeometry(t *testing.T) {
	w := Water()
	if w.NAtoms() != 3 || w.NElectrons() != 10 {
		t.Fatalf("water: %d atoms, %d electrons", w.NAtoms(), w.NElectrons())
	}
	r1 := w.Distance(0, 1) * phys.BohrToAngstrom
	r2 := w.Distance(0, 2) * phys.BohrToAngstrom
	if math.Abs(r1-0.9572) > 1e-6 || math.Abs(r2-0.9572) > 1e-6 {
		t.Fatalf("OH distances %g, %g", r1, r2)
	}
	// HOH angle.
	v1 := w.Atoms[1].Pos.Sub(w.Atoms[0].Pos)
	v2 := w.Atoms[2].Pos.Sub(w.Atoms[0].Pos)
	ang := math.Acos(v1.Dot(v2)/(v1.Norm()*v2.Norm())) * 180 / math.Pi
	if math.Abs(ang-104.52) > 1e-4 {
		t.Fatalf("HOH angle %g", ang)
	}
}

func TestNuclearRepulsionH2(t *testing.T) {
	h2 := Hydrogen(1.4)
	got := h2.NuclearRepulsion()
	want := 1.0 / 1.4
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("E_nn got %g want %g", got, want)
	}
}

// The gradient must be the derivative of NuclearRepulsion itself, open
// boundary and under the minimum-image convention alike (in the periodic
// box some pairs interact through an image).
func TestNuclearRepulsionGradient(t *testing.T) {
	for _, mol := range []*Molecule{PropyleneCarbonate(), PeriodicWaterBox(2, 1)} {
		g := mol.NuclearRepulsionGradient()
		var sum Vec3
		for a := range mol.Atoms {
			sum = sum.Add(g[a])
			for k := 0; k < 3; k++ {
				energy := func(x float64) float64 {
					m := mol.Clone()
					m.Atoms[a].Pos[k] += x
					return m.NuclearRepulsion()
				}
				const h = 1e-3
				d1 := (energy(h) - energy(-h)) / (2 * h)
				d2 := (energy(h/2) - energy(-h/2)) / h
				if want := (4*d2 - d1) / 3; math.Abs(g[a][k]-want) > 1e-8 {
					t.Fatalf("%s atom %d axis %d: gradient %.10g, FD %.10g", mol.Name, a, k, g[a][k], want)
				}
			}
		}
		if sum.Norm() > 1e-10 {
			t.Fatalf("%s: gradient sums to %.3g", mol.Name, sum.Norm())
		}
	}
}

func TestXYZRoundTrip(t *testing.T) {
	m := PropyleneCarbonate()
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NAtoms() != m.NAtoms() {
		t.Fatalf("atom count %d != %d", m2.NAtoms(), m.NAtoms())
	}
	for i := range m.Atoms {
		if m.Atoms[i].El != m2.Atoms[i].El {
			t.Fatalf("atom %d element mismatch", i)
		}
		if m.Atoms[i].Pos.Sub(m2.Atoms[i].Pos).Norm() > 1e-7 {
			t.Fatalf("atom %d position drift", i)
		}
	}
}

func TestReadXYZErrors(t *testing.T) {
	cases := []string{
		"",
		"notanumber\ncomment\n",
		"2\ncomment\nH 0 0 0\n",    // too few atoms
		"1\ncomment\nQq 0 0 0\n",   // bad element
		"1\ncomment\nH 0 zero 0\n", // bad coordinate
		"1\ncomment\nH 0 0\n",      // short line
		"-1\ncomment\n",            // negative count
	}
	for _, c := range cases {
		if _, err := ReadXYZ(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestWaterClusterCountAndDensity(t *testing.T) {
	for _, n := range []int{1, 2, 8, 27, 30} {
		m := WaterCluster(n, 1)
		if m.NAtoms() != 3*n {
			t.Fatalf("n=%d: %d atoms", n, m.NAtoms())
		}
	}
	// Deterministic for the same seed.
	a := WaterCluster(8, 42)
	b := WaterCluster(8, 42)
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("WaterCluster not deterministic for fixed seed")
		}
	}
	// Different seeds produce different orientations.
	c := WaterCluster(8, 43)
	same := true
	for i := range a.Atoms {
		if a.Atoms[i].Pos != c.Atoms[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("WaterCluster ignored the seed")
	}
}

func TestPeriodicWaterBoxMinimumImage(t *testing.T) {
	m := PeriodicWaterBox(8, 1)
	if m.Cell == nil {
		t.Fatal("no cell")
	}
	l := m.Cell.L[0]
	// A displacement longer than half the box must be folded back.
	d := m.Cell.MinimumImage(Vec3{0, 0, 0}, Vec3{0.9 * l, 0, 0})
	if math.Abs(d[0]+0.1*l) > 1e-10 {
		t.Fatalf("minimum image got %g want %g", d[0], -0.1*l)
	}
}

func TestCellWrap(t *testing.T) {
	c := Cell{L: Vec3{10, 10, 10}}
	p := c.Wrap(Vec3{-1, 11, 25})
	want := Vec3{9, 1, 5}
	if p.Sub(want).Norm() > 1e-12 {
		t.Fatalf("wrap got %v want %v", p, want)
	}
}

func TestMinimumImageProperty(t *testing.T) {
	// |minimum image| ≤ L√3/2 for a cubic box.
	c := Cell{L: Vec3{7, 7, 7}}
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		d := c.MinimumImage(
			Vec3{clamp(ax), clamp(ay), clamp(az)},
			Vec3{clamp(bx), clamp(by), clamp(bz)})
		for k := 0; k < 3; k++ {
			if math.Abs(d[k]) > 3.5+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMoleculeFormula(t *testing.T) {
	if f := PropyleneCarbonate().Formula(); f != "C4H6O3" {
		t.Fatalf("PC formula %q", f)
	}
	if f := DimethylSulfoxide().Formula(); f != "C2H6OS" {
		t.Fatalf("DMSO formula %q", f)
	}
	if f := LithiumPeroxide().Formula(); f != "Li2O2" {
		t.Fatalf("Li2O2 formula %q", f)
	}
}

func TestNElectronsAndCharge(t *testing.T) {
	m := LithiumPeroxide()
	if m.NElectrons() != 2*3+2*8 {
		t.Fatalf("Li2O2 electrons %d", m.NElectrons())
	}
	m.Charge = 1
	if m.NElectrons() != 21 {
		t.Fatalf("cation electrons %d", m.NElectrons())
	}
}

func TestBondsWater(t *testing.T) {
	b := Water().Bonds(1.2)
	if len(b) != 2 {
		t.Fatalf("water bonds %v", b)
	}
}

func TestSolvatedPeroxide(t *testing.T) {
	m, err := SolvatedPeroxide("PC", 6.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NAtoms() != 13+4 {
		t.Fatalf("%d atoms", m.NAtoms())
	}
	if _, err := SolvatedPeroxide("XYZ", 6.0); err == nil {
		t.Fatal("expected error for unknown solvent")
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if v.Dot(w) != 32 {
		t.Fatalf("dot %g", v.Dot(w))
	}
	x := v.Cross(w)
	if x != (Vec3{-3, 6, -3}) {
		t.Fatalf("cross %v", x)
	}
	if math.Abs(v.Norm()-math.Sqrt(14)) > 1e-15 {
		t.Fatalf("norm %g", v.Norm())
	}
}

func TestCenterOfMassTranslate(t *testing.T) {
	m := Water()
	m.Translate(Vec3{1, 2, 3})
	com := m.CenterOfMass()
	m.Translate(com.Scale(-1))
	if m.CenterOfMass().Norm() > 1e-12 {
		t.Fatal("COM not at origin after recentring")
	}
}

func TestMergePreservesCharge(t *testing.T) {
	a := Water()
	a.Charge = 1
	b := LithiumPeroxide()
	b.Charge = -1
	m := a.Merge(b)
	if m.Charge != 0 {
		t.Fatalf("merged charge %d", m.Charge)
	}
	if m.NAtoms() != 7 {
		t.Fatalf("merged atoms %d", m.NAtoms())
	}
}

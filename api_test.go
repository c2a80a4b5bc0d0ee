package hfxmd_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hfxmd"
	"hfxmd/internal/integrals"
)

func TestFacadeSCFWater(t *testing.T) {
	res, err := hfxmd.RunSCF(hfxmd.Water(), hfxmd.SCFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Energy-(-74.963)) > 5e-3 {
		t.Fatalf("energy %f", res.Energy)
	}
	q := hfxmd.MullikenCharges(res)
	if len(q) != 3 {
		t.Fatalf("charges %v", q)
	}
	mu := hfxmd.DipoleMoment(res)
	if mu[2] <= 0 {
		t.Fatalf("dipole %v", mu)
	}
}

// TestSummaryReusesRunOverlap: an SCF result carries the engine its run
// used, whose S is already memoised, so the wire summary and the facade's
// Mulliken charges and dipole compute no second overlap matrix.
func TestSummaryReusesRunOverlap(t *testing.T) {
	res, err := hfxmd.RunSCF(hfxmd.Water(), hfxmd.SCFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := integrals.OverlapPasses()
	sum := hfxmd.SummarizeSCF(res)
	q := hfxmd.MullikenCharges(res)
	mu := hfxmd.DipoleMoment(res)
	if n := integrals.OverlapPasses() - before; n != 0 {
		t.Fatalf("summarising a finished SCF walked the S pass %d times, want 0", n)
	}
	if len(q) != 3 || !slices.Equal(q, sum.Mulliken) || mu != sum.Dipole {
		t.Fatalf("facade charges %v / dipole %v differ from the summary's %v / %v", q, mu, sum.Mulliken, sum.Dipole)
	}
}

func TestFacadeXYZRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := hfxmd.WriteXYZ(&buf, hfxmd.PropyleneCarbonate()); err != nil {
		t.Fatal(err)
	}
	m, err := hfxmd.ReadXYZ(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Formula() != "C4H6O3" {
		t.Fatalf("formula %s", m.Formula())
	}
}

func TestFacadeBasisRegistry(t *testing.T) {
	if len(hfxmd.AvailableBasisSets()) != 4 {
		t.Fatalf("basis sets %v", hfxmd.AvailableBasisSets())
	}
	set, err := hfxmd.BuildBasis("6-31G", hfxmd.Water())
	if err != nil {
		t.Fatal(err)
	}
	if set.NBasis != 13 {
		t.Fatalf("6-31G water NBasis %d", set.NBasis)
	}
	if _, ok := hfxmd.FunctionalByName("PBE0"); !ok {
		t.Fatal("PBE0 missing")
	}
}

func TestFacadeMachineSim(t *testing.T) {
	m, err := hfxmd.NewMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Threads() != 131072 {
		t.Fatalf("threads %d", m.Threads())
	}
	w := hfxmd.CondensedPhaseWorkload(64, 1<<12, 1)
	res := m.Simulate(w, hfxmd.PaperScheme())
	if res.Total <= 0 {
		t.Fatalf("sim %+v", res)
	}
}

func TestFacadeExchangeBuilderErrors(t *testing.T) {
	_, err := hfxmd.NewExchangeBuilder(hfxmd.Water(), "NOPE",
		hfxmd.DefaultScreening(), hfxmd.PaperExchangeOptions())
	if err == nil {
		t.Fatal("expected basis error")
	}
}

// ExampleRunSCF demonstrates the quickstart path; the energy matches the
// Szabo–Ostlund literature value.
func ExampleRunSCF() {
	res, err := hfxmd.RunSCF(hfxmd.Hydrogen(1.4), hfxmd.SCFConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("E(H2, RHF/STO-3G) = %.4f Eh\n", res.Energy)
	// Output: E(H2, RHF/STO-3G) = -1.1167 Eh
}

// ExampleNewMachine shows the 96-rack partition of the scaling study.
func ExampleNewMachine() {
	m, err := hfxmd.NewMachine(96)
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Threads(), "hardware threads")
	// Output: 6291456 hardware threads
}

// TestBuildJKCopySurvivesRebuild pins the aliasing contract of the
// exchange facade: BuildJK returns views into the builder's pooled
// buffers that the next build overwrites in place (the trap that bit the
// UHF alpha/beta builds), while BuildJKCopy returns stable copies.
func TestBuildJKCopySurvivesRebuild(t *testing.T) {
	eb, err := hfxmd.NewExchangeBuilder(hfxmd.Water(), "STO-3G",
		hfxmd.DefaultScreening(), hfxmd.PaperExchangeOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Close()
	n := eb.NBasis()
	density := func(scale float64) *hfxmd.Matrix {
		p := &hfxmd.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n)}
		for i := 0; i < n; i++ {
			p.Set(i, i, scale)
		}
		return p
	}
	p1, p2 := density(0.5), density(1.0)

	jc, kc, _ := eb.BuildJKCopy(p1)
	ja, ka, _ := eb.BuildJK(p1)
	maxDiff := func(a, b *hfxmd.Matrix, scaleB float64) float64 {
		var m float64
		for i := range a.Data {
			if d := math.Abs(a.Data[i] - scaleB*b.Data[i]); d > m {
				m = d
			}
		}
		return m
	}
	if d := maxDiff(jc, ja, 1); d != 0 {
		t.Fatalf("copy and aliased build disagree before rebuild: %g", d)
	}

	// Rebuild with the doubled density: the aliased matrices must be
	// silently overwritten while the copies stay put.
	j2, k2, _ := eb.BuildJK(p2)
	if d := maxDiff(ja, jc, 1); d == 0 {
		t.Fatal("aliased J was not overwritten by the second build — the aliasing trap this test guards vanished")
	}
	if d := maxDiff(ka, kc, 1); d == 0 {
		t.Fatal("aliased K was not overwritten by the second build")
	}
	// J and K are linear in P, so the stable copies must be exactly half
	// the doubled-density build (same quartets, same summation order).
	if d := maxDiff(j2, jc, 2); d > 1e-12 {
		t.Fatalf("BuildJKCopy J drifted after rebuild: max |J2 - 2*Jcopy| = %g", d)
	}
	if d := maxDiff(k2, kc, 2); d > 1e-12 {
		t.Fatalf("BuildJKCopy K drifted after rebuild: max |K2 - 2*Kcopy| = %g", d)
	}
}

package scf

import (
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/screen"
)

func TestUHFHydrogenAtom(t *testing.T) {
	mol := &chem.Molecule{Name: "H", Atoms: []chem.Atom{{El: chem.H}}}
	res, err := RunUnrestricted(mol, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("H atom UHF did not converge")
	}
	// STO-3G hydrogen atom: E = −0.46658 Eh (basis-limited; exact −0.5).
	if math.Abs(res.Energy-(-0.46658)) > 1e-4 {
		t.Fatalf("E(H) = %.6f want -0.46658", res.Energy)
	}
	if res.NAlpha != 1 || res.NBeta != 0 {
		t.Fatalf("occupations %d/%d", res.NAlpha, res.NBeta)
	}
	// A one-electron system is contamination-free: ⟨S²⟩ = 0.75 exactly.
	if math.Abs(res.S2-0.75) > 1e-8 {
		t.Fatalf("S² = %g want 0.75", res.S2)
	}
}

func TestUHFLithiumAtom(t *testing.T) {
	mol := &chem.Molecule{Name: "Li", Atoms: []chem.Atom{{El: chem.Li}}}
	res, err := RunUnrestricted(mol, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Li UHF did not converge")
	}
	// ROHF/STO-3G lithium ≈ −7.3155 Eh; UHF is equal or slightly below.
	if math.Abs(res.Energy-(-7.3155)) > 5e-3 {
		t.Fatalf("E(Li) = %.6f want about -7.3155", res.Energy)
	}
	if res.S2 < res.S2Exact()-1e-8 {
		t.Fatalf("S² = %g below exact %g", res.S2, res.S2Exact())
	}
}

func TestUHFMatchesRHFForClosedShell(t *testing.T) {
	rhf, err := Run(chem.Water(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	uhf, err := RunUnrestricted(chem.Water(), Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !uhf.Converged {
		t.Fatal("UHF water did not converge")
	}
	if math.Abs(uhf.Energy-rhf.Energy) > 1e-6 {
		t.Fatalf("UHF %f vs RHF %f", uhf.Energy, rhf.Energy)
	}
	// Singlet: S² = 0.
	if math.Abs(uhf.S2) > 1e-6 {
		t.Fatalf("singlet S² = %g", uhf.S2)
	}
	// tr(Pσ S) per spin channel.
	if d := linTraceTimesOverlap(uhf, t); math.Abs(d-10) > 1e-6 {
		t.Fatalf("tr(Pt·S) = %g", d)
	}
}

func linTraceTimesOverlap(res *UnrestrictedResult, t *testing.T) float64 {
	t.Helper()
	s := integrals.NewEngine(res.Set).Overlap()
	var tr float64
	for i := 0; i < s.Rows; i++ {
		for k := 0; k < s.Rows; k++ {
			tr += res.PTotal.At(i, k) * s.At(k, i)
		}
	}
	return tr
}

func TestUHFSuperoxideAnionDoublet(t *testing.T) {
	// O2⁻ — the Li/air discharge intermediate. 17 electrons, doublet.
	o2 := &chem.Molecule{
		Name:   "O2-",
		Charge: -1,
		Atoms: []chem.Atom{
			{El: chem.O, Pos: chem.Vec3{0, 0, 0}},
			{El: chem.O, Pos: chem.Vec3{0, 0, 2.55}}, // ~1.35 Å superoxide bond
		},
	}
	res, err := RunUnrestricted(o2, Config{Damping: 0.4, DampIters: 6, LevelShift: 0.2, MaxIter: 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("O2- did not converge (E=%.6f after %d iters)", res.Energy, res.Iterations)
	}
	if res.NAlpha-res.NBeta != 1 {
		t.Fatalf("occupations %d/%d", res.NAlpha, res.NBeta)
	}
	if res.Energy > -140 || res.Energy < -160 {
		t.Fatalf("O2- energy %.4f out of plausible STO-3G window", res.Energy)
	}
	// Doublet: S² ≥ 0.75 (UHF contamination can only raise it).
	if res.S2 < 0.75-1e-6 {
		t.Fatalf("S² = %g below 0.75", res.S2)
	}
}

func TestUHFValidation(t *testing.T) {
	if _, err := RunUnrestricted(chem.Water(), Config{Functional: dft.PBE{}}, 1); err == nil {
		t.Fatal("expected error for semilocal functional")
	}
	if _, err := RunUnrestricted(chem.Water(), Config{}, 2); err == nil {
		t.Fatal("expected error for inconsistent multiplicity")
	}
	if _, err := RunUnrestricted(chem.Water(), Config{Basis: "NOPE"}, 1); err == nil {
		t.Fatal("expected basis error")
	}
	empty := &chem.Molecule{}
	if _, err := RunUnrestricted(empty, Config{}, 1); err == nil {
		t.Fatal("expected electron-count error")
	}
}

func TestUHFDefaultMultiplicity(t *testing.T) {
	mol := &chem.Molecule{Name: "H", Atoms: []chem.Atom{{El: chem.H}}}
	res, err := RunUnrestricted(mol, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NAlpha != 1 || res.NBeta != 0 {
		t.Fatalf("auto multiplicity picked %d/%d", res.NAlpha, res.NBeta)
	}
}

// TestUHFHonoursSharedConfig: the unrestricted run goes through the same
// setup as the closed-shell one, so it builds on a Config.ExternalBuilder
// (two builds per iteration, one per spin, bit for bit the run on its own
// builder) and rejects a wrong-sized Config.InitialDensity.
func TestUHFHonoursSharedConfig(t *testing.T) {
	li := &chem.Molecule{Name: "Li", Atoms: []chem.Atom{{El: chem.Li}}}
	own, err := RunUnrestricted(li, Config{}, 2)
	if err != nil || !own.Converged {
		t.Fatalf("Li UHF: converged %v, err %v", own != nil && own.Converged, err)
	}
	eng := integrals.NewEngine(basis.MustBuild("STO-3G", li))
	b := hfx.NewBuilder(eng, screen.BuildPairList(eng, screen.DefaultOptions()), hfx.DefaultOptions())
	defer b.Close()
	res, err := RunUnrestricted(li, Config{ExternalBuilder: b}, 2)
	if err != nil || !res.Converged {
		t.Fatalf("Li UHF on an external builder: converged %v, err %v", res != nil && res.Converged, err)
	}
	if _, _, rep := b.BuildJK(res.PAlpha); rep.Pool.Builds != int64(2*res.Iterations+1) {
		t.Fatalf("external builder served %d builds, want 2 per iteration (%d) and one more",
			rep.Pool.Builds-1, 2*res.Iterations)
	}
	if res.Energy != own.Energy || res.Iterations != own.Iterations {
		t.Fatalf("external builder: E %.12f in %d iterations, own builder %.12f in %d",
			res.Energy, res.Iterations, own.Energy, own.Iterations)
	}

	if _, err := RunUnrestricted(li, Config{InitialDensity: linalg.NewSquare(3)}, 2); err == nil {
		t.Fatal("dimension-mismatched initial density must be rejected")
	}
}

package integrals

import (
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
	"hfxmd/internal/qpx"
)

func h2Engine() *Engine {
	return NewEngine(basis.MustBuild("STO-3G", chem.Hydrogen(1.4)))
}

func waterEngine() *Engine {
	return NewEngine(basis.MustBuild("STO-3G", chem.Water()))
}

// Szabo & Ostlund, "Modern Quantum Chemistry", H2/STO-3G at R=1.4 a0
// (their ζ=1.24 scaling equals the standard STO-3G hydrogen exponents).
// All reference values are quoted to 4 decimals.
const soTol = 2e-4

func TestH2Overlap(t *testing.T) {
	s := h2Engine().Overlap()
	if math.Abs(s.At(0, 0)-1) > 1e-10 || math.Abs(s.At(1, 1)-1) > 1e-10 {
		t.Fatalf("diagonal overlap not 1: %g, %g", s.At(0, 0), s.At(1, 1))
	}
	if math.Abs(s.At(0, 1)-0.6593) > soTol {
		t.Fatalf("S12 = %.4f want 0.6593", s.At(0, 1))
	}
}

func TestH2Kinetic(t *testing.T) {
	k := h2Engine().Kinetic()
	if math.Abs(k.At(0, 0)-0.7600) > soTol {
		t.Fatalf("T11 = %.4f want 0.7600", k.At(0, 0))
	}
	if math.Abs(k.At(0, 1)-0.2365) > soTol {
		t.Fatalf("T12 = %.4f want 0.2365", k.At(0, 1))
	}
}

func TestH2Nuclear(t *testing.T) {
	v := h2Engine().Nuclear()
	// V11 = attraction to both nuclei: -1.2266 + (-0.6538) = -1.8804.
	if math.Abs(v.At(0, 0)-(-1.8804)) > 2*soTol {
		t.Fatalf("V11 = %.4f want -1.8804", v.At(0, 0))
	}
	// V12 = -0.5974 (nucleus 1) + -0.5974 (nucleus 2) = -1.1948.
	if math.Abs(v.At(0, 1)-(-1.1948)) > 2*soTol {
		t.Fatalf("V12 = %.4f want -1.1948", v.At(0, 1))
	}
}

func TestH2ERIs(t *testing.T) {
	e := h2Engine()
	out := make([]float64, 1)
	get := func(a, b, c, d int) float64 {
		e.ERIShell(a, b, c, d, out, nil)
		return out[0]
	}
	cases := []struct {
		a, b, c, d int
		want       float64
	}{
		{0, 0, 0, 0, 0.7746},
		{1, 1, 0, 0, 0.5697},
		{1, 0, 0, 0, 0.4441},
		{1, 0, 1, 0, 0.2970},
	}
	for _, c := range cases {
		if got := get(c.a, c.b, c.c, c.d); math.Abs(got-c.want) > soTol {
			t.Fatalf("(%d%d|%d%d) = %.4f want %.4f", c.a, c.b, c.c, c.d, got, c.want)
		}
	}
}

func TestOverlapSPD(t *testing.T) {
	s := waterEngine().Overlap()
	if !s.IsSymmetric(1e-12) {
		t.Fatal("overlap not symmetric")
	}
	vals, _ := linalg.EigenSym(s)
	if vals[0] <= 0 {
		t.Fatalf("overlap not positive definite: λmin = %g", vals[0])
	}
	for i := 0; i < s.Rows; i++ {
		if math.Abs(s.At(i, i)-1) > 1e-9 {
			t.Fatalf("normalized basis function %d has S_ii = %.10f", i, s.At(i, i))
		}
	}
}

func TestKineticPositive(t *testing.T) {
	k := waterEngine().Kinetic()
	if !k.IsSymmetric(1e-12) {
		t.Fatal("kinetic not symmetric")
	}
	vals, _ := linalg.EigenSym(k)
	if vals[0] <= 0 {
		t.Fatalf("kinetic matrix not positive definite: λmin = %g", vals[0])
	}
}

func TestNuclearNegativeDiagonal(t *testing.T) {
	v := waterEngine().Nuclear()
	for i := 0; i < v.Rows; i++ {
		if v.At(i, i) >= 0 {
			t.Fatalf("V_%d%d = %g not negative", i, i, v.At(i, i))
		}
	}
}

func TestERIPermutationSymmetry(t *testing.T) {
	e := waterEngine()
	buf := make([]float64, e.MaxERIBufLen())
	// Use shells including p functions: shell 2 is the oxygen 2p.
	quartets := [][4]int{{0, 1, 2, 3}, {2, 2, 2, 2}, {0, 2, 1, 3}, {4, 2, 0, 1}}
	for _, q := range quartets {
		a, b, c, d := q[0], q[1], q[2], q[3]
		get := func(w, x, y, z int) []float64 {
			sw := &e.Basis.Shells[w]
			sx := &e.Basis.Shells[x]
			sy := &e.Basis.Shells[y]
			sz := &e.Basis.Shells[z]
			n := sw.NFuncs() * sx.NFuncs() * sy.NFuncs() * sz.NFuncs()
			out := make([]float64, n)
			copy(out, buf[:0])
			e.ERIShell(w, x, y, z, out, nil)
			return out
		}
		base := get(a, b, c, d)
		swapped := get(c, d, a, b)
		sa := &e.Basis.Shells[a]
		sb := &e.Basis.Shells[b]
		sc := &e.Basis.Shells[c]
		sd := &e.Basis.Shells[d]
		na, nb, nc, nd := sa.NFuncs(), sb.NFuncs(), sc.NFuncs(), sd.NFuncs()
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				for k := 0; k < nc; k++ {
					for l := 0; l < nd; l++ {
						v1 := base[((i*nb+j)*nc+k)*nd+l]
						v2 := swapped[((k*nd+l)*na+i)*nb+j]
						if math.Abs(v1-v2) > 1e-11 {
							t.Fatalf("quartet %v: (ab|cd) != (cd|ab): %g vs %g", q, v1, v2)
						}
					}
				}
			}
		}
	}
}

func TestERIBraSwapSymmetry(t *testing.T) {
	e := waterEngine()
	a, b := 2, 4 // oxygen p and hydrogen s
	sa, sb := &e.Basis.Shells[a], &e.Basis.Shells[b]
	na, nb := sa.NFuncs(), sb.NFuncs()
	ab := make([]float64, na*nb*na*nb)
	ba := make([]float64, nb*na*na*nb)
	e.ERIShell(a, b, a, b, ab, nil)
	e.ERIShell(b, a, a, b, ba, nil)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			for k := 0; k < na; k++ {
				for l := 0; l < nb; l++ {
					v1 := ab[((i*nb+j)*na+k)*nb+l]
					v2 := ba[((j*na+i)*na+k)*nb+l]
					if math.Abs(v1-v2) > 1e-11 {
						t.Fatalf("(ab|·) != (ba|·) at %d%d%d%d: %g vs %g", i, j, k, l, v1, v2)
					}
				}
			}
		}
	}
}

func TestSchwarzBoundHolds(t *testing.T) {
	e := waterEngine()
	q := e.SchwarzMatrix()
	ns := e.Basis.NShells()
	buf := make([]float64, e.MaxERIBufLen())
	for a := 0; a < ns; a++ {
		for b := 0; b < ns; b++ {
			for c := 0; c < ns; c++ {
				for d := 0; d < ns; d++ {
					sa := &e.Basis.Shells[a]
					sb := &e.Basis.Shells[b]
					sc := &e.Basis.Shells[c]
					sd := &e.Basis.Shells[d]
					n := sa.NFuncs() * sb.NFuncs() * sc.NFuncs() * sd.NFuncs()
					blk := buf[:n]
					e.ERIShell(a, b, c, d, blk, nil)
					var m float64
					for _, v := range blk {
						if x := math.Abs(v); x > m {
							m = x
						}
					}
					bound := q.At(a, b) * q.At(c, d)
					if m > bound+1e-10 {
						t.Fatalf("Schwarz violated for (%d%d|%d%d): max %g > bound %g", a, b, c, d, m, bound)
					}
				}
			}
		}
	}
}

func TestVectorPathMatchesScalar(t *testing.T) {
	mol := chem.Water()
	es := NewEngine(basis.MustBuild("STO-3G", mol))
	ev := NewEngine(basis.MustBuild("STO-3G", mol))
	ev.Vector = true
	var stats qpx.Stats
	ns := es.Basis.NShells()
	buf1 := make([]float64, es.MaxERIBufLen())
	buf2 := make([]float64, es.MaxERIBufLen())
	for a := 0; a < ns; a++ {
		for b := 0; b <= a; b++ {
			for c := 0; c <= a; c++ {
				for d := 0; d <= c; d++ {
					sa := &es.Basis.Shells[a]
					sb := &es.Basis.Shells[b]
					sc := &es.Basis.Shells[c]
					sd := &es.Basis.Shells[d]
					n := sa.NFuncs() * sb.NFuncs() * sc.NFuncs() * sd.NFuncs()
					es.ERIShell(a, b, c, d, buf1[:n], nil)
					ev.ERIShell(a, b, c, d, buf2[:n], &stats)
					for i := 0; i < n; i++ {
						if math.Float64bits(buf1[i]) != math.Float64bits(buf2[i]) {
							t.Fatalf("vector/scalar mismatch (%d%d|%d%d)[%d]: %g vs %g",
								a, b, c, d, i, buf1[i], buf2[i])
						}
					}
				}
			}
		}
	}
	if stats.Batches() == 0 {
		t.Fatal("vector path recorded no batches")
	}
	if u := stats.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of range", u)
	}
}

func TestTranslationInvariance(t *testing.T) {
	m1 := chem.Water()
	m2 := chem.Water()
	m2.Translate(chem.Vec3{3.7, -1.2, 0.4})
	e1 := NewEngine(basis.MustBuild("STO-3G", m1))
	e2 := NewEngine(basis.MustBuild("STO-3G", m2))
	if d := linalg.MaxAbsDiff(e1.Overlap(), e2.Overlap()); d > 1e-11 {
		t.Fatalf("overlap not translation invariant: %g", d)
	}
	if d := linalg.MaxAbsDiff(e1.Kinetic(), e2.Kinetic()); d > 1e-11 {
		t.Fatalf("kinetic not translation invariant: %g", d)
	}
	if d := linalg.MaxAbsDiff(e1.Nuclear(), e2.Nuclear()); d > 1e-10 {
		t.Fatalf("nuclear not translation invariant: %g", d)
	}
	buf1 := make([]float64, e1.MaxERIBufLen())
	buf2 := make([]float64, e2.MaxERIBufLen())
	e1.ERIShell(2, 1, 3, 4, buf1, nil)
	e2.ERIShell(2, 1, 3, 4, buf2, nil)
	for i := range buf1 {
		if math.Abs(buf1[i]-buf2[i]) > 1e-11 {
			t.Fatalf("ERI not translation invariant at %d", i)
		}
	}
}

func TestDipoleHydrogenSymmetry(t *testing.T) {
	// H2 along z centred at the midpoint: z-dipole matrix elements must be
	// antisymmetric between the two atoms; x and y blocks vanish.
	mol := chem.Hydrogen(1.4)
	mol.Translate(chem.Vec3{0, 0, -0.7})
	e := NewEngine(basis.MustBuild("STO-3G", mol))
	d := e.Dipole([3]float64{0, 0, 0})
	if math.Abs(d[0].At(0, 0)) > 1e-12 || math.Abs(d[1].At(1, 1)) > 1e-12 {
		t.Fatal("x/y dipole should vanish for H2 on z-axis")
	}
	if math.Abs(d[2].At(0, 0)+d[2].At(1, 1)) > 1e-10 {
		t.Fatalf("z-dipole diagonal not antisymmetric: %g vs %g", d[2].At(0, 0), d[2].At(1, 1))
	}
}

func TestCartComponents(t *testing.T) {
	if n := len(Components(0)); n != 1 {
		t.Fatalf("s components %d", n)
	}
	if n := len(Components(1)); n != 3 {
		t.Fatalf("p components %d", n)
	}
	if n := len(Components(2)); n != 6 {
		t.Fatalf("d components %d", n)
	}
	// p order: x, y, z.
	p := Components(1)
	if p[0] != (CartComponent{1, 0, 0}) || p[1] != (CartComponent{0, 1, 0}) || p[2] != (CartComponent{0, 0, 1}) {
		t.Fatalf("p order %v", p)
	}
	for _, c := range Components(3) {
		if c.X+c.Y+c.Z != 3 {
			t.Fatalf("bad f component %v", c)
		}
	}
}

func TestComponentNorm(t *testing.T) {
	// s and p: 1. d_xx: 1; d_xy: sqrt(3).
	if componentNorm(CartComponent{0, 0, 0}) != 1 {
		t.Fatal("s norm")
	}
	if componentNorm(CartComponent{1, 0, 0}) != 1 {
		t.Fatal("p norm")
	}
	if componentNorm(CartComponent{2, 0, 0}) != 1 {
		t.Fatal("dxx norm")
	}
	if math.Abs(componentNorm(CartComponent{1, 1, 0})-math.Sqrt(3)) > 1e-15 {
		t.Fatal("dxy norm")
	}
}

func TestCoreHamiltonian(t *testing.T) {
	e := h2Engine()
	h := e.CoreHamiltonian()
	want := e.Kinetic()
	want.AXPY(1, e.Nuclear())
	if linalg.MaxAbsDiff(h, want) > 1e-14 {
		t.Fatal("H != T+V")
	}
	// S&O: H11 = T11 + V11 = 0.7600 - 1.8804 = -1.1204 (they quote -1.1204).
	if math.Abs(h.At(0, 0)-(-1.1204)) > 3*soTol {
		t.Fatalf("H11 = %.4f want -1.1204", h.At(0, 0))
	}
}

func BenchmarkSchwarzWater(b *testing.B) {
	e := waterEngine()
	for i := 0; i < b.N; i++ {
		e.SchwarzMatrix()
	}
}

func TestDShellOverlapNormalized(t *testing.T) {
	// 6-31G* puts a Cartesian d shell on oxygen: every component must be
	// unit-normalized including the mixed xy/xz/yz ones.
	e := NewEngine(basis.MustBuild("6-31G*", chem.Water()))
	s := e.Overlap()
	for i := 0; i < s.Rows; i++ {
		if math.Abs(s.At(i, i)-1) > 1e-9 {
			t.Fatalf("6-31G* S_%d%d = %.10f", i, i, s.At(i, i))
		}
	}
	if !s.IsSymmetric(1e-12) {
		t.Fatal("overlap not symmetric with d shells")
	}
}

func TestDShellERISymmetryAndVector(t *testing.T) {
	set := basis.MustBuild("6-31G*", chem.Water())
	es := NewEngine(set)
	ev := NewEngine(set)
	ev.Vector = true
	// Find the d shell.
	dShell := -1
	for i := range set.Shells {
		if set.Shells[i].L == 2 {
			dShell = i
			break
		}
	}
	if dShell < 0 {
		t.Fatal("no d shell in 6-31G*")
	}
	n := 6 * 6 * 6 * 6
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	es.ERIShell(dShell, dShell, dShell, dShell, b1, nil)
	ev.ERIShell(dShell, dShell, dShell, dShell, b2, nil)
	for i := range b1 {
		if math.Float64bits(b1[i]) != math.Float64bits(b2[i]) {
			t.Fatalf("d-shell vector mismatch at %d: %g vs %g", i, b1[i], b2[i])
		}
	}
	// (dd|dd) diagonal elements positive (they are self-repulsions).
	for f := 0; f < 6; f++ {
		v := b1[((f*6+f)*6+f)*6+f]
		if v <= 0 {
			t.Fatalf("(ff|ff) = %g not positive for d component %d", v, f)
		}
	}
	// Schwarz bound must hold with d shells in the mix.
	q := es.SchwarzMatrix()
	var m float64
	for _, v := range b1 {
		if x := math.Abs(v); x > m {
			m = x
		}
	}
	if m > q.At(dShell, dShell)*q.At(dShell, dShell)+1e-10 {
		t.Fatalf("Schwarz violated for d quartet: %g > %g", m, q.At(dShell, dShell)*q.At(dShell, dShell))
	}
}

func TestDShellKineticPositive(t *testing.T) {
	e := NewEngine(basis.MustBuild("6-31G*", chem.Water()))
	k := e.Kinetic()
	vals, _ := linalg.EigenSym(k)
	if vals[0] <= 0 {
		t.Fatalf("kinetic with d shells not positive definite: %g", vals[0])
	}
}

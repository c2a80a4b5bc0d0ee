package dft

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
)

// foldBits writes the bits of every value into h.
func foldBits(h hash.Hash64, vals ...float64) {
	var word [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
}

// idempotentDensity returns P = 2·C·Cᵀ for nocc columns of seeded random
// coefficients made orthonormal in the overlap metric, so P·S·P = 2P
// without P being any SCF's fixed point. P_ij and P_ji are the same sum,
// so P is exactly symmetric.
func idempotentDensity(set *basis.Set, nocc int, seed int64) *linalg.Matrix {
	n := set.NBasis
	s := integrals.NewEngine(set).Overlap()
	rng := rand.New(rand.NewSource(seed))
	c := make([][]float64, nocc) // column k of C
	sc := make([]float64, n)
	for k := range c {
		c[k] = make([]float64, n)
		for i := range c[k] {
			c[k][i] = rng.Float64() - 0.5
		}
		// Gram–Schmidt in the S metric, one column at a time.
		for pass := 0; pass <= k; pass++ {
			for i := range sc {
				sc[i] = 0
				for j, x := range c[k] {
					sc[i] += s.At(i, j) * x
				}
			}
			if pass == k {
				break
			}
			var dot float64
			for i, x := range c[pass] {
				dot += x * sc[i]
			}
			for i := range c[k] {
				c[k][i] -= dot * c[pass][i]
			}
		}
		var norm float64
		for i, x := range c[k] {
			norm += x * sc[i]
		}
		norm = 1 / math.Sqrt(norm)
		for i := range c[k] {
			c[k][i] *= norm
		}
	}
	p := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v float64
			for k := range c {
				v += c[k][i] * c[k][j]
			}
			p.Set(i, j, 2*v)
			p.Set(j, i, 2*v)
		}
	}
	return p
}

// TestXCBitsPinned pins the bits of Integrate's energy, V and electron
// count and of Gradient's result for LDA, PBE and PBE0 on three systems,
// one with d shells, at an idempotent density that is not converged.
func TestXCBitsPinned(t *testing.T) {
	systems := []struct {
		name  string
		basis string
		mol   *chem.Molecule
	}{
		{"LiH/STO-3G", "STO-3G", chem.LithiumHydride()},
		{"H2O/6-31G*", "6-31G*", chem.Water()},
		{"(H2O)2/STO-3G", "STO-3G", chem.WaterCluster(2, 1)},
	}
	want := map[string]uint64{
		"LiH/STO-3G/LDA":     0xe630ba526874c525,
		"LiH/STO-3G/PBE":     0x30d9a54cf6f825f2,
		"LiH/STO-3G/PBE0":    0x00f49cee73b10e72,
		"H2O/6-31G*/LDA":     0xf2d5976c7a7c333d,
		"H2O/6-31G*/PBE":     0x041ab365ce3d169e,
		"H2O/6-31G*/PBE0":    0x5d5183d472b08faf,
		"(H2O)2/STO-3G/LDA":  0x464e5b1a8d028cd6,
		"(H2O)2/STO-3G/PBE":  0x87a830b3f7c7dfd9,
		"(H2O)2/STO-3G/PBE0": 0x02ae69b56bef752a,
	}
	for _, sys := range systems {
		set := basis.MustBuild(sys.basis, sys.mol)
		g := BuildGrid(sys.mol, DefaultGridSpec())
		nelec := sys.mol.NElectrons()
		p := idempotentDensity(set, nelec/2, 1)
		if tr := linalg.TraceMul(p, integrals.NewEngine(set).Overlap()); math.Abs(tr-float64(nelec)) > 1e-9 {
			t.Fatalf("%s: Tr(P·S) = %.12g, want %d", sys.name, tr, nelec)
		}
		for _, f := range []Functional{LDA{}, PBE{}, PBE0{}} {
			it := NewIntegrator(f, set, g)
			xc := it.Integrate(p)
			h := fnv.New64a()
			foldBits(h, xc.Energy, xc.NElec)
			foldBits(h, xc.V.Data...)
			for _, v := range it.Gradient(p) {
				foldBits(h, v[:]...)
			}
			name := sys.name + "/" + f.Name()
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: E, N, V and the gradient hash to %#016x, pinned %#016x", name, got, want[name])
			}
		}
	}
}

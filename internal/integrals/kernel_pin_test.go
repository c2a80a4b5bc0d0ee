package integrals

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
)

// tightPairs is an O–O pair 4 bohr apart and a third oxygen 10 bohr off
// along x: in 6-31G* the tight primitives of two centres overlap by
// exp(−μ·X²) per axis with μ·X² past the exponent range — the 1s pairs of
// the near oxygens, the 2sp pairs of the far one — so their E₀ underflows
// to zero and those primitive pairs carry no Hermite term at all.
func tightPairs() *chem.Molecule {
	return &chem.Molecule{Name: "O3", Atoms: []chem.Atom{
		{El: chem.O, Pos: chem.Vec3{0, 0, 0}},
		{El: chem.O, Pos: chem.Vec3{0, 0, 4}},
		{El: chem.O, Pos: chem.Vec3{10, 0, 2}},
	}}
}

// fold writes the bits of vals into h.
func fold(h hash.Hash64, vals []float64) {
	var word [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
}

// blockHash folds the bits of every block fn writes, shell quartet by
// shell quartet in (a, b, c, d) order, into one FNV-64a digest. fn
// returns the block it wrote.
func blockHash(ns int, fn func(a, b, c, d int) []float64) uint64 {
	h := fnv.New64a()
	for a := 0; a < ns; a++ {
		for b := 0; b < ns; b++ {
			for c := 0; c < ns; c++ {
				for d := 0; d < ns; d++ {
					fold(h, fn(a, b, c, d))
				}
			}
		}
	}
	return h.Sum64()
}

// TestKernelBitsPinned pins the bits the ERI kernel computes: every block
// of every shell quartet, uncut and under the cut a Fock build passes
// (1e-10 over the quartet's primitive-quartet count), and every
// derivative block. Moving these bits means bumping KernelRevision with
// the constants: the ERI spill images and every result digest persisted
// by a build are keyed by that revision.
func TestKernelBitsPinned(t *testing.T) {
	if KernelRevision != 15 {
		t.Fatalf("KernelRevision %d: re-pin the constants below with it", KernelRevision)
	}
	blocks := []struct {
		name  string
		basis string
		mol   *chem.Molecule
		cut   bool
		want  uint64
	}{
		{"(H2O)2/STO-3G", "STO-3G", chem.WaterCluster(2, 1), false, 0xd47296d65a258c7c},
		{"(H2O)2/STO-3G cut", "STO-3G", chem.WaterCluster(2, 1), true, 0x2507510fce5b37ea},
		{"H2O/6-31G*", "6-31G*", chem.Water(), false, 0x0d3440d20701f84e},
		{"H2O/6-31G* cut", "6-31G*", chem.Water(), true, 0x528cdb76bc4154b6},
		{"O3/6-31G*", "6-31G*", tightPairs(), false, 0x0a1fe4bda39c1384},
		{"O3/6-31G* cut", "6-31G*", tightPairs(), true, 0x69a5cf94f638137e},
	}
	for _, tc := range blocks {
		e := NewEngine(basis.MustBuild(tc.basis, tc.mol))
		out := make([]float64, e.MaxERIBufLen())
		s := NewScratch()
		got := blockHash(e.Basis.NShells(), func(a, b, c, d int) []float64 {
			sh := e.Basis.Shells
			n := sh[a].NFuncs() * sh[b].NFuncs() * sh[c].NFuncs() * sh[d].NFuncs()
			cut := 0.0
			if tc.cut {
				cut = 1e-10 / float64(sh[a].NPrims()*sh[b].NPrims()*sh[c].NPrims()*sh[d].NPrims())
			}
			e.ERIShellCut(a, b, c, d, out[:n], cut, false, nil, s)
			return out[:n]
		})
		if got != tc.want {
			t.Errorf("%s: blocks hash to %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
	derivs := []struct {
		name  string
		basis string
		mol   *chem.Molecule
		want  uint64
	}{
		{"LiH/STO-3G deriv", "STO-3G", chem.LithiumHydride(), 0x016b337fd1d12fa8},
		{"H2O/6-31G* deriv", "6-31G*", chem.Water(), 0xfdb1070b4b8c1476},
	}
	for _, tc := range derivs {
		e := NewEngine(basis.MustBuild(tc.basis, tc.mol))
		out := make([]float64, e.MaxERIDerivBufLen())
		s := NewScratch()
		got := blockHash(e.Basis.NShells(), func(a, b, c, d int) []float64 {
			sh := e.Basis.Shells
			n := derivStack * sh[a].NFuncs() * sh[b].NFuncs() * sh[c].NFuncs() * sh[d].NFuncs()
			e.ERIShellDeriv(a, b, c, d, out[:n], s)
			return out[:n]
		})
		if got != tc.want {
			t.Errorf("%s: blocks hash to %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
	// The screening factors: the shell-pair Schwarz matrix and every
	// primitive-pair bound list, both evaluated by the kernel on diagonal
	// quartets.
	bounds := []struct {
		name  string
		basis string
		mol   *chem.Molecule
		want  uint64
	}{
		{"(H2O)2/STO-3G bounds", "STO-3G", chem.WaterCluster(2, 1), 0x19c3fa7933c91359},
		{"O3/6-31G* bounds", "6-31G*", tightPairs(), 0xc89a171142d68ff9},
	}
	for _, tc := range bounds {
		e := NewEngine(basis.MustBuild(tc.basis, tc.mol))
		q := e.SchwarzMatrix()
		h := fnv.New64a()
		for a := 0; a < e.Basis.NShells(); a++ {
			for b := 0; b < e.Basis.NShells(); b++ {
				fold(h, append([]float64{q.At(a, b)}, e.PrimSchwarz(a, b)...))
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: bounds hash to %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
}

package scf

import (
	"encoding/binary"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/store"
)

// FuzzDecodeSeed: DecodeSeed never panics on stored bytes, and a SeedHit
// is an n×n density whose stored geometry lies within SeedMaxShift of the
// new one atom by atom.
func FuzzDecodeSeed(f *testing.F) {
	mol := chem.Water()
	const n = 2
	img := EncodeSeed(mol, n, []float64{1, 0.5, 0.5, 2})
	f.Add(img)
	f.Add(img[:len(img)-5])
	f.Add(EncodeSeed(chem.Hydrogen(1.4), n, []float64{1, 0, 0, 1}))
	nan := mol.Clone()
	nan.Atoms[1].Pos[2] = math.NaN()
	f.Add(EncodeSeed(nan, n, []float64{1, 0, 0, 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, st := DecodeSeed(b, mol)
		if st != SeedHit {
			return
		}
		if p.Rows != p.Cols || len(p.Data) != p.Rows*p.Cols {
			t.Fatalf("hit is %d×%d with %d elements", p.Rows, p.Cols, len(p.Data))
		}
		_, _, geom, err := store.DecodeMatrixPrefix(b)
		if err != nil {
			t.Fatalf("hit on an undecodable matrix: %v", err)
		}
		for i, a := range mol.Atoms {
			rec := geom[4+28*i:]
			var at chem.Vec3
			for k := range at {
				at[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*k:]))
			}
			if d := a.Pos.Sub(at).Norm(); !(d <= SeedMaxShift) {
				t.Fatalf("atom %d: stored %v is %g bohr from %v", i, at, d, a.Pos)
			}
		}
	})
}

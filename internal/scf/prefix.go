package scf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
	"hfxmd/internal/store"
)

// DensityPrefixKey fingerprints the part of a calculation that a stored
// converged density can seed: the model chemistry (basis, functional,
// screening threshold, density weighting) plus the system's charge and
// element composition. Atomic positions are deliberately excluded —
// geometries that differ only in coordinates (solvent-scan points, MD
// steps) share the key, which is exactly the partial-hit prefix reuse
// the tiered store exploits: the stored density of a neighbouring
// geometry becomes Config.InitialDensity for the next one.
//
// Sharing the key guarantees matching basis dimensions (same elements,
// same basis set ⇒ same NBasis) but not that the density means anything
// at the new geometry: the entry carries the geometry it was converged at
// (EncodeSeed) and DecodeSeed decides.
func DensityPrefixKey(cfg Config, mol *chem.Molecule) string {
	cfg.fillDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "basis=%s;func=%s;screen=%g;dw=%v;charge=%d;",
		cfg.Basis, cfg.Functional.Name(), cfg.Screen.Threshold,
		cfg.HFX.DensityWeighted, mol.Charge)
	counts := map[chem.Element]int{}
	for _, a := range mol.Atoms {
		counts[a.El]++
	}
	els := make([]int, 0, len(counts))
	for el := range counts {
		els = append(els, int(el))
	}
	sort.Ints(els)
	for _, el := range els {
		fmt.Fprintf(h, "%d:%d;", el, counts[chem.Element(el)])
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// SeedMaxShift is how far (bohr) any atom may sit from where the stored
// density was converged for that density to seed an SCF. Inside it a
// stored density is a neighbouring scan point or MD step and beats the
// SAD guess; outside it — another conformer, a rotated copy — it is
// further from the answer than SAD (14.6 against 9.1 iterations over 60
// randomly oriented water dimers).
const SeedMaxShift = 0.5

// SeedStatus is what DecodeSeed made of a stored entry.
type SeedStatus int

const (
	// SeedMiss: no usable entry (absent, undecodable, or stored without
	// its geometry).
	SeedMiss SeedStatus = iota
	// SeedRejected: a well-formed entry of another geometry — different
	// atom order, or an atom further than SeedMaxShift from its stored
	// position.
	SeedRejected
	// SeedHit: the density seeds this geometry.
	SeedHit
)

// EncodeSeed serializes a converged density with the geometry it belongs
// to: a store.EncodeMatrix payload followed by the atom count and every
// atom's element and position.
func EncodeSeed(mol *chem.Molecule, nbasis int, p []float64) []byte {
	b := store.EncodeMatrix(nbasis, p)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(mol.Atoms)))
	for _, a := range mol.Atoms {
		b = binary.LittleEndian.AppendUint32(b, uint32(a.El))
		for _, x := range a.Pos {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// DecodeSeed returns the density stored in b if it can seed an SCF on mol:
// the rows of a density are basis functions in atom order, so the stored
// geometry must list the same elements atom by atom (which, under one
// DensityPrefixKey, also makes the dimensions agree), and no atom may have
// moved more than SeedMaxShift (minimum image under mol's cell).
func DecodeSeed(b []byte, mol *chem.Molecule) (*linalg.Matrix, SeedStatus) {
	n, data, geom, err := store.DecodeMatrixPrefix(b)
	const atomBytes = 4 + 3*8
	if err != nil || len(geom) < 4 {
		return nil, SeedMiss
	}
	natoms := int(binary.LittleEndian.Uint32(geom))
	if len(geom) != 4+atomBytes*natoms {
		return nil, SeedMiss
	}
	if natoms != len(mol.Atoms) {
		return nil, SeedRejected
	}
	for i, a := range mol.Atoms {
		rec := geom[4+atomBytes*i:]
		if chem.Element(binary.LittleEndian.Uint32(rec)) != a.El {
			return nil, SeedRejected
		}
		var at chem.Vec3
		for k := range at {
			at[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*k:]))
		}
		d := a.Pos.Sub(at)
		if mol.Cell != nil {
			d = mol.Cell.MinimumImage(a.Pos, at)
		}
		if d.Norm() > SeedMaxShift {
			return nil, SeedRejected
		}
	}
	return &linalg.Matrix{Rows: n, Cols: n, Data: data}, SeedHit
}

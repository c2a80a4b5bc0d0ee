package scf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
)

// bitsHash is the FNV-64a hash of the IEEE-754 bits of every value, in
// order: two runs hash alike only if they agree bit for bit.
func bitsHash(parts ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, part := range parts {
		for _, v := range part {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func flatForces(f []chem.Vec3) []float64 {
	out := make([]float64, 0, 3*len(f))
	for _, v := range f {
		out = append(out, v[0], v[1], v[2])
	}
	return out
}

// pinConfig runs the builder on two executors whatever the host's CPU
// count, since the J/K reduction order follows the slot count.
func pinConfig(cfg Config) Config {
	cfg.HFX = hfx.DefaultOptions()
	cfg.HFX.Threads = 2
	return cfg
}

// TestSCFBitsPinned pins the closed-shell and unrestricted runs bit for
// bit: the FNV-64a hash of the energy, orbital energies, density,
// coefficients and analytic forces of each RHF/RKS run, and of the energy,
// ⟨S²⟩, spin orbital energies and spin densities of each UHF run. A change
// to the SCF loop that reorders any floating-point operation moves a hash.
func TestSCFBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mol    *chem.Molecule
		cfg    Config
		energy uint64
		want   uint64
	}{
		{"water HF", chem.Water(), Config{}, 0xc052bda09dd4f204, 0x0a09d0175cd2bf55},
		{"water HF shift 0.3", chem.Water(), Config{LevelShift: 0.3}, 0xc052bda09dd4f1e8, 0x113409531b0112a6},
		{"water HF damp 0.5/8", chem.Water(), Config{Damping: 0.5, DampIters: 8}, 0xc052bda09dd4f207, 0x0c41f01220863a5d},
		{"LiH PBE0", chem.LithiumHydride(), Config{Functional: dft.PBE0{}}, 0xc01fb6d7510aa964, 0xf47e7cd788bfd456},
		{"water PBE0/6-31G", chem.Water(), Config{Basis: "6-31G", Functional: dft.PBE0{}}, 0xc05313bccf7d69e6, 0x3d736bd8ec759ad3},
	} {
		res, f, err := RunForces(tc.mol, pinConfig(tc.cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := math.Float64bits(res.Energy)
		got := bitsHash([]float64{res.Energy}, res.OrbitalEnergies, res.P.Data, res.C.Data, flatForces(f))
		if e != tc.energy || got != tc.want {
			t.Errorf("%s: energy bits %#016x, hash %#016x; pinned %#016x, %#016x", tc.name, e, got, tc.energy, tc.want)
		}
	}

	atom := func(el chem.Element) *chem.Molecule {
		return &chem.Molecule{Name: el.Symbol(), Atoms: []chem.Atom{{El: el}}}
	}
	o2 := &chem.Molecule{Name: "O2-", Charge: -1, Atoms: []chem.Atom{
		{El: chem.O}, {El: chem.O, Pos: chem.Vec3{0, 0, 2.55}},
	}}
	for _, tc := range []struct {
		name   string
		mol    *chem.Molecule
		cfg    Config
		mult   int
		energy uint64
		want   uint64
	}{
		{"H", atom(chem.H), Config{}, 2, 0xbfdddc7a1e305d3e, 0xcf25ba71e296c2f1},
		{"Li", atom(chem.Li), Config{}, 2, 0xc01d43193fc7476e, 0x4327ffe3d4452276},
		{"Li shift 0.3", atom(chem.Li), Config{LevelShift: 0.3}, 2, 0xc01d43193fc74722, 0x0ba2ed737eab663f},
		{"water singlet", chem.Water(), Config{}, 1, 0xc052bda09dd4f204, 0x962b2d00c140feba},
		{"O2-", o2, Config{Damping: 0.4, DampIters: 6, LevelShift: 0.2, MaxIter: 200}, 2, 0xc0626c33bf7e2ae9, 0x63ce96adf8ddcbbc},
	} {
		res, err := RunUnrestricted(tc.mol, pinConfig(tc.cfg), tc.mult)
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged %v, err %v", tc.name, res != nil && res.Converged, err)
		}
		e := math.Float64bits(res.Energy)
		got := bitsHash([]float64{res.Energy, res.S2}, res.EpsAlpha, res.EpsBeta, res.PAlpha.Data, res.PBeta.Data)
		if e != tc.energy || got != tc.want {
			t.Errorf("UHF %s: energy bits %#016x, hash %#016x; pinned %#016x, %#016x", tc.name, e, got, tc.energy, tc.want)
		}
	}
}

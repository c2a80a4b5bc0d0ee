package chem

import (
	"fmt"
	"math"
	"math/rand"

	"hfxmd/internal/phys"
)

// aa converts ångström to bohr for the literal geometries below.
func aa(x float64) float64 { return x * phys.AngstromToBohr }

// systems is the one table of named reference systems: hfxd's system
// selector and /v1/systems and cmd/scfrun's -system all read it.
var systems = []struct {
	name  string
	build func(nwater int) *Molecule
}{
	{"water", func(int) *Molecule { return Water() }},
	{"h2", func(int) *Molecule { return Hydrogen(1.4) }},
	{"he", func(int) *Molecule { return Helium() }},
	{"lih", func(int) *Molecule { return LithiumHydride() }},
	{"lif", func(int) *Molecule { return LithiumFluoride() }},
	{"ch4", func(int) *Molecule { return Methane() }},
	{"pc", func(int) *Molecule { return PropyleneCarbonate() }},
	{"dmso", func(int) *Molecule { return DimethylSulfoxide() }},
	{"li2o2", func(int) *Molecule { return LithiumPeroxide() }},
	{"watercluster", func(n int) *Molecule { return WaterCluster(n, 1) }},
}

// SystemNames returns the names System accepts, in table order.
func SystemNames() []string {
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.name
	}
	return names
}

// System builds the named reference system; nwater is the size of a
// "watercluster" (seed 1) and unused by every other system.
func System(name string, nwater int) (*Molecule, error) {
	for _, s := range systems {
		if s.name == name {
			return s.build(nwater), nil
		}
	}
	return nil, fmt.Errorf("unknown system %q", name)
}

// Hydrogen returns H2 at the given bond length (bohr). The default
// textbook geometry is R = 1.4 a0.
func Hydrogen(r float64) *Molecule {
	return &Molecule{
		Name: "H2",
		Atoms: []Atom{
			{H, Vec3{0, 0, 0}},
			{H, Vec3{0, 0, r}},
		},
	}
}

// Helium returns a helium atom.
func Helium() *Molecule {
	return &Molecule{Name: "He", Atoms: []Atom{{He, Vec3{}}}}
}

// LithiumHydride returns LiH at its near-equilibrium distance (3.015 a0).
func LithiumHydride() *Molecule {
	return &Molecule{
		Name: "LiH",
		Atoms: []Atom{
			{Li, Vec3{0, 0, 0}},
			{H, Vec3{0, 0, 3.015}},
		},
	}
}

// Water returns a single water molecule in its experimental gas-phase
// geometry (r_OH = 0.9572 Å, ∠HOH = 104.52°), centred on the oxygen.
func Water() *Molecule {
	roh := aa(0.9572)
	half := 104.52 / 2 * math.Pi / 180
	return &Molecule{
		Name: "H2O",
		Atoms: []Atom{
			{O, Vec3{0, 0, 0}},
			{H, Vec3{roh * math.Sin(half), 0, roh * math.Cos(half)}},
			{H, Vec3{-roh * math.Sin(half), 0, roh * math.Cos(half)}},
		},
	}
}

// WaterCluster places n water molecules on a simple-cubic lattice with a
// nearest-neighbour spacing matching liquid water density (≈3.1 Å O–O),
// each randomly rotated with the given seed for reproducibility. This is
// the condensed-phase workload family of the paper's scaling study.
func WaterCluster(n int, seed int64) *Molecule {
	if n < 1 {
		panic("chem: WaterCluster needs n >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	spacing := aa(3.107) // reproduces ~0.997 g/cm³ on a cubic lattice
	side := int(math.Ceil(math.Cbrt(float64(n))))
	mol := &Molecule{Name: fmt.Sprintf("(H2O)%d", n)}
	count := 0
grid:
	for ix := 0; ix < side; ix++ {
		for iy := 0; iy < side; iy++ {
			for iz := 0; iz < side; iz++ {
				if count >= n {
					break grid
				}
				w := Water()
				randomRotate(w, rng)
				w.Translate(Vec3{float64(ix) * spacing, float64(iy) * spacing, float64(iz) * spacing})
				mol.Atoms = append(mol.Atoms, w.Atoms...)
				count++
			}
		}
	}
	return mol
}

// randomRotate applies a uniformly random proper rotation about the
// molecule's centre of mass.
func randomRotate(m *Molecule, rng *rand.Rand) {
	// Random rotation from three Euler angles (adequate for packing).
	a, b, c := rng.Float64()*2*math.Pi, rng.Float64()*math.Pi, rng.Float64()*2*math.Pi
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	r := [3][3]float64{
		{ca*cc - sa*cb*sc, -ca*sc - sa*cb*cc, sa * sb},
		{sa*cc + ca*cb*sc, -sa*sc + ca*cb*cc, -ca * sb},
		{sb * sc, sb * cc, cb},
	}
	com := m.CenterOfMass()
	for i := range m.Atoms {
		p := m.Atoms[i].Pos.Sub(com)
		m.Atoms[i].Pos = Vec3{
			r[0][0]*p[0] + r[0][1]*p[1] + r[0][2]*p[2],
			r[1][0]*p[0] + r[1][1]*p[1] + r[1][2]*p[2],
			r[2][0]*p[0] + r[2][1]*p[1] + r[2][2]*p[2],
		}.Add(com)
	}
}

// PropyleneCarbonate returns the cyclic carbonate C4H6O3 — the electrolyte
// solvent whose degradation by Li2O2 the paper investigates. The geometry
// is an idealised ring model (bond lengths/angles from standard values).
func PropyleneCarbonate() *Molecule {
	// Five-membered ring: O1-C2(=O6)-O3-C4(H)(CH3)-C5(H2)-O1.
	// Coordinates in ångström, constructed from canonical bond data.
	mol, err := ParseXYZString(`13
propylene carbonate (idealised)
C   0.0000   0.0000   0.0000
O   1.0900   0.6700   0.0000
O  -1.0900   0.6700   0.0000
O   0.0000  -1.2000   0.0000
C   0.8800   1.9900   0.2700
C  -0.6400   2.3800  -0.2100
C   1.8500   3.0200  -0.2300
H   0.9300   2.0600   1.3600
H  -0.8200   3.4200   0.0600
H  -0.7800   2.2700  -1.2900
H   1.5900   4.0200   0.1300
H   2.8600   2.7800   0.1100
H   1.8600   3.0400  -1.3200
`)
	if err != nil {
		panic(err)
	}
	// The ring closure O1...C5: relabel — our simple model keeps the
	// carbonate group planar and the propylene tail explicit, which is all
	// the reaction-coordinate scan needs (nucleophilic attack at C2 and
	// ring-opening C4-O3 / C5-O1 cleavage are both representable).
	mol.Name = "PC"
	return mol
}

// DimethylSulfoxide returns DMSO (C2H6OS), an alternative Li/air
// electrolyte solvent with enhanced stability against peroxide attack.
func DimethylSulfoxide() *Molecule {
	mol, err := ParseXYZString(`10
dimethyl sulfoxide (idealised)
S   0.0000   0.0000   0.0000
O   0.0000   0.0000   1.4900
C   1.3600  -0.9600  -0.5800
C  -1.3600  -0.9600  -0.5800
H   2.2800  -0.4400  -0.3100
H   1.3400  -1.0600  -1.6700
H   1.3300  -1.9500  -0.1200
H  -2.2800  -0.4400  -0.3100
H  -1.3400  -1.0600  -1.6700
H  -1.3300  -1.9500  -0.1200
`)
	if err != nil {
		panic(err)
	}
	mol.Name = "DMSO"
	return mol
}

// LithiumPeroxide returns a rhombic Li2O2 molecular model: a peroxide O-O
// unit (1.55 Å) side-on coordinated by two Li ions. This is the discharge
// product responsible for electrolyte degradation in Li/air cells.
func LithiumPeroxide() *Molecule {
	doo := aa(1.55)
	// Li sits in the O-O perpendicular bisector plane at ~1.82 Å from each O.
	dLi := aa(1.82)
	h := math.Sqrt(dLi*dLi - (doo/2)*(doo/2))
	return &Molecule{
		Name: "Li2O2",
		Atoms: []Atom{
			{O, Vec3{0, 0, doo / 2}},
			{O, Vec3{0, 0, -doo / 2}},
			{Li, Vec3{h, 0, 0}},
			{Li, Vec3{-h, 0, 0}},
		},
	}
}

// LithiumFluoride returns an LiF diatomic (R = 1.564 Å), used as a small
// ionic test system.
func LithiumFluoride() *Molecule {
	return &Molecule{
		Name: "LiF",
		Atoms: []Atom{
			{Li, Vec3{0, 0, 0}},
			{F, Vec3{0, 0, aa(1.564)}},
		},
	}
}

// Methane returns CH4 in Td geometry (r_CH = 1.087 Å).
func Methane() *Molecule {
	d := aa(1.087) / math.Sqrt(3)
	return &Molecule{
		Name: "CH4",
		Atoms: []Atom{
			{C, Vec3{0, 0, 0}},
			{H, Vec3{d, d, d}},
			{H, Vec3{-d, -d, d}},
			{H, Vec3{-d, d, -d}},
			{H, Vec3{d, -d, -d}},
		},
	}
}

// SolvatedPeroxide places a Li2O2 unit at the given distance (bohr) from
// the electrophilic centre of the solvent molecule (the carbonate carbon
// of PC, the sulfur of DMSO), modelling the encounter complex that
// initiates electrolyte degradation. The peroxide approaches along the
// solvent's sterically open axis — out of the ring plane for PC, the
// direction bisecting away from the S=O and the methyls for DMSO — with
// its rhombus plane face-on to the solvent so that no atom collides with
// in-plane substituents during a rigid scan.
func SolvatedPeroxide(solvent string, distance float64) (*Molecule, error) {
	var sol *Molecule
	var u Vec3 // open approach axis (unit vector)
	switch solvent {
	case "PC":
		sol = PropyleneCarbonate()
		u = Vec3{0, 0, 1} // perpendicular to the carbonate plane
	case "DMSO":
		sol = DimethylSulfoxide()
		u = Vec3{0, 1, 0} // away from both the S=O (+z) and methyls (−y,−z)
	default:
		return nil, fmt.Errorf("chem: unknown solvent %q (want PC or DMSO)", solvent)
	}
	// Face-on Li2O2: the O–O axis and the Li–Li axis both perpendicular
	// to u, all four atoms in the plane at height `distance`.
	doo := aa(1.55)
	dLi := aa(1.82)
	h := math.Sqrt(dLi*dLi - (doo/2)*(doo/2))
	// Build an orthonormal frame (e1, e2, u).
	e1 := Vec3{1, 0, 0}
	if math.Abs(u[0]) > 0.9 {
		e1 = Vec3{0, 1, 0}
	}
	e1 = e1.Sub(u.Scale(e1.Dot(u)))
	e1 = e1.Scale(1 / e1.Norm())
	e2 := u.Cross(e1)

	site := sol.Atoms[0].Pos
	center := site.Add(u.Scale(distance))
	per := &Molecule{
		Name: "Li2O2",
		Atoms: []Atom{
			{O, center.Add(e1.Scale(doo / 2))},
			{O, center.Add(e1.Scale(-doo / 2))},
			{Li, center.Add(e2.Scale(h))},
			{Li, center.Add(e2.Scale(-h))},
		},
	}
	m := sol.Merge(per)
	m.Name = fmt.Sprintf("%s+Li2O2@%.2f", solvent, distance)
	return m, nil
}

package chem

import (
	"fmt"
	"math"

	"hfxmd/internal/phys"
)

// Vec3 is a Cartesian vector in bohr.
type Vec3 [3]float64

// Add returns v+w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v-w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Atom is a nucleus with element identity and position in bohr.
type Atom struct {
	El  Element
	Pos Vec3
}

// Molecule is an open-boundary cluster: a collection of atoms and an
// overall charge. Positions are in bohr.
type Molecule struct {
	Atoms  []Atom
	Charge int
	// Name labels the system in reports.
	Name string
}

// NAtoms returns the number of atoms.
func (m *Molecule) NAtoms() int { return len(m.Atoms) }

// NElectrons returns the electron count (sum of atomic numbers − charge).
func (m *Molecule) NElectrons() int {
	n := 0
	for _, a := range m.Atoms {
		n += int(a.El)
	}
	return n - m.Charge
}

// Distance returns the distance between atoms i and j.
func (m *Molecule) Distance(i, j int) float64 { return m.Displacement(i, j).Norm() }

// Displacement returns r_j − r_i.
func (m *Molecule) Displacement(i, j int) Vec3 { return m.Atoms[j].Pos.Sub(m.Atoms[i].Pos) }

// NuclearRepulsion returns the classical nucleus-nucleus Coulomb energy of
// the open-boundary cluster in hartree.
func (m *Molecule) NuclearRepulsion() float64 {
	var e float64
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			r := m.Distance(i, j)
			e += float64(m.Atoms[i].El) * float64(m.Atoms[j].El) / r
		}
	}
	return e
}

// NuclearRepulsionGradient returns ∂NuclearRepulsion/∂R for every atom.
func (m *Molecule) NuclearRepulsionGradient() []Vec3 {
	g := make([]Vec3, len(m.Atoms))
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			d := m.Displacement(i, j)
			r := d.Norm()
			f := d.Scale(float64(m.Atoms[i].El) * float64(m.Atoms[j].El) / (r * r * r))
			g[i] = g[i].Add(f)
			g[j] = g[j].Sub(f)
		}
	}
	return g
}

// CenterOfMass returns the mass-weighted centre in bohr.
func (m *Molecule) CenterOfMass() Vec3 {
	var com Vec3
	var mass float64
	for _, a := range m.Atoms {
		w := a.El.Mass()
		com = com.Add(a.Pos.Scale(w))
		mass += w
	}
	if mass == 0 {
		return com
	}
	return com.Scale(1 / mass)
}

// Translate shifts every atom by d.
func (m *Molecule) Translate(d Vec3) {
	for i := range m.Atoms {
		m.Atoms[i].Pos = m.Atoms[i].Pos.Add(d)
	}
}

// Clone returns a deep copy of the molecule.
func (m *Molecule) Clone() *Molecule {
	c := &Molecule{Charge: m.Charge, Name: m.Name}
	c.Atoms = make([]Atom, len(m.Atoms))
	copy(c.Atoms, m.Atoms)
	return c
}

// Merge returns a new molecule containing the atoms of both inputs; the
// charge is the sum.
func (m *Molecule) Merge(other *Molecule) *Molecule {
	out := m.Clone()
	out.Atoms = append(out.Atoms, other.Atoms...)
	out.Charge += other.Charge
	if other.Name != "" {
		out.Name = m.Name + "+" + other.Name
	}
	return out
}

// Formula returns a Hill-ish chemical formula such as "C4H6O3".
func (m *Molecule) Formula() string {
	counts := map[Element]int{}
	for _, a := range m.Atoms {
		counts[a.El]++
	}
	s := ""
	emit := func(e Element) {
		if n := counts[e]; n > 0 {
			if n == 1 {
				s += e.Symbol()
			} else {
				s += fmt.Sprintf("%s%d", e.Symbol(), n)
			}
			delete(counts, e)
		}
	}
	emit(C)
	emit(H)
	for e := Element(1); e <= Ar; e++ {
		emit(e)
	}
	return s
}

// Bonds perceives covalent bonds using the covalent-radius criterion
// r_ij < f·(R_i + R_j) with tolerance factor f (typically 1.2). Returns
// index pairs with i < j.
func (m *Molecule) Bonds(f float64) [][2]int {
	var bonds [][2]int
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			rmax := f * (m.Atoms[i].El.CovalentRadius() + m.Atoms[j].El.CovalentRadius()) * phys.AngstromToBohr
			if m.Distance(i, j) < rmax {
				bonds = append(bonds, [2]int{i, j})
			}
		}
	}
	return bonds
}

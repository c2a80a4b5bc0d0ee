// Package dft provides the semilocal density-functional substrate needed
// for the PBE0 hybrid functional: Becke-partitioned atom-centred
// integration grids (Gauss–Chebyshev radial × Lebedev angular), the LDA
// (Slater exchange, VWN5 correlation) and PBE exchange–correlation
// functionals, and the assembly of exchange–correlation energies and
// Kohn–Sham matrices over the grid.
//
// PBE0 itself is composed at the SCF level: E_xc = ¼E_x^HF + ¾E_x^PBE +
// E_c^PBE, with the exact-exchange part supplied by package hfx.
package dft

import (
	"math"

	"hfxmd/internal/chem"
	"hfxmd/internal/phys"
)

// GridPoint is one quadrature node with its combined weight (radial ×
// angular × Becke partition). Atom is the atom whose sphere the node
// belongs to: the node moves rigidly with it.
type GridPoint struct {
	Pos  chem.Vec3
	W    float64
	Atom int
}

// Grid is a molecular integration grid.
type Grid struct {
	Points []GridPoint
}

// GridSpec controls grid construction.
type GridSpec struct {
	// NRadial is the number of radial shells per atom (default 32).
	NRadial int
	// NAngular selects the Lebedev order: one of 6, 14, 26, 38, 50
	// (default 26).
	NAngular int
}

// DefaultGridSpec returns a medium grid adequate for the energy
// differences studied here.
func DefaultGridSpec() GridSpec { return GridSpec{NRadial: 32, NAngular: 26} }

// lebedev returns the unit-sphere points and weights of the small Lebedev
// rules. Weights sum to 1 (the 4π factor is folded into the radial part).
func lebedev(n int) ([]chem.Vec3, []float64) {
	switch n {
	case 6:
		return octahedron(), repeat(1.0/6, 6)
	case 14:
		pts := append(octahedron(), cube()...)
		w := append(repeat(1.0/15, 6), repeat(3.0/40, 8)...)
		return pts, w
	case 26:
		pts := append(append(octahedron(), edges()...), cube()...)
		w := append(append(repeat(1.0/21, 6), repeat(4.0/105, 12)...), repeat(27.0/840, 8)...)
		return pts, w
	case 38:
		const p = 0.4597008433809831
		q := math.Sqrt(1 - p*p)
		pts := append(append(octahedron(), cube()...), pq0(p, q)...)
		w := append(append(repeat(0.009523809523809524, 6), repeat(0.03214285714285714, 8)...),
			repeat(0.02857142857142857, 24)...)
		return pts, w
	case 50:
		const l = 0.3015113445777636
		m := math.Sqrt(1 - 2*l*l)
		pts := append(append(append(octahedron(), edges()...), cube()...), llm(l, m)...)
		w := append(append(append(
			repeat(0.012698412698412698, 6),
			repeat(0.022574955908289243, 12)...),
			repeat(0.021093750000000000, 8)...),
			repeat(0.020173335537918871, 24)...)
		return pts, w
	default:
		panic("dft: unsupported Lebedev order (want 6, 14, 26, 38 or 50)")
	}
}

func repeat(v float64, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = v
	}
	return w
}

func octahedron() []chem.Vec3 {
	return []chem.Vec3{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
}

func cube() []chem.Vec3 {
	a := 1 / math.Sqrt(3)
	var pts []chem.Vec3
	for _, sx := range []float64{a, -a} {
		for _, sy := range []float64{a, -a} {
			for _, sz := range []float64{a, -a} {
				pts = append(pts, chem.Vec3{sx, sy, sz})
			}
		}
	}
	return pts
}

func edges() []chem.Vec3 {
	a := 1 / math.Sqrt2
	var pts []chem.Vec3
	for _, s1 := range []float64{a, -a} {
		for _, s2 := range []float64{a, -a} {
			pts = append(pts,
				chem.Vec3{s1, s2, 0}, chem.Vec3{s1, 0, s2}, chem.Vec3{0, s1, s2})
		}
	}
	return pts
}

// pq0 generates the 24 points (±p,±q,0) and permutations.
func pq0(p, q float64) []chem.Vec3 {
	var pts []chem.Vec3
	for _, sp := range []float64{p, -p} {
		for _, sq := range []float64{q, -q} {
			pts = append(pts,
				chem.Vec3{sp, sq, 0}, chem.Vec3{sq, sp, 0},
				chem.Vec3{sp, 0, sq}, chem.Vec3{sq, 0, sp},
				chem.Vec3{0, sp, sq}, chem.Vec3{0, sq, sp})
		}
	}
	return pts
}

// llm generates the 24 points (±l,±l,±m) and permutations.
func llm(l, m float64) []chem.Vec3 {
	var pts []chem.Vec3
	for _, s1 := range []float64{l, -l} {
		for _, s2 := range []float64{l, -l} {
			for _, s3 := range []float64{m, -m} {
				pts = append(pts,
					chem.Vec3{s1, s2, s3}, chem.Vec3{s1, s3, s2}, chem.Vec3{s3, s1, s2})
			}
		}
	}
	return pts
}

// beckeRM returns the atom-size mapping parameter in bohr.
func beckeRM(el chem.Element) float64 {
	r := el.CovalentRadius() * phys.AngstromToBohr
	if el == chem.H {
		return 0.8 // hydrogen needs a tighter map than its covalent radius
	}
	return math.Max(r, 0.5)
}

// BuildGrid constructs the Becke-partitioned molecular grid.
func BuildGrid(mol *chem.Molecule, spec GridSpec) *Grid {
	if spec.NRadial <= 0 {
		spec.NRadial = DefaultGridSpec().NRadial
	}
	if spec.NAngular <= 0 {
		spec.NAngular = DefaultGridSpec().NAngular
	}
	angPts, angW := lebedev(spec.NAngular)
	g := &Grid{Points: make([]GridPoint, 0, mol.NAtoms()*spec.NRadial*len(angPts))}
	part := newBecke(mol)
	for ai, atom := range mol.Atoms {
		rm := beckeRM(atom.El)
		n := spec.NRadial
		for i := 1; i <= n; i++ {
			theta := float64(i) * math.Pi / float64(n+1)
			x := math.Cos(theta)
			r := rm * (1 + x) / (1 - x)
			if r < 1e-12 {
				continue
			}
			// Radial weight: Gauss–Chebyshev (2nd kind) × Jacobian of the
			// Becke map × r², with the 4π of the angular integral folded
			// in here because the Lebedev weights sum to 1.
			wRad := math.Pi / float64(n+1) * math.Sin(theta) *
				r * r * 2 * rm / ((1 - x) * (1 - x)) * 4 * math.Pi
			for k, u := range angPts {
				p := chem.Vec3{
					atom.Pos[0] + r*u[0],
					atom.Pos[1] + r*u[1],
					atom.Pos[2] + r*u[2],
				}
				w := wRad * angW[k] * part.weight(ai, p)
				if w > 1e-16 {
					g.Points = append(g.Points, GridPoint{Pos: p, W: w, Atom: ai})
				}
			}
		}
	}
	return g
}

// becke evaluates Becke fuzzy-Voronoi partition weights for one molecule:
// the interatomic distances are computed once, the point–atom distances
// once per point, and the scratch is reused from point to point.
type becke struct {
	atoms   []chem.Atom
	dist    []float64 // |R_i − R_j|, n × n
	r, cell []float64 // per-point scratch
}

func newBecke(mol *chem.Molecule) *becke {
	n := mol.NAtoms()
	b := &becke{dist: make([]float64, n*n), r: make([]float64, n), cell: make([]float64, n)}
	b.bind(mol)
	return b
}

// bind points b at mol, a molecule of as many atoms as b was sized for.
func (b *becke) bind(mol *chem.Molecule) {
	n := mol.NAtoms()
	b.atoms = mol.Atoms
	for i, ai := range mol.Atoms {
		for j, aj := range mol.Atoms {
			b.dist[i*n+j] = aj.Pos.Sub(ai.Pos).Norm()
		}
	}
}

// weight returns the partition weight of grid point p belonging to atom
// ia (3 iterations of the smoothing polynomial).
func (b *becke) weight(ia int, p chem.Vec3) float64 {
	if len(b.atoms) == 1 {
		return 1
	}
	total := b.cells(p)
	if total <= 0 {
		return 0
	}
	return b.cell[ia] / total
}

// cells fills b.r with the distances from point p to every atom and b.cell
// with the atoms' unnormalised cell functions at p, and returns their sum.
func (b *becke) cells(p chem.Vec3) float64 {
	n := len(b.atoms)
	for i, a := range b.atoms {
		b.r[i] = p.Sub(a.Pos).Norm()
		b.cell[i] = 1
	}
	// The smoothing polynomial is odd in μ_ij = −μ_ji, so one evaluation
	// serves both cells of a pair; each cell still collects its factors
	// in ascending order of the other atom.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f := (b.r[i] - b.r[j]) / b.dist[i*n+j]
			for it := 0; it < 3; it++ {
				f = 1.5*f - 0.5*f*f*f
			}
			b.cell[i] *= 0.5 * (1 - f)
			b.cell[j] *= 0.5 * (1 + f)
		}
	}
	var total float64
	for _, c := range b.cell {
		total += c
	}
	return total
}

// NumberOfElectrons integrates a density callback over the grid — the
// standard grid-quality diagnostic (must reproduce N_e).
func (g *Grid) NumberOfElectrons(rho func(chem.Vec3) float64) float64 {
	var n float64
	for _, pt := range g.Points {
		n += pt.W * rho(pt.Pos)
	}
	return n
}

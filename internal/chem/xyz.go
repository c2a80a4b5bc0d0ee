package chem

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hfxmd/internal/phys"
)

// ReadXYZ parses a molecule from standard XYZ format. Coordinates in the
// file are ångström and are converted to bohr; one that is not finite in
// bohr (NaN, ±Inf, or too large to convert) is an error. The comment line
// is stored as the molecule name.
func ReadXYZ(r io.Reader) (*Molecule, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("chem: empty XYZ input")
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil {
		return nil, fmt.Errorf("chem: bad atom count line: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("chem: negative atom count %d", n)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("chem: missing comment line")
	}
	mol := &Molecule{Name: strings.TrimSpace(sc.Text())}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("chem: expected %d atoms, got %d", n, i)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			return nil, fmt.Errorf("chem: malformed atom line %d: %q", i+1, sc.Text())
		}
		el, err := ElementFromSymbol(fields[0])
		if err != nil {
			return nil, err
		}
		var pos Vec3
		for k := 0; k < 3; k++ {
			v, err := strconv.ParseFloat(fields[k+1], 64)
			if err != nil {
				return nil, fmt.Errorf("chem: bad coordinate on line %d: %w", i+1, err)
			}
			pos[k] = v * phys.AngstromToBohr
			if math.IsNaN(pos[k]) || math.IsInf(pos[k], 0) {
				return nil, fmt.Errorf("chem: non-finite coordinate on line %d: %q", i+1, fields[k+1])
			}
		}
		mol.Atoms = append(mol.Atoms, Atom{El: el, Pos: pos})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mol, nil
}

// WriteXYZ emits the molecule in XYZ format (coordinates in ångström).
func WriteXYZ(w io.Writer, m *Molecule) error {
	if _, err := fmt.Fprintf(w, "%d\n%s\n", len(m.Atoms), m.Name); err != nil {
		return err
	}
	for _, a := range m.Atoms {
		if _, err := fmt.Fprintf(w, "%-2s %14.8f %14.8f %14.8f\n",
			a.El.Symbol(),
			a.Pos[0]*phys.BohrToAngstrom,
			a.Pos[1]*phys.BohrToAngstrom,
			a.Pos[2]*phys.BohrToAngstrom); err != nil {
			return err
		}
	}
	return nil
}

// ParseXYZString is a convenience wrapper over ReadXYZ for literals.
func ParseXYZString(s string) (*Molecule, error) {
	return ReadXYZ(strings.NewReader(s))
}

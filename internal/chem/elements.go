// Package chem provides the chemical-structure substrate: elements,
// open-boundary molecules, XYZ input/output, and geometry builders for the
// systems studied in the reproduced paper (water clusters for the scaling
// workloads, propylene carbonate, dimethyl sulfoxide and lithium peroxide
// for the Li/air electrolyte chemistry).
package chem

import (
	"fmt"
	"strings"
)

// Element identifies a chemical element by atomic number.
type Element int

// Elements appearing in the workloads of this repository.
const (
	H  Element = 1
	He Element = 2
	Li Element = 3
	Be Element = 4
	B  Element = 5
	C  Element = 6
	N  Element = 7
	O  Element = 8
	F  Element = 9
	Ne Element = 10
	Na Element = 11
	Mg Element = 12
	Al Element = 13
	Si Element = 14
	P  Element = 15
	S  Element = 16
	Cl Element = 17
	Ar Element = 18
)

var symbols = []string{"", "H", "He", "Li", "Be", "B", "C", "N", "O", "F",
	"Ne", "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar"}

// masses in unified atomic mass units, indexed by atomic number.
var masses = []float64{0, 1.00794, 4.002602, 6.941, 9.012182, 10.811,
	12.0107, 14.0067, 15.9994, 18.9984032, 20.1797, 22.98976928, 24.3050,
	26.9815386, 28.0855, 30.973762, 32.065, 35.453, 39.948}

// covalentRadii in ångström (Cordero et al. 2008 values), used for bond
// perception and basis-extent heuristics.
var covalentRadii = []float64{0, 0.31, 0.28, 1.28, 0.96, 0.84, 0.76, 0.71,
	0.66, 0.57, 0.58, 1.66, 1.41, 1.21, 1.11, 1.07, 1.05, 1.02, 1.06}

// Symbol returns the element symbol ("H", "Li", ...).
func (e Element) Symbol() string {
	if int(e) < 1 || int(e) >= len(symbols) {
		return fmt.Sprintf("Z%d", int(e))
	}
	return symbols[e]
}

// Mass returns the standard atomic mass in amu.
func (e Element) Mass() float64 {
	if int(e) < 1 || int(e) >= len(masses) {
		return 0
	}
	return masses[e]
}

// CovalentRadius returns the covalent radius in ångström.
func (e Element) CovalentRadius() float64 {
	if int(e) < 1 || int(e) >= len(covalentRadii) {
		return 1.5
	}
	return covalentRadii[e]
}

// String implements fmt.Stringer.
func (e Element) String() string { return e.Symbol() }

// ElementFromSymbol parses an element symbol (case-insensitive).
func ElementFromSymbol(s string) (Element, error) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(symbols); i++ {
		if strings.EqualFold(symbols[i], s) {
			return Element(i), nil
		}
	}
	return 0, fmt.Errorf("chem: unknown element symbol %q", s)
}

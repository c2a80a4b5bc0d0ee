// Package phys provides physical constants and unit conversions used
// throughout hfxmd. All internal computation is done in Hartree atomic
// units: lengths in bohr, energies in hartree, masses in electron masses,
// and time in atomic time units.
package phys

// Fundamental conversion factors (CODATA-2010 era values, matching the
// vintage of the reproduced paper).
const (
	// BohrToAngstrom converts lengths from bohr to ångström.
	BohrToAngstrom = 0.52917721092
	// AngstromToBohr converts lengths from ångström to bohr.
	AngstromToBohr = 1.0 / BohrToAngstrom

	// HartreeToEV converts energies from hartree to electron-volt.
	HartreeToEV = 27.21138505
	// HartreeToKcalMol converts energies from hartree to kcal/mol.
	HartreeToKcalMol = 627.509469
	// HartreeToKJMol converts energies from hartree to kJ/mol.
	HartreeToKJMol = 2625.49962

	// AMUToElectronMass converts atomic mass units to electron masses.
	AMUToElectronMass = 1822.8884845

	// AtomicTimeToFemtosecond converts atomic time units to femtoseconds.
	AtomicTimeToFemtosecond = 0.02418884326505
	// FemtosecondToAtomicTime converts femtoseconds to atomic time units.
	FemtosecondToAtomicTime = 1.0 / AtomicTimeToFemtosecond

	// BoltzmannHartreePerK is the Boltzmann constant in hartree/kelvin.
	BoltzmannHartreePerK = 3.1668114e-6
)

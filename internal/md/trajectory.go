package md

import (
	"fmt"
	"math"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/phys"
)

// This file holds the integrator building blocks internal/respa
// composes into its trajectory driver: mass tables, the Maxwell–Boltzmann
// draw (with its serializable RNG state), the Berendsen rescale, and
// trajectory accumulation.

// StepError reports a failure — an SCF that stopped converging, a
// checkpoint write error, an injected fault — at a specific MD step,
// so a driver can resume from the last durable state and retry instead
// of discarding the trajectory.
type StepError struct {
	Step int
	Err  error
}

func (e *StepError) Error() string { return fmt.Sprintf("md: step %d: %v", e.Step, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *StepError) Unwrap() error { return e.Err }

// Frame is one trajectory snapshot.
type Frame struct {
	Step      int
	TimeFS    float64
	Potential float64 // hartree
	Kinetic   float64 // hartree
	Total     float64 // hartree
	TempK     float64
	Positions []chem.Vec3
}

// Trajectory is the result of a run.
type Trajectory struct {
	Frames []Frame
	Mol    *chem.Molecule // final geometry
	// Final is the complete restartable state after the last completed
	// step — what a checkpoint of that step would contain, and what the
	// aimd -json summary fingerprints.
	Final *ckpt.MDState
	// eLo/eHi accumulate the conserved-energy extrema over every frame,
	// including (on a resumed run) the frames recorded before the
	// restart; seen marks whether any frame contributed.
	eLo, eHi float64
	seen     bool
}

// NewTrajectory returns an empty trajectory accumulating energy extrema
// over frames added with AddFrame. mol is aliased as the (evolving,
// then final) geometry.
func NewTrajectory(mol *chem.Molecule) *Trajectory {
	return &Trajectory{Mol: mol, eLo: math.Inf(1), eHi: math.Inf(-1)}
}

// AddFrame appends a frame and folds its conserved total energy into
// the drift extrema.
func (t *Trajectory) AddFrame(f Frame) {
	if f.Total < t.eLo {
		t.eLo = f.Total
	}
	if f.Total > t.eHi {
		t.eHi = f.Total
	}
	t.seen = true
	t.Frames = append(t.Frames, f)
}

// RestoreExtrema seeds the drift extrema from a checkpoint, so a
// resumed trajectory reports exactly the drift of the uninterrupted
// one.
func (t *Trajectory) RestoreExtrema(st *ckpt.MDState) {
	t.eLo, t.eHi = st.ELo, st.EHi
	t.seen = true
}

// Extrema returns the accumulated conserved-energy extrema (for
// checkpointing by an external integrator).
func (t *Trajectory) Extrema() (lo, hi float64) { return t.eLo, t.eHi }

// EnergyDrift returns the peak-to-peak variation of the conserved total
// energy per atom, the standard integrator-quality diagnostic. The
// extrema are accumulated as frames are recorded and restored across a
// checkpoint/resume boundary, so a resumed run reports exactly the
// drift of the uninterrupted one.
func (t *Trajectory) EnergyDrift() float64 {
	if !t.seen {
		return 0
	}
	return (t.eHi - t.eLo) / float64(len(t.Mol.Atoms))
}

// AtomicMasses returns per-atom masses in electron-mass units, the
// integrator's native unit.
func AtomicMasses(m *chem.Molecule) []float64 {
	masses := make([]float64, m.NAtoms())
	for i, a := range m.Atoms {
		masses[i] = a.El.Mass() * phys.AMUToElectronMass
	}
	return masses
}

// Kinetic returns ½Σmv² in hartree.
func Kinetic(vel []chem.Vec3, masses []float64) float64 {
	var e float64
	for i, v := range vel {
		e += 0.5 * masses[i] * v.Norm2()
	}
	return e
}

// Temperature converts kinetic energy to an instantaneous temperature
// via equipartition over 3N degrees of freedom.
func Temperature(ekin float64, natoms int) float64 {
	dof := 3 * natoms
	if dof == 0 {
		return 0
	}
	return 2 * ekin / (float64(dof) * phys.BoltzmannHartreePerK)
}

// BerendsenRescale applies one Berendsen thermostat step towards t0
// with coupling time tauFS over an elapsed dtFS.
func BerendsenRescale(vel []chem.Vec3, masses []float64, t0, dtFS, tauFS float64) {
	tcur := Temperature(Kinetic(vel, masses), len(vel))
	if tcur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dtFS/tauFS*(t0/tcur-1))
	for i := range vel {
		vel[i] = vel[i].Scale(lambda)
	}
}

// DrawVelocities draws Maxwell–Boltzmann velocities from a fresh RNG
// seeded with seed, removes the centre-of-mass drift, and rescales to
// tempK exactly (all zero at tempK ≤ 0). It returns the post-draw RNG
// state with them, so an integrator that checkpoints itself can restore
// the stream bit-for-bit.
func DrawVelocities(m *chem.Molecule, masses []float64, tempK float64, seed int64) ([]chem.Vec3, [3]uint64) {
	r := newRNG(seed)
	n := m.NAtoms()
	vel := make([]chem.Vec3, n)
	if tempK <= 0 {
		return vel, r.state()
	}
	for i := range vel {
		sigma := math.Sqrt(phys.BoltzmannHartreePerK * tempK / masses[i])
		for k := 0; k < 3; k++ {
			vel[i][k] = sigma * r.NormFloat64()
		}
	}
	// Remove COM momentum.
	var ptot chem.Vec3
	var mtot float64
	for i := range vel {
		ptot = ptot.Add(vel[i].Scale(masses[i]))
		mtot += masses[i]
	}
	vcom := ptot.Scale(1 / mtot)
	for i := range vel {
		vel[i] = vel[i].Sub(vcom)
	}
	// Exact rescale to T.
	tcur := Temperature(Kinetic(vel, masses), n)
	if tcur > 0 {
		s := math.Sqrt(tempK / tcur)
		for i := range vel {
			vel[i] = vel[i].Scale(s)
		}
	}
	return vel, r.state()
}

// Package md implements Born–Oppenheimer molecular dynamics on the SCF
// potential-energy surface: velocity-Verlet integration, a Berendsen
// thermostat, and the constrained reaction-coordinate scans used for the
// Li/air electrolyte-degradation study (paper experiment E8).
//
// Forces come in two kinds. A closed-shell SCF surface has analytic ones
// — scf.RunForces: one SCF plus one gradient build — which Session.Forces
// (warm-started across steps) and SCFForces (state-free) serve to RESPA
// trajectories. Run, the scans and package opt take any PotentialFunc and
// difference it centrally (Forces/ForcesN, 6N energies per step): that
// serves model surfaces and UHF, and is the oracle the analytic forces are
// tested against.
package md

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/phys"
	"hfxmd/internal/scf"
)

// PotentialFunc maps a geometry to a total energy in hartree.
type PotentialFunc func(*chem.Molecule) (float64, error)

// SCFPotential adapts an scf.Config into a PotentialFunc.
func SCFPotential(cfg scf.Config) PotentialFunc {
	return func(m *chem.Molecule) (float64, error) {
		res, err := scf.Run(m, cfg)
		if err != nil {
			return 0, err
		}
		if !res.Converged {
			return res.Energy, fmt.Errorf("md: SCF not converged at this geometry")
		}
		return res.Energy, nil
	}
}

// Forces computes −∂E/∂R by central differences with step h (bohr),
// evaluating the 6N displaced energies over a bounded worker group sized
// by GOMAXPROCS. Identical (bitwise) to ForcesN with any worker count:
// each force component depends only on its own two displaced energies.
func Forces(mol *chem.Molecule, pot PotentialFunc, h float64) ([]chem.Vec3, error) {
	return ForcesN(mol, pot, h, 0)
}

// ForcesN is Forces with an explicit worker bound (0 or negative means
// GOMAXPROCS; the bound is clamped to the 3N displacement jobs). Every
// worker displaces its own clone of the geometry, so pot is called
// concurrently — the PotentialFunc must be safe for that, which
// SCFPotential is (each call builds its own SCF state).
func ForcesN(mol *chem.Molecule, pot PotentialFunc, h float64, workers int) ([]chem.Vec3, error) {
	if h <= 0 {
		h = 5e-3
	}
	n := mol.NAtoms()
	jobs := 3 * n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	f := make([]chem.Vec3, n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work := mol.Clone()
			for {
				jid := int(next.Add(1)) - 1
				if jid >= jobs || errs[w] != nil {
					return
				}
				i, k := jid/3, jid%3
				orig := work.Atoms[i].Pos[k]
				work.Atoms[i].Pos[k] = orig + h
				ep, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: forward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig - h
				em, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: backward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig
				f[i][k] = -(ep - em) / (2 * h)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Options configures a trajectory.
type Options struct {
	// Steps is the number of MD steps.
	Steps int
	// Dt is the timestep in femtoseconds (default 0.5).
	Dt float64
	// TemperatureK seeds velocities and, with Thermostat, drives the bath.
	TemperatureK float64
	// Thermostat enables Berendsen velocity rescaling.
	Thermostat bool
	// TauFS is the Berendsen coupling time (default 20 fs).
	TauFS float64
	// FDStep is the finite-difference displacement in bohr (default 5e-3).
	FDStep float64
	// Seed makes velocity initialisation reproducible.
	Seed int64
	// Ckpt, if non-nil, makes every completed step durable: one journal
	// record per step plus a periodic snapshot ring (see package ckpt).
	Ckpt *ckpt.Writer
	// Resume, if non-nil, continues a trajectory from a restored state
	// (ckpt.Load) instead of initialising velocities. Positions,
	// velocities, forces, energy extrema and the RNG are restored
	// bit-for-bit, so the resumed run is bitwise identical to the
	// uninterrupted one from the restore point on. The remaining Options
	// must match the original run; a mismatch is rejected via the
	// state's parameter fingerprint.
	Resume *ckpt.MDState
}

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

// paramsHash fingerprints the run configuration and system identity:
// everything that must match for a checkpoint to be resumable by this
// run. Positions are deliberately excluded — they evolve.
func paramsHash(m *chem.Molecule, opts *Options) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	w(math.Float64bits(opts.Dt))
	w(math.Float64bits(opts.TemperatureK))
	if opts.Thermostat {
		w(1)
	} else {
		w(0)
	}
	w(math.Float64bits(opts.TauFS))
	w(math.Float64bits(opts.FDStep))
	w(uint64(opts.Seed))
	// Steps is excluded: resuming with a longer horizon (trajectory
	// extension) is legitimate and changes no per-step arithmetic.
	w(uint64(int64(m.Charge)))
	w(uint64(m.NAtoms()))
	for _, a := range m.Atoms {
		w(uint64(a.El))
	}
	return h.Sum64()
}

// Run integrates a BOMD trajectory with velocity Verlet, optionally
// checkpointing every step (Options.Ckpt) and optionally continuing a
// restored one (Options.Resume).
func Run(mol *chem.Molecule, pot PotentialFunc, opts Options) (*Trajectory, error) {
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("md: Steps must be positive")
	}
	if opts.Dt <= 0 {
		opts.Dt = 0.5
	}
	if opts.TauFS <= 0 {
		opts.TauFS = 20
	}
	dt := opts.Dt * phys.FemtosecondToAtomicTime

	m := mol.Clone()
	n := m.NAtoms()
	masses := make([]float64, n)
	for i, a := range m.Atoms {
		masses[i] = a.El.Mass() * phys.AMUToElectronMass
	}
	ph := paramsHash(m, &opts)

	traj := &Trajectory{Mol: m, eLo: math.Inf(1), eHi: math.Inf(-1)}
	var (
		vel, frc []chem.Vec3
		epot     float64
		rng      = newRNG(opts.Seed)
	)
	// stateAt captures the complete post-step state — the unit of both
	// checkpointing and the Final fingerprint.
	stateAt := func(step int) *ckpt.MDState {
		st := &ckpt.MDState{
			Step: int64(step),
			Pos:  make([]chem.Vec3, n),
			Vel:  append([]chem.Vec3(nil), vel...),
			Frc:  append([]chem.Vec3(nil), frc...),
			Epot: epot,
			ELo:  traj.eLo, EHi: traj.eHi,
			RNG:        rng.state(),
			ParamsHash: ph,
		}
		for i := range st.Pos {
			st.Pos[i] = m.Atoms[i].Pos
		}
		return st
	}
	record := func(step int) {
		ekin := kinetic(vel, masses)
		pos := make([]chem.Vec3, n)
		for i := range pos {
			pos[i] = m.Atoms[i].Pos
		}
		total := epot + ekin
		if total < traj.eLo {
			traj.eLo = total
		}
		if total > traj.eHi {
			traj.eHi = total
		}
		traj.seen = true
		traj.Frames = append(traj.Frames, Frame{
			Step:      step,
			TimeFS:    float64(step) * opts.Dt,
			Potential: epot,
			Kinetic:   ekin,
			Total:     total,
			TempK:     temperature(ekin, n),
			Positions: pos,
		})
		traj.Final = stateAt(step)
	}

	startStep := 1
	if st := opts.Resume; st != nil {
		if len(st.Pos) != n {
			return nil, fmt.Errorf("md: resume state holds %d atoms, molecule has %d", len(st.Pos), n)
		}
		if st.ParamsHash != ph {
			return nil, fmt.Errorf("md: resume state was written by a different run configuration (params fingerprint %016x, want %016x)", st.ParamsHash, ph)
		}
		if int(st.Step) > opts.Steps {
			return nil, fmt.Errorf("md: resume state is at step %d, beyond Steps=%d", st.Step, opts.Steps)
		}
		for i := range m.Atoms {
			m.Atoms[i].Pos = st.Pos[i]
		}
		vel = append([]chem.Vec3(nil), st.Vel...)
		frc = append([]chem.Vec3(nil), st.Frc...)
		epot = st.Epot
		rng.setState(st.RNG)
		traj.eLo, traj.eHi = st.ELo, st.EHi
		traj.seen = true
		record(int(st.Step)) // resume-point frame, bitwise equal to the original's
		startStep = int(st.Step) + 1
	} else {
		vel = initVelocities(m, masses, opts.TemperatureK, rng)
		var err error
		frc, err = Forces(m, pot, opts.FDStep)
		if err != nil {
			return nil, &StepError{Step: 0, Err: err}
		}
		epot, err = pot(m)
		if err != nil {
			return nil, &StepError{Step: 0, Err: err}
		}
		record(0)
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &StepError{Step: 0, Err: err}
			}
		}
	}

	for step := startStep; step <= opts.Steps; step++ {
		// Velocity Verlet: half kick, drift, force, half kick.
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				vel[i][k] += 0.5 * dt * frc[i][k] / masses[i]
				m.Atoms[i].Pos[k] += dt * vel[i][k]
			}
		}
		var err error
		frc, err = Forces(m, pot, opts.FDStep)
		if err != nil {
			return traj, &StepError{Step: step, Err: err}
		}
		epot, err = pot(m)
		if err != nil {
			return traj, &StepError{Step: step, Err: err}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				vel[i][k] += 0.5 * dt * frc[i][k] / masses[i]
			}
		}
		if opts.Thermostat && opts.TemperatureK > 0 {
			berendsen(vel, masses, opts.TemperatureK, opts.Dt, opts.TauFS, n)
		}
		record(step)
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &StepError{Step: step, Err: err}
			}
		}
	}
	return traj, nil
}

// kinetic returns ½Σmv² in hartree.
func kinetic(vel []chem.Vec3, masses []float64) float64 {
	var e float64
	for i, v := range vel {
		e += 0.5 * masses[i] * v.Norm2()
	}
	return e
}

// temperature converts kinetic energy to an instantaneous temperature via
// equipartition over 3N degrees of freedom.
func temperature(ekin float64, n int) float64 {
	dof := 3 * n
	if dof == 0 {
		return 0
	}
	return 2 * ekin / (float64(dof) * phys.BoltzmannHartreePerK)
}

// berendsen rescales velocities towards the bath temperature.
func berendsen(vel []chem.Vec3, masses []float64, t0, dtFS, tauFS float64, n int) {
	tcur := temperature(kinetic(vel, masses), n)
	if tcur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dtFS/tauFS*(t0/tcur-1))
	for i := range vel {
		vel[i] = vel[i].Scale(lambda)
	}
}

// initVelocities draws Maxwell–Boltzmann velocities, removes the centre-
// of-mass drift, and rescales to the target temperature exactly. The
// caller owns the RNG so its post-init state can be checkpointed.
func initVelocities(m *chem.Molecule, masses []float64, tempK float64, rng *rng) []chem.Vec3 {
	n := m.NAtoms()
	vel := make([]chem.Vec3, n)
	if tempK <= 0 {
		return vel
	}
	for i := range vel {
		sigma := math.Sqrt(phys.BoltzmannHartreePerK * tempK / masses[i])
		for k := 0; k < 3; k++ {
			vel[i][k] = sigma * rng.NormFloat64()
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
	tcur := temperature(kinetic(vel, masses), n)
	if tcur > 0 {
		s := math.Sqrt(tempK / tcur)
		for i := range vel {
			vel[i] = vel[i].Scale(s)
		}
	}
	return vel
}

// Package respa implements the r-RESPA multiple-time-step integrator
// for Born–Oppenheimer MD (Tuckerman/Berne/Martyna splitting, applied
// to hybrid-functional AIMD following Mandal et al., arXiv:2110.07670):
// a cheap reference force drives the inner velocity-Verlet loop at δt,
// and the expensive correction F_slow = F_full − F_cheap — in this
// codebase, the force of the full HFX-bearing SCF surface — kicks the
// velocities only every k-th step, at Δt = k·δt. Because the paper's
// per-step cost is dominated by exact exchange, evaluating it 1/k as
// often is the single biggest per-trajectory lever the roadmap names.
//
// The integrator is symplectic for each split and reduces to plain
// velocity Verlet on the full surface at k=1 (up to the order of the
// two half-kicks). The conserved quantity is E_full + E_kin, recorded
// at outer boundaries where the full potential is evaluated anyway, so
// monitoring drift adds no extra SCF work.
//
// Every *inner* step yields a complete restartable state that composes
// with package ckpt: positions, velocities, the current cheap force,
// and the outer cycle's slow force (ckpt.MDState version 2). Resume is
// bitwise — landing exactly on or between outer boundaries — because
// both forces are restored rather than recomputed.
package respa

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/phys"
	"hfxmd/internal/scf"
)

// Evaluator is the full (slow) surface: potential energy and forces
// −∂E/∂R of a geometry.
type Evaluator = md.Surface

// ForceField returns only the forces of a geometry — the cheap (fast)
// reference surface, evaluated every inner step, where its energy is
// never needed.
type ForceField func(m *chem.Molecule) ([]chem.Vec3, error)

// Options configures a multiple-time-step trajectory.
type Options struct {
	// Steps is the number of outer steps (full-force evaluations).
	Steps int
	// K is the number of inner steps per outer step (default 1).
	K int
	// Dt is the inner timestep in femtoseconds (default 0.5); the outer
	// timestep is K·Dt.
	Dt float64
	// TemperatureK seeds velocities and, with Thermostat, drives the bath.
	TemperatureK float64
	// Thermostat enables Berendsen rescaling, applied once per outer step.
	Thermostat bool
	// TauFS is the Berendsen coupling time (default 20 fs).
	TauFS float64
	// Seed makes velocity initialisation reproducible.
	Seed int64
	// RefLabel names the cheap reference force; it is folded into the
	// checkpoint parameter fingerprint so a resume with a different
	// reference is rejected.
	RefLabel string
	// Ckpt, if non-nil, makes every completed inner step durable.
	Ckpt *ckpt.Writer
	// Resume, if non-nil, continues from a restored RESPA state
	// (ckpt.Load); the restore is bitwise whether the state landed on an
	// outer boundary or between two.
	Resume *ckpt.MDState
	// Ctx, if non-nil, is polled before every inner step; cancellation
	// surfaces as a *md.StepError wrapping ctx.Err(), identifying the
	// step the trajectory stopped at.
	Ctx context.Context
	// OnOuterStep, if non-nil, is called after each completed outer step
	// with the outer index (1-based) and the recorded frame — the
	// streamed-progress hook hfxd trajectory jobs use.
	OnOuterStep func(outer int, f md.Frame)
}

// paramsHash fingerprints the run configuration and system identity —
// everything that must match for a checkpoint to be resumable by this
// run — tagged with the RESPA split (K, reference label). Positions are
// excluded: they evolve.
func paramsHash(m *chem.Molecule, opts *Options) uint64 {
	h := fnv.New64a()
	h.Write([]byte("respa\x00" + opts.RefLabel + "\x00"))
	w := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	w(uint64(opts.K))
	w(math.Float64bits(opts.Dt))
	w(math.Float64bits(opts.TemperatureK))
	if opts.Thermostat {
		w(1)
	} else {
		w(0)
	}
	w(math.Float64bits(opts.TauFS))
	w(uint64(opts.Seed))
	// Steps is excluded: extending the horizon changes no per-step
	// arithmetic.
	w(uint64(int64(m.Charge)))
	w(uint64(m.NAtoms()))
	for _, a := range m.Atoms {
		w(uint64(a.El))
	}
	return h.Sum64()
}

// Run integrates a RESPA trajectory. Frames (and the conserved-energy
// drift they feed) are recorded at outer boundaries; Trajectory.Final
// tracks the complete restartable state after every inner step.
func Run(mol *chem.Molecule, full Evaluator, cheap ForceField, opts Options) (*md.Trajectory, error) {
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("respa: Steps must be positive")
	}
	if opts.K <= 0 {
		opts.K = 1
	}
	if opts.Dt <= 0 {
		opts.Dt = 0.5
	}
	if opts.TauFS <= 0 {
		opts.TauFS = 20
	}
	k := opts.K
	dt := opts.Dt * phys.FemtosecondToAtomicTime
	totalInner := opts.Steps * k

	m := mol.Clone()
	n := m.NAtoms()
	masses := md.AtomicMasses(m)
	ph := paramsHash(m, &opts)

	traj := md.NewTrajectory(m)
	var (
		vel, fc, fs []chem.Vec3 // velocities, cheap force, slow force
		epot        float64     // full potential at the last outer boundary
		rngState    [3]uint64
	)
	stateAt := func(step int) *ckpt.MDState {
		lo, hi := traj.Extrema()
		st := &ckpt.MDState{
			Step: int64(step),
			Pos:  make([]chem.Vec3, n),
			Vel:  append([]chem.Vec3(nil), vel...),
			Frc:  append([]chem.Vec3(nil), fc...),
			Slow: append([]chem.Vec3(nil), fs...),
			Epot: epot,
			ELo:  lo, EHi: hi,
			RNG:        rngState,
			ParamsHash: ph,
		}
		for i := range st.Pos {
			st.Pos[i] = m.Atoms[i].Pos
		}
		return st
	}
	recordOuter := func(step int) {
		ekin := md.Kinetic(vel, masses)
		pos := make([]chem.Vec3, n)
		for i := range pos {
			pos[i] = m.Atoms[i].Pos
		}
		f := md.Frame{
			Step:      step,
			TimeFS:    float64(step) * opts.Dt,
			Potential: epot,
			Kinetic:   ekin,
			Total:     epot + ekin,
			TempK:     md.Temperature(ekin, n),
			Positions: pos,
		}
		traj.AddFrame(f)
		traj.Final = stateAt(step)
		if opts.OnOuterStep != nil {
			opts.OnOuterStep(step/k, f)
		}
	}

	startStep := 1
	if st := opts.Resume; st != nil {
		if len(st.Pos) != n {
			return nil, fmt.Errorf("respa: resume state holds %d atoms, molecule has %d", len(st.Pos), n)
		}
		if st.ParamsHash != ph {
			return nil, fmt.Errorf("respa: resume state was written by a different run configuration (params fingerprint %016x, want %016x)", st.ParamsHash, ph)
		}
		if st.Slow == nil {
			return nil, fmt.Errorf("respa: resume state at step %d is a plain-MD state, not a RESPA one", st.Step)
		}
		if int(st.Step) > totalInner {
			return nil, fmt.Errorf("respa: resume state is at inner step %d, beyond Steps·K=%d", st.Step, totalInner)
		}
		for i := range m.Atoms {
			m.Atoms[i].Pos = st.Pos[i]
		}
		vel = append([]chem.Vec3(nil), st.Vel...)
		fc = append([]chem.Vec3(nil), st.Frc...)
		fs = append([]chem.Vec3(nil), st.Slow...)
		epot = st.Epot
		rngState = st.RNG
		traj.RestoreExtrema(st)
		if st.Step%int64(k) == 0 {
			// Outer-boundary restore point: re-emit its frame, bitwise
			// equal to the original's.
			recordOuter(int(st.Step))
		} else {
			traj.Final = stateAt(int(st.Step))
		}
		startStep = int(st.Step) + 1
	} else {
		vel, rngState = md.DrawVelocities(m, masses, opts.TemperatureK, opts.Seed)
		var err error
		fc, err = cheap(m)
		if err != nil {
			return nil, &md.StepError{Step: 0, Err: err}
		}
		var ffull []chem.Vec3
		epot, ffull, err = full(m)
		if err != nil {
			return nil, &md.StepError{Step: 0, Err: err}
		}
		fs = slowForce(ffull, fc)
		recordOuter(0)
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &md.StepError{Step: 0, Err: err}
			}
		}
	}

	outerDt := float64(k) * dt
	for step := startStep; step <= totalInner; step++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return traj, &md.StepError{Step: step, Err: err}
			}
		}
		// A cycle's opening slow half-kick reuses F_slow evaluated at the
		// previous boundary — the positions have not moved since.
		if (step-1)%k == 0 {
			for i := 0; i < n; i++ {
				for c := 0; c < 3; c++ {
					vel[i][c] += 0.5 * outerDt * fs[i][c] / masses[i]
				}
			}
		}
		// Inner velocity Verlet on the cheap surface.
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				vel[i][c] += 0.5 * dt * fc[i][c] / masses[i]
				m.Atoms[i].Pos[c] += dt * vel[i][c]
			}
		}
		var err error
		fc, err = cheap(m)
		if err != nil {
			return traj, &md.StepError{Step: step, Err: err}
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				vel[i][c] += 0.5 * dt * fc[i][c] / masses[i]
			}
		}
		if step%k == 0 {
			// Outer boundary: full surface, closing slow half-kick,
			// thermostat, frame.
			var ffull []chem.Vec3
			epot, ffull, err = full(m)
			if err != nil {
				return traj, &md.StepError{Step: step, Err: err}
			}
			fs = slowForce(ffull, fc)
			for i := 0; i < n; i++ {
				for c := 0; c < 3; c++ {
					vel[i][c] += 0.5 * outerDt * fs[i][c] / masses[i]
				}
			}
			if opts.Thermostat && opts.TemperatureK > 0 {
				md.BerendsenRescale(vel, masses, opts.TemperatureK, opts.Dt*float64(k), opts.TauFS)
			}
			recordOuter(step)
		} else {
			traj.Final = stateAt(step)
		}
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &md.StepError{Step: step, Err: err}
			}
		}
	}
	return traj, nil
}

// slowForce returns F_full − F_cheap.
func slowForce(full, cheap []chem.Vec3) []chem.Vec3 {
	fs := make([]chem.Vec3, len(full))
	for i := range fs {
		fs[i] = full[i].Sub(cheap[i])
	}
	return fs
}

// SpringReference builds an analytic harmonic-bond reference from the
// initial geometry: every pair the covalent-radius heuristic calls
// bonded (scale factor bondScale, default 1.3) becomes a spring of
// stiffness kSpring (hartree/bohr², default 0.35) at its initial
// length. When the heuristic finds no bonds (noble gases, stretched
// dimers) every atom pair becomes a spring, so the reference is never
// empty for a polyatomic. The reference costs O(bonds) per inner step —
// effectively free next to any SCF — and its only job is to carry the
// stiff near-equilibrium motion between HFX corrections.
func SpringReference(mol *chem.Molecule, bondScale, kSpring float64) ForceField {
	if bondScale <= 0 {
		bondScale = 1.3
	}
	if kSpring <= 0 {
		kSpring = 0.35
	}
	pairs := mol.Bonds(bondScale)
	if len(pairs) == 0 {
		for i := 0; i < mol.NAtoms(); i++ {
			for j := i + 1; j < mol.NAtoms(); j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	r0 := make([]float64, len(pairs))
	for b, p := range pairs {
		r0[b] = mol.Distance(p[0], p[1])
	}
	return func(m *chem.Molecule) ([]chem.Vec3, error) {
		f := make([]chem.Vec3, m.NAtoms())
		for b, p := range pairs {
			i, j := p[0], p[1]
			d := m.Displacement(i, j)
			r := d.Norm()
			if r == 0 {
				continue
			}
			// F_i = k(r−r0)·û_ij: pulls i towards j when stretched.
			s := kSpring * (r - r0[b]) / r
			f[i] = f[i].Add(d.Scale(s))
			f[j] = f[j].Sub(d.Scale(s))
		}
		return f, nil
	}
}

// RefSpring is the one cheap-reference mode BuildReference accepts.
const RefSpring = "spring"

// BuildReference resolves a named cheap-force mode against the initial
// geometry: "spring" (or empty), the analytic harmonic-bond reference
// (SpringReference). An SCF reference would cost more per inner step than
// the full hybrid step it stands in for, so there is none. cfg, fdStep and
// workers are unused; the returned label goes into Options.RefLabel.
func BuildReference(mode string, mol *chem.Molecule, cfg scf.Config, fdStep float64, workers int) (ForceField, string, error) {
	if mode != RefSpring && mode != "" {
		return nil, "", fmt.Errorf("respa: unknown reference mode %q (want %s)", mode, RefSpring)
	}
	return SpringReference(mol, 0, 0), RefSpring, nil
}

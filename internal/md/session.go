package md

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
	"hfxmd/internal/store"
)

// SessionOptions configures cross-step reuse.
type SessionOptions struct {
	// MaxDisplacement is the pair-list invalidation bound in bohr
	// (default 0.25): while no atom has moved farther than this from the
	// geometry the screening pair list was built at, consecutive steps
	// reuse the list (and the builder's task schedule and ERI-cache
	// admission plan) instead of re-screening. Past the bound the list,
	// builder and reference geometry are rebuilt. MD steps move atoms by
	// ~1e-2 bohr, so one list typically serves tens of steps.
	MaxDisplacement float64
	// Store, if non-nil, seeds the *first* step of a session from a
	// persisted density (scf.LoadSeed, the protocol hfxd's scf jobs also
	// use) and persists each converged density back (scf.SaveSeed), so
	// trajectories and scans warm-start across processes and fleet
	// instances. Within a session the predictor's own history always wins
	// — it is one step old, the best seed there is.
	Store *store.Store
}

// SessionStats counts the session's reuse traffic.
type SessionStats struct {
	// Runs counts SCF evaluations (one per Run or Forces call);
	// WarmStarts of them were seeded by the density predictor from the
	// steps before, StoreSeeds from a persisted prefix density,
	// ColdStarts from the SAD guess.
	Runs, WarmStarts, StoreSeeds, ColdStarts int64
	// PairListBuilds/PairListReuses count screening decisions; a build
	// replaces the builder, a reuse rebinds it in place. Screenings counts
	// the pair lists the session screened itself, ScreenWallNS their walls.
	PairListBuilds, PairListReuses, Screenings, ScreenWallNS int64
	// SCFIterations accumulates iterations over every SCF the session
	// ran: the machine-independent cost metric the respa session tests
	// gate on and the benchmark reports as scf_iters_per_step.
	SCFIterations int64
	// DisplacedRuns counted the finite-difference displacement SCFs of
	// a force evaluation. Forces are analytic now, so it stays 0; the
	// field remains for the readers of these stats.
	DisplacedRuns int64
	// Fallbacks counts seeded runs that failed or did not converge and
	// were retried cold.
	Fallbacks int64
	// FockBuilds counts the Fock builds the session's builders served,
	// HFXSums sums hfx.BuildSums over all of them, and HFX is the report
	// of the latest one.
	FockBuilds int64
	HFXSums    [len(hfx.BuildSums)]int64
	HFX        hfx.Report
	// PredictorOrder is the extrapolation order of the latest run's seed
	// (0 when it was not seeded from the trajectory's own history).
	PredictorOrder int
	// XCPasses counts the passes over the XC tables, one per SCF
	// iteration plus one per gradient. LivePoints of the latest
	// geometry's GridPoints carried any basis amplitude and are all those
	// passes touch.
	XCPasses               int64
	LivePoints, GridPoints int
}

// Session carries SCF state across the consecutive geometries of one
// trajectory: a density predictor over the last few converged steps, the
// screening pair list under a max-displacement invalidation bound, a
// persistent hfx.Builder rebound in place so the semi-direct cache's
// admission plan and slab memory survive from step to step, and the XC
// integrator with its tables.
//
// A seeded SCF converges to the same tolerance but not the same bits as
// a cold one, so session trajectories are not bitwise comparable to
// cold ones (SCFForces is the state-free evaluator to use where they
// must be) — the integrator's checkpoint/resume stays bitwise because
// forces are stored, not recomputed, across a restore.
//
// All methods are safe for concurrent use; evaluations are serialized
// internally (the shared builder admits one build at a time).
type Session struct {
	cfg scf.Config
	opt SessionOptions

	mu      sync.Mutex
	pred    predictor
	xc      dft.Integrator
	builder *hfx.Builder              // its Scr is the pair list, its Eng this step's engine
	refPos  []chem.Vec3               // geometry the pair list was built at
	served  [len(hfx.BuildSums)]int64 // the current builder's sums already in stats.HFXSums
	stats   SessionStats
}

// NewSession prepares a reuse session for one model chemistry. The
// config's Ctx (if any) is honoured by every SCF the session runs, so
// a server can cancel a trajectory mid-step. An unused cfg.ExternalBuilder
// serves its first pair list (runLocked); the session owns and closes it.
func NewSession(cfg scf.Config, opt SessionOptions) *Session {
	if cfg.Basis == "" {
		cfg.Basis = "STO-3G"
	}
	if cfg.Screen == (screen.Options{}) {
		cfg.Screen = screen.DefaultOptions()
	}
	if cfg.HFX == (hfx.Options{}) {
		cfg.HFX = hfx.DefaultOptions()
	}
	if opt.MaxDisplacement <= 0 {
		opt.MaxDisplacement = 0.25
	}
	s := &Session{cfg: cfg, opt: opt, builder: cfg.ExternalBuilder}
	if s.builder != nil {
		s.refPos = positionsOf(s.builder.Eng.Basis.Mol)
	}
	return s
}

// Close releases the persistent builder.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.builder != nil {
		s.builder.Close()
		s.builder = nil
	}
}

// Stats returns a snapshot of the reuse counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Run performs one SCF at the given geometry with every cross-step
// shortcut the session has banked: a seed extrapolated from the previous
// converged densities, pair-list reuse within the displacement bound, and
// in-place builder and integrator rebinding. A seeded run that fails or
// does not converge falls back to a cold one (unless the failure is a
// context cancellation, which propagates).
func (s *Session) Run(m *chem.Molecule) (*scf.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, _, err := s.runLocked(m, scfOnly)
	return res, err
}

// scfOnly is scf.Run in the shape of scf.RunForces.
func scfOnly(m *chem.Molecule, cfg scf.Config) (*scf.Result, []chem.Vec3, error) {
	res, err := scf.Run(m, cfg)
	return res, nil, err
}

// runLocked evaluates geometry m with solve (scfOnly or scf.RunForces)
// under the session's shortcuts.
func (s *Session) runLocked(m *chem.Molecule, solve func(*chem.Molecule, scf.Config) (*scf.Result, []chem.Vec3, error)) (*scf.Result, []chem.Vec3, error) {
	s.stats.Runs++
	// Screening-list reuse, guarded by composition identity with the
	// builder's bound molecule and the max-displacement invalidation bound.
	// A handed builder the first step may reuse is that step's pair-list
	// build instead, on its own engine if m is the geometry it is bound to.
	same := s.builder != nil && slices.EqualFunc(s.builder.Eng.Basis.Mol.Atoms, m.Atoms,
		func(a, b chem.Atom) bool { return a.El == b.El })
	reuse := same && screen.MaxDisplacement(s.refPos, m) <= s.opt.MaxDisplacement
	handed := reuse && s.stats.Runs == 1 // no step made a builder yet: it is cfg's
	var eng *integrals.Engine
	if handed && slices.Equal(s.builder.Eng.Basis.Mol.Atoms, m.Atoms) {
		eng = s.builder.Eng
	} else {
		set, err := basis.Build(s.cfg.Basis, m)
		if err != nil {
			return nil, nil, err
		}
		eng = integrals.NewEngine(set)
		reuse = reuse && s.builder.Rebind(eng) == nil
	}
	if !same {
		s.pred.clear()
	}
	pos := positionsOf(m)
	if !reuse {
		if s.builder != nil {
			s.builder.Close()
		}
		scr := screen.BuildPairList(eng, s.cfg.Screen)
		s.builder = hfx.NewBuilder(eng, scr, s.cfg.HFX)
		s.refPos = pos
		s.served = [len(hfx.BuildSums)]int64{}
		s.stats.Screenings++
		s.stats.ScreenWallNS += scr.Stats.Wall().Nanoseconds()
	}
	if reuse && !handed {
		s.stats.PairListReuses++
	} else {
		s.stats.PairListBuilds++
	}

	// eng is the builder's engine either way, so the predictor's S below is
	// the one the solver reads.
	cold := s.cfg
	cold.ExternalBuilder = s.builder
	cold.ExternalIntegrator = &s.xc
	run := cold
	overlap := eng.Overlap()
	run.InitialDensity, s.stats.PredictorOrder = s.pred.seed(overlap, pos)
	switch {
	case run.InitialDensity != nil:
		s.stats.WarmStarts++
	case s.opt.Store != nil:
		if run.InitialDensity, _ = scf.LoadSeed(s.opt.Store, s.cfg, m, eng.Basis.NBasis); run.InitialDensity != nil {
			s.stats.StoreSeeds++
			break
		}
		s.stats.ColdStarts++
	default:
		s.stats.ColdStarts++
	}

	res, f, err := s.solveCounted(solve, m, run)
	if (err != nil || !res.Converged) && run.InitialDensity != nil && (s.cfg.Ctx == nil || s.cfg.Ctx.Err() == nil) {
		// A stale seed must never fail the trajectory: retry cold on the
		// same builder (its cache blocks are already at this geometry),
		// and let the history that produced the seed go.
		s.stats.Fallbacks++
		s.pred.clear()
		res, f, err = s.solveCounted(solve, m, cold)
	}
	s.stats.XCPasses = s.xc.Passes()
	s.stats.LivePoints, s.stats.GridPoints = s.xc.Points()
	if err != nil || !res.Converged {
		s.pred.clear()
		return res, nil, err
	}
	s.pred.record(res.P, overlap, res.C, res.NOcc, pos)
	if s.opt.Store != nil {
		scf.SaveSeed(s.opt.Store, s.cfg, res)
	}
	return res, f, nil
}

// solveCounted runs one SCF and adds its iterations and the Fock builds
// it ran to the session's counters.
func (s *Session) solveCounted(solve func(*chem.Molecule, scf.Config) (*scf.Result, []chem.Vec3, error), m *chem.Molecule, cfg scf.Config) (*scf.Result, []chem.Vec3, error) {
	res, f, err := solve(m, cfg)
	if res == nil {
		return res, f, err
	}
	s.stats.SCFIterations += int64(res.Iterations)
	if res.HFXReport.Metrics == nil { // stopped before its first build
		return res, f, err
	}
	sums := res.HFXReport.Sums()
	for i := range sums {
		s.stats.HFXSums[i] += sums[i] - s.served[i]
	}
	s.served = sums
	s.stats.FockBuilds, s.stats.HFX = s.stats.HFXSums[0], res.HFXReport
	return res, f, err
}

// Forces evaluates the full surface at m — energy plus the analytic
// forces of the converged SCF (scf.RunForces) — as one warm-started SCF
// and one gradient build on the session's pair list and builder. This is
// the per-outer-step evaluation a RESPA trajectory makes. h and workers
// configured the finite-difference evaluation this replaced and are
// unused; an SCF that does not converge (after the cold retry of a seeded
// run) is an error, never a force.
func (s *Session) Forces(m *chem.Molecule, h float64, workers int) ([]chem.Vec3, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, f, err := s.runLocked(m, scf.RunForces)
	if err != nil {
		return nil, 0, notConverged(err)
	}
	return f, res.Energy, nil
}

// SCFForces adapts an scf.Config into a state-free full-surface evaluator:
// a cold SCF plus its analytic gradient, a pure function of the geometry.
// Trajectories that must reproduce bit for bit across a checkpoint/resume
// boundary or between processes use it instead of a Session, whose warm
// starts make every step depend on the ones before.
func SCFForces(cfg scf.Config) Surface {
	return func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		res, f, err := scf.RunForces(m, cfg)
		if err != nil {
			return 0, nil, notConverged(err)
		}
		return res.Energy, f, nil
	}
}

// notConverged rewords scf.ErrNotConverged as the error this package has
// always reported for an unconverged geometry; other errors pass through.
func notConverged(err error) error {
	if errors.Is(err, scf.ErrNotConverged) {
		return fmt.Errorf("md: SCF not converged at this geometry: %w", err)
	}
	return err
}

func positionsOf(m *chem.Molecule) []chem.Vec3 {
	pos := make([]chem.Vec3, m.NAtoms())
	for i, a := range m.Atoms {
		pos[i] = a.Pos
	}
	return pos
}

package server

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
)

// TrajStepJSON is one completed outer step of a trajectory job — the
// BuildSummary-style per-step progress record. The list is appended to
// as the campaign runs, and the step counters land in /metrics after
// every outer step, so a client polling the metrics surface watches a
// long campaign advance.
type TrajStepJSON struct {
	// Step is the inner-step index of this outer boundary (outer·k).
	Step int `json:"step"`
	// TimeFS is the simulated time.
	TimeFS float64 `json:"timeFs"`
	// Potential/Total are the full-surface potential and conserved
	// total energy in hartree.
	Potential float64 `json:"potential"`
	Total     float64 `json:"total"`
	TempK     float64 `json:"tempK"`
	// WallMS is the wall time this outer step took (inner steps
	// included).
	WallMS float64 `json:"wallMs"`
}

// TrajSummary is the result of a trajectory job: per-outer-step
// progress records plus the campaign-level diagnostics (per-atom
// energy drift, the bitwise final-state fingerprint, and the
// cross-step reuse counters that show what the session saved).
type TrajSummary struct {
	NAtoms     int     `json:"natoms"`
	OuterSteps int     `json:"outerSteps"`
	RespaK     int     `json:"respaK"`
	Ref        string  `json:"ref"`
	TimeFS     float64 `json:"timeFs"`
	// DriftPerAtom is the peak-to-peak conserved-energy variation per
	// atom over the campaign (hartree).
	DriftPerAtom   float64        `json:"driftPerAtom"`
	FinalPotential float64        `json:"finalPotential"`
	FinalTotal     float64        `json:"finalTotal"`
	FinalTempK     float64        `json:"finalTempK"`
	Steps          []TrajStepJSON `json:"steps"`
	// SCFIterations is the session total (one SCF per outer step, its
	// forces analytic); WarmStarts/PairListReuses/PairListBuilds expose
	// the cross-step density prediction and screening reuse the campaign
	// ran on.
	SCFIterations  int64 `json:"scfIterations"`
	WarmStarts     int64 `json:"warmStarts"`
	StoreSeeds     int64 `json:"storeSeeds,omitempty"`
	PairListBuilds int64 `json:"pairListBuilds"`
	PairListReuses int64 `json:"pairListReuses"`
	// Fallbacks counts seeded SCFs that failed and were rerun cold.
	Fallbacks int64 `json:"fallbacks,omitempty"`
	// FinalStateSha256 hashes the canonical encoding of the complete
	// restartable state (ckpt.EncodeState, version 2), the bitwise
	// identity of the campaign's end point.
	FinalStateSha256 string `json:"finalStateSha256,omitempty"`
}

// runTrajectory executes a RESPA AIMD campaign (kind trajectory): the
// cheap reference force every inner step, the full HFX-bearing surface
// every k-th, with an md.Session carrying the density predictor, the
// screening pair list, the builder and the XC integrator across
// consecutive geometries. The job context is threaded into every SCF
// (scf.Config.Ctx) and polled between inner steps, so cancellation lands
// between steps with a typed *md.StepError naming the step it struck.
func (s *Server) runTrajectory(j *job) *JobResult {
	req := &j.req
	cfg := s.scfConfig(req)
	cfg.Ctx = j.ctx
	sess := md.NewSession(cfg, md.SessionOptions{Store: s.store})
	defer sess.Close()

	fullEval := respa.Evaluator(func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		f, e, err := sess.Forces(m, 0, s.cfg.BuilderThreads)
		return e, f, err
	})

	cheap, refLabel, err := respa.BuildReference(req.Ref, j.prep.mol, cfg, 0, s.cfg.BuilderThreads)
	if err != nil {
		return &JobResult{State: StateFailed, Error: err.Error()}
	}

	sum := &TrajSummary{
		NAtoms:     j.prep.mol.NAtoms(),
		OuterSteps: req.MaxSteps,
		RespaK:     req.RespaK,
		Ref:        refLabel,
	}
	stepStart := time.Now()
	var published md.SessionStats
	opts := respa.Options{
		Steps:        req.MaxSteps,
		K:            req.RespaK,
		Dt:           req.DtFS,
		TemperatureK: req.TempK,
		Thermostat:   req.TempK > 0,
		Seed:         req.Seed,
		RefLabel:     refLabel,
		Ctx:          j.ctx,
		OnOuterStep: func(outer int, f md.Frame) {
			if outer == 0 {
				stepStart = time.Now()
				return // initial state, not a completed step
			}
			now := time.Now()
			sum.Steps = append(sum.Steps, TrajStepJSON{
				Step:      f.Step,
				TimeFS:    f.TimeFS,
				Potential: f.Potential,
				Total:     f.Total,
				TempK:     f.TempK,
				WallMS:    float64(now.Sub(stepStart)) / float64(time.Millisecond),
			})
			stepStart = now
			s.reg.Counter("traj.outer_steps").Add(1)
			s.reg.Gauge("traj.last_step").Set(int64(f.Step))
			st := sess.Stats()
			s.publishSession(st, published)
			published = st
		},
	}
	traj, err := respa.Run(j.prep.mol, fullEval, cheap, opts)
	fillTrajSummary(sum, traj, sess.Stats())
	if err != nil {
		state := StateFailed
		if j.ctx.Err() != nil {
			state = StateCancelled
		}
		return &JobResult{State: state, Error: err.Error(), Traj: sum}
	}
	return &JobResult{State: StateDone, Traj: sum}
}

// predictorOrderEdges buckets the density predictor's order, 0 (no
// history) to 6, one bucket each.
var predictorOrderEdges = []float64{0, 1, 2, 3, 4, 5, 6}

// publishSession adds the session counters' movement since prev to the
// metrics surface — the one publish path of trajectory and scan jobs: the
// Fock builds the session's builders served and their latest report
// (mergeReport), cold fallbacks and XC table passes as counters (per step
// against traj.outer_steps), the step's predictor order as a histogram,
// and the live share of the latest XC grid as gauges.
func (s *Server) publishSession(st, prev md.SessionStats) {
	if st.FockBuilds > prev.FockBuilds {
		s.mergeReport(st.HFX, st.FockBuilds-prev.FockBuilds)
	}
	s.reg.Counter("md.session_fallbacks").Add(st.Fallbacks - prev.Fallbacks)
	s.reg.Counter("md.xc_passes").Add(st.XCPasses - prev.XCPasses)
	s.reg.Histogram("md.predictor_order", predictorOrderEdges).Observe(float64(st.PredictorOrder))
	s.reg.Gauge("dft.live_points").Set(int64(st.LivePoints))
	s.reg.Gauge("dft.grid_points").Set(int64(st.GridPoints))
}

// fillTrajSummary folds the trajectory result and session counters into
// the wire summary (also on the error path, so a cancelled campaign
// reports the steps it completed).
func fillTrajSummary(sum *TrajSummary, traj *md.Trajectory, st md.SessionStats) {
	sum.SCFIterations = st.SCFIterations
	sum.WarmStarts = st.WarmStarts
	sum.StoreSeeds = st.StoreSeeds
	sum.PairListBuilds = st.PairListBuilds
	sum.PairListReuses = st.PairListReuses
	sum.Fallbacks = st.Fallbacks
	if traj == nil {
		return
	}
	sum.DriftPerAtom = traj.EnergyDrift()
	if n := len(traj.Frames); n > 0 {
		last := traj.Frames[n-1]
		sum.TimeFS = last.TimeFS
		sum.FinalPotential = last.Potential
		sum.FinalTotal = last.Total
		sum.FinalTempK = last.TempK
	}
	if traj.Final != nil {
		h := sha256.Sum256(ckpt.EncodeState(traj.Final))
		sum.FinalStateSha256 = hex.EncodeToString(h[:])
	}
}

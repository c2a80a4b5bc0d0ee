package server

import (
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
)

// runTrajectory executes a RESPA AIMD campaign (kind trajectory) with
// respa.Campaign on an md.Session, which carries the density predictor,
// the screening pair list, the builder and the XC integrator across
// consecutive geometries, from a builder on admission's pair list and
// priced tasks that it owns. Every completed outer step advances traj.* and
// publishes the session's counters. The job context is threaded into
// every SCF (scf.Config.Ctx) and polled between inner steps, so
// cancellation lands between steps with a typed *md.StepError naming the
// step it struck.
func (s *Server) runTrajectory(j *job) *JobResult {
	req := &j.req
	cfg := s.scfConfig(req)
	cfg.Ctx = j.ctx
	cfg.ExternalBuilder, _ = j.prep.builder(1) // one rank cannot fail; the session owns it
	sess := md.NewSession(cfg, md.SessionOptions{Store: s.store})
	defer sess.Close()
	var published md.SessionStats
	sum, _, err := respa.Campaign(j.req.mol, cfg, sess, respa.Options{
		Steps:        req.MaxSteps,
		K:            req.RespaK,
		Dt:           req.DtFS,
		TemperatureK: req.TempK,
		Thermostat:   req.TempK > 0,
		Seed:         req.Seed,
		Ctx:          j.ctx,
	}, func(step respa.Step, st md.SessionStats) {
		s.reg.Counter("traj.outer_steps").Add(1)
		s.reg.Gauge("traj.last_step").Set(int64(step.Step))
		s.publishSession(st, published)
		published = st
	})
	res := j.outcome(err)
	res.Traj = sum
	return res
}

// predictorOrderEdges buckets the density predictor's order, 0 (no
// history) to 6, one bucket each.
var predictorOrderEdges = []float64{0, 1, 2, 3, 4, 5, 6}

// publishSession adds the session counters' movement since prev to the
// metrics surface — the one publish path of trajectory and scan jobs: the
// Fock builds the session's builders served since prev (mergeReport), the
// pair lists it screened, cold fallbacks and XC table passes as counters
// (per step against traj.outer_steps), the step's predictor order as a
// histogram, and the live share of the latest XC grid as gauges.
func (s *Server) publishSession(st, prev md.SessionStats) {
	if st.FockBuilds > prev.FockBuilds {
		s.mergeReport(st.HFX, st.HFXSums, prev.HFXSums)
	}
	s.reg.Counter("hfx.pair_lists").Add(st.Screenings - prev.Screenings)
	s.reg.Counter("hfx.screen_wall_ns").Add(st.ScreenWallNS - prev.ScreenWallNS)
	s.reg.Counter("md.session_fallbacks").Add(st.Fallbacks - prev.Fallbacks)
	s.reg.Counter("md.xc_passes").Add(st.XCPasses - prev.XCPasses)
	s.reg.Histogram("md.predictor_order", predictorOrderEdges).Observe(float64(st.PredictorOrder))
	s.reg.Gauge("dft.live_points").Set(int64(st.LivePoints))
	s.reg.Gauge("dft.grid_points").Set(int64(st.GridPoints))
}

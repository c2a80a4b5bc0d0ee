package respa

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
)

// Step is one completed outer step of a campaign, recorded as the
// campaign runs.
type Step struct {
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
	// SCFIterations is what the full-surface SCFs spent on this step.
	SCFIterations int64 `json:"scfIterations"`
}

// Summary is the result of a campaign: the per-outer-step records plus
// the campaign-level diagnostics (per-atom energy drift, the bitwise
// final-state fingerprint, and the cross-step reuse counters that show
// what the session saved). It is hfxd's trajectory payload and
// cmd/aimd's -json output.
type Summary struct {
	NAtoms     int     `json:"natoms"`
	OuterSteps int     `json:"outerSteps"`
	RespaK     int     `json:"respaK"`
	Ref        string  `json:"ref"`
	TimeFS     float64 `json:"timeFs"`
	// DriftPerAtom is the peak-to-peak conserved-energy variation per
	// atom over the campaign (hartree).
	DriftPerAtom   float64 `json:"driftPerAtom"`
	FinalPotential float64 `json:"finalPotential"`
	FinalTotal     float64 `json:"finalTotal"`
	FinalTempK     float64 `json:"finalTempK"`
	Steps          []Step  `json:"steps"`
	// SCFIterations is the campaign's total (one SCF per full-surface
	// evaluation, the starting one included); WarmStarts/PairListReuses/
	// PairListBuilds expose the cross-step density prediction and
	// screening reuse the campaign ran on, and are 0 without a session.
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

// Campaign runs a RESPA AIMD campaign from mol on the spring reference
// (opts.RefLabel is set to it). The full surface is sess.Forces — the
// warm-started evaluator — or, with a nil sess, a cold SCF plus its
// analytic gradient per call (md.SCFForces' arithmetic), which keeps a
// checkpoint resume bitwise and whose SCF iterations the campaign counts
// itself. The caller's OnOuterStep still sees every frame; Campaign
// records one Step per completed outer step and hands it to progress, if
// non-nil, with the counters after it (the session's, or without one
// the cold SCFs' iterations). The first frame (step 0, or the frame Run
// re-emits when it resumes on an outer boundary) is no step. The summary
// is filled on the error path too, so a failed or cancelled campaign
// reports the steps it completed.
func Campaign(mol *chem.Molecule, cfg scf.Config, sess *md.Session, opts Options, progress func(Step, md.SessionStats)) (*Summary, *md.Trajectory, error) {
	var cold md.SessionStats
	full := func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		res, f, err := scf.RunForces(m, cfg)
		if res != nil {
			cold.SCFIterations += int64(res.Iterations)
		}
		if err != nil {
			return 0, nil, err
		}
		return res.Energy, f, nil
	}
	stats := func() md.SessionStats { return cold }
	if sess != nil {
		full = func(m *chem.Molecule) (float64, []chem.Vec3, error) {
			f, e, err := sess.Forces(m, 0, 0)
			return e, f, err
		}
		stats = sess.Stats
	}
	opts.RefLabel = RefSpring
	sum := &Summary{NAtoms: mol.NAtoms(), OuterSteps: opts.Steps, RespaK: max(opts.K, 1), Ref: RefSpring}
	first := 0
	if opts.Resume != nil {
		first = int(opts.Resume.Step)
	}
	onOuter := opts.OnOuterStep
	stepStart, iters := time.Now(), stats().SCFIterations
	opts.OnOuterStep = func(outer int, f md.Frame) {
		if onOuter != nil {
			onOuter(outer, f)
		}
		now, st := time.Now(), stats()
		if f.Step != first {
			step := Step{
				Step: f.Step, TimeFS: f.TimeFS, Potential: f.Potential, Total: f.Total, TempK: f.TempK,
				WallMS:        float64(now.Sub(stepStart)) / float64(time.Millisecond),
				SCFIterations: st.SCFIterations - iters,
			}
			sum.Steps = append(sum.Steps, step)
			if progress != nil {
				progress(step, st)
			}
		}
		stepStart, iters = now, st.SCFIterations
	}
	traj, err := Run(mol, full, SpringReference(mol, 0, 0), opts)
	sum.fill(traj, stats())
	return sum, traj, err
}

// fill folds the trajectory and the session counters into the summary.
func (s *Summary) fill(traj *md.Trajectory, st md.SessionStats) {
	s.SCFIterations = st.SCFIterations
	s.WarmStarts = st.WarmStarts
	s.StoreSeeds = st.StoreSeeds
	s.PairListBuilds = st.PairListBuilds
	s.PairListReuses = st.PairListReuses
	s.Fallbacks = st.Fallbacks
	if traj == nil {
		return
	}
	s.DriftPerAtom = traj.EnergyDrift()
	if n := len(traj.Frames); n > 0 {
		last := traj.Frames[n-1]
		s.TimeFS = last.TimeFS
		s.FinalPotential = last.Potential
		s.FinalTotal = last.Total
		s.FinalTempK = last.TempK
	}
	if traj.Final != nil {
		h := sha256.Sum256(ckpt.EncodeState(traj.Final))
		s.FinalStateSha256 = hex.EncodeToString(h[:])
	}
}

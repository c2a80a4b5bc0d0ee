package bgq

import (
	"fmt"
	"time"
)

// MDCampaign describes a Born–Oppenheimer MD production run: every MD
// step performs SCFItersPerStep self-consistency cycles, each dominated
// by one HFX build of the given workload. This is the paper's motivating
// scenario — hybrid-functional (PBE0) dynamics of Li/air electrolytes —
// where the question is whether a *single MD step* fits in a useful wall
// clock at all.
type MDCampaign struct {
	// Steps is the number of MD steps in the trajectory.
	Steps int
	// TimestepFS is the MD timestep in femtoseconds (reporting only).
	TimestepFS float64
	// SCFItersPerStep is the SCF cycles per step; with a good
	// extrapolated guess this is small (4–8).
	SCFItersPerStep int
	// Workload is the per-build HFX work.
	Workload *Workload
}

// CampaignResult summarises a simulated campaign.
type CampaignResult struct {
	// PerBuild is the simulated wall time of one HFX build.
	PerBuild float64
	// PerStep is the wall time of one MD step (SCF iterations × build).
	PerStep float64
	// Total is the trajectory wall time in seconds.
	Total float64
	// SimulatedPS is the physical time covered, in picoseconds.
	SimulatedPS float64
	// Threads echoes the partition size.
	Threads int
}

// String renders the feasibility verdict.
func (r CampaignResult) String() string {
	return fmt.Sprintf("%.3fs/step, %.1f ps in %v on %d threads",
		r.PerStep, r.SimulatedPS, time.Duration(r.Total*float64(time.Second)).Round(time.Minute), r.Threads)
}

// SimulateCampaign evaluates the trajectory cost on this machine.
func (m *Machine) SimulateCampaign(c MDCampaign, opts SimOptions) CampaignResult {
	if c.Steps <= 0 {
		c.Steps = 1
	}
	if c.SCFItersPerStep <= 0 {
		c.SCFItersPerStep = 6
	}
	if c.TimestepFS <= 0 {
		c.TimestepFS = 0.5
	}
	build := m.Simulate(c.Workload, opts).Total
	perStep := build * float64(c.SCFItersPerStep)
	return CampaignResult{
		PerBuild:    build,
		PerStep:     perStep,
		Total:       perStep * float64(c.Steps),
		SimulatedPS: float64(c.Steps) * c.TimestepFS / 1000,
		Threads:     m.Threads(),
	}
}

// FeasibilityTable computes the time-per-MD-step across rack counts — the
// "can we run PBE0 dynamics at all" table that motivates the paper.
func FeasibilityTable(c MDCampaign, racks []int, opts SimOptions) ([]CampaignResult, error) {
	out := make([]CampaignResult, 0, len(racks))
	for _, r := range racks {
		m, err := New(r)
		if err != nil {
			return nil, err
		}
		out = append(out, m.SimulateCampaign(c, opts))
	}
	return out, nil
}

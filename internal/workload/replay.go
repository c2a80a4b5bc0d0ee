package workload

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"hfxmd/internal/fleet"
	"hfxmd/internal/server"
)

// ClassReport aggregates one SLO class.
type ClassReport struct {
	Count     int `json:"count"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Errors    int `json:"errors"` // submissions that never produced a result
	CacheHits int `json:"cacheHits"`
}

// InstanceReport is one instance's share of a run.
type InstanceReport struct {
	Routed      int64   `json:"routed"`
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	HitRatio    float64 `json:"hitRatio"`
}

// Report summarises one trace replay against a fleet.
type Report struct {
	Policy string `json:"policy"`
	Events int    `json:"events"`
	// Classes maps SLO class -> aggregate; ClassOrder preserves
	// first-seen trace order for stable rendering.
	Classes    map[string]*ClassReport `json:"classes"`
	ClassOrder []string                `json:"classOrder"`
	Instances  []InstanceReport        `json:"instances"`
	// Rejected429 and RetrySweeps are the router's backpressure
	// counters for the run.
	Rejected429 int64 `json:"rejected429"`
	RetrySweeps int64 `json:"retrySweeps"`
	// Digest folds (seq, class, instance, hit, state, payload signature)
	// over the whole run: serial replays of the same trace through the
	// same policy must agree on it exactly. SigDigest folds only
	// (seq, state, payload signature) — routing-independent — so it must
	// agree across *policies* too: the proof that routing never changes
	// answers.
	Digest    string `json:"digest"`
	SigDigest string `json:"sigDigest"`
}

// resultSignature fingerprints the numerical payload of a result:
// math.Float64bits of every physics number, so two results agree iff
// they are bitwise identical. Timing fields (QueueMS, RunMS) and IDs
// are deliberately excluded — they vary run to run; the physics must
// not.
func resultSignature(res *server.JobResult) uint64 {
	h := fnv.New64a()
	w64 := func(u uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	wi := func(i int64) { w64(uint64(i)) }
	h.Write([]byte(res.State))
	h.Write([]byte(res.CacheKey))
	switch {
	case res.SCF != nil:
		s := res.SCF
		wf(s.Energy)
		wf(s.EOne)
		wf(s.ECoulomb)
		wf(s.EExchangeHF)
		wf(s.EXC)
		wf(s.ENuclear)
		wi(int64(s.Iterations))
		for _, d := range s.Dipole {
			wf(d)
		}
		for _, q := range s.Mulliken {
			wf(q)
		}
	case res.Build != nil:
		b := res.Build
		wi(int64(b.NBasis))
		wi(b.QuartetsComputed)
		wi(b.QuartetsScreened)
		wf(b.JNorm)
		wf(b.KNorm)
		wf(b.ExchangeEnergy)
	case res.Screen != nil:
		s := res.Screen
		wi(int64(s.TotalPairs))
		wi(int64(s.DistanceSurvived))
		wi(int64(s.SchwarzSurvived))
		wi(int64(s.NTasks))
		wf(s.TotalCostNS)
	case res.Scan != nil:
		for _, p := range res.Scan.Points {
			wf(p.R)
			wf(p.Energy)
		}
		wf(res.Scan.WellKcal)
	case res.Traj != nil:
		t := res.Traj
		wi(int64(t.NAtoms))
		wi(int64(t.OuterSteps))
		wi(int64(t.RespaK))
		h.Write([]byte(t.Ref))
		for _, p := range t.Steps {
			wi(int64(p.Step))
			wf(p.Potential)
			wf(p.Total)
		}
		wf(t.DriftPerAtom)
		// The final restartable state, bit for bit (WallMS and the reuse
		// counters are deliberately excluded — timing and cache state vary).
		h.Write([]byte(t.FinalStateSha256))
	}
	return h.Sum64()
}

// RunSerial replays a trace against the fleet one event at a time, in
// trace order, ignoring arrival times. With exactly one job in flight
// the routing decision, cache behaviour and result of every event are
// functions of the trace alone, so two serial replays of the same trace
// agree event for event — counts, per-instance routing, digest — and
// the routing-independent signature digest agrees across policies.
func RunSerial(ctx context.Context, c *fleet.Cluster, tr *Trace) (*Report, error) {
	rep := newReport(c, tr)
	digest := fnv.New64a()
	sigDigest := fnv.New64a()
	for i := range tr.Events {
		ev := &tr.Events[i]
		cr := rep.Classes[ev.Class]
		cr.Count++
		res, inst, err := c.Submit(ctx, ev.Request)
		var sig uint64
		state := "error"
		hit := false
		if err == nil {
			state = res.State
			hit = res.CacheHit
			sig = resultSignature(res)
			switch res.State {
			case server.StateDone:
				cr.Done++
			default:
				cr.Failed++
			}
			if res.CacheHit {
				cr.CacheHits++
			}
		} else {
			cr.Errors++
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		fmt.Fprintf(digest, "%d|%s|%d|%v|%s|%016x\n", ev.Seq, ev.Class, inst, hit, state, sig)
		fmt.Fprintf(sigDigest, "%d|%s|%016x\n", ev.Seq, state, sig)
	}
	rep.finish(c)
	rep.Digest = fmt.Sprintf("%016x", digest.Sum64())
	rep.SigDigest = fmt.Sprintf("%016x", sigDigest.Sum64())
	return rep, nil
}

func newReport(c *fleet.Cluster, tr *Trace) *Report {
	rep := &Report{
		Policy:     c.Policy().String(),
		Events:     len(tr.Events),
		Classes:    map[string]*ClassReport{},
		ClassOrder: tr.Classes(),
	}
	for _, cl := range rep.ClassOrder {
		rep.Classes[cl] = &ClassReport{}
	}
	return rep
}

// finish folds the fleet's state into the report: per-instance routing
// and cache counters, backpressure totals.
func (rep *Report) finish(c *fleet.Cluster) {
	reg := c.Registry()
	for i, inst := range c.Instances() {
		m := inst.Srv.Metrics()
		ir := InstanceReport{
			Routed:      reg.Counter(fmt.Sprintf("fleet.inst%d.routed", i)).Value(),
			CacheHits:   m.Counter("cache.hits").Value(),
			CacheMisses: m.Counter("cache.misses").Value(),
		}
		if t := ir.CacheHits + ir.CacheMisses; t > 0 {
			ir.HitRatio = float64(ir.CacheHits) / float64(t)
		}
		rep.Instances = append(rep.Instances, ir)
	}
	rep.Rejected429 = reg.Counter("fleet.rejected_busy").Value()
	rep.RetrySweeps = reg.Counter("fleet.retry_sweeps").Value()
}

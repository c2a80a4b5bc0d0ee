package server

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func trajReq() JobRequest {
	return JobRequest{Kind: KindTrajectory, System: "h2", MaxSteps: 3, RespaK: 2, Ref: "spring"}
}

func TestServerTrajectoryJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	res := submit(t, ts, trajReq())
	if res.State != StateDone || res.CacheHit {
		t.Fatalf("first run: state %q (err %q)", res.State, res.Error)
	}
	tr := res.Traj
	if tr == nil {
		t.Fatal("done trajectory job must carry a Traj payload")
	}
	if tr.OuterSteps != 3 || tr.RespaK != 2 || tr.Ref != "spring" || tr.NAtoms != 2 {
		t.Fatalf("campaign header wrong: %+v", tr)
	}
	if len(tr.Steps) != 3 {
		t.Fatalf("want 3 streamed outer-step records, got %d", len(tr.Steps))
	}
	for i, st := range tr.Steps {
		if st.Step != (i+1)*2 {
			t.Fatalf("step record %d at inner step %d, want %d (outer boundaries)", i, st.Step, (i+1)*2)
		}
	}
	if tr.FinalStateSha256 == "" {
		t.Fatal("campaign must fingerprint its final restartable state")
	}
	if tr.SCFIterations == 0 || tr.PairListBuilds == 0 {
		t.Fatalf("session counters missing: %+v", tr)
	}
	if tr.WarmStarts == 0 {
		t.Fatalf("consecutive outer steps should warm-start from the previous density: %+v", tr)
	}
	if got := counter(s, "traj.outer_steps"); got != 3 {
		t.Fatalf("traj.outer_steps = %d, want 3", got)
	}

	// The repeat is answered from the result cache with the same bits.
	res2 := submit(t, ts, trajReq())
	if !res2.CacheHit || res2.Traj == nil || res2.Traj.FinalStateSha256 != tr.FinalStateSha256 {
		t.Fatalf("repeat must be a cache hit with the stored payload: %+v", res2)
	}
}

// TestServerTrajectorySessionMetrics: a PBE0 campaign publishes the session's
// trajectory-state counters — cold fallbacks, XC table passes, the predictor
// order of every outer step, the live share of the XC grid.
func TestServerTrajectorySessionMetrics(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	req := JobRequest{Kind: KindTrajectory, System: "lih", Functional: "PBE0", MaxSteps: 4, RespaK: 2, Ref: "spring"}
	res := submit(t, ts, req)
	if res.State != StateDone || res.Traj == nil || res.Traj.Fallbacks != 0 {
		t.Fatalf("state %q (err %q), traj %+v", res.State, res.Error, res.Traj)
	}
	if got := counter(s, "md.session_fallbacks"); got != 0 {
		t.Fatalf("md.session_fallbacks = %d", got)
	}
	// One Integrate per SCF iteration and one Gradient per evaluation.
	if got, want := counter(s, "md.xc_passes"), res.Traj.SCFIterations+5; got != want {
		t.Fatalf("md.xc_passes = %d, want %d", got, want)
	}
	reg := s.Metrics()
	orders := reg.Histogram("md.predictor_order", predictorOrderEdges)
	if counts := orders.Counts(); orders.Total() != 4 || counts[0] != 0 || counts[4] != 1 {
		t.Fatalf("md.predictor_order buckets %v: want four seeded steps reaching order 4", counts)
	}
	live, total := reg.Gauge("dft.live_points").Value(), reg.Gauge("dft.grid_points").Value()
	if live <= 0 || live >= total {
		t.Fatalf("dft.live_points %d of dft.grid_points %d", live, total)
	}
}

func TestServerTrajectoryValidation(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	for _, mut := range []func(*JobRequest){
		func(r *JobRequest) { r.MaxSteps = maxTrajectorySteps + 1 },
		func(r *JobRequest) { r.RespaK = maxTrajectoryK + 1 },
		func(r *JobRequest) { r.Ref = "magic" },
		func(r *JobRequest) { r.DtFS = -1 },
	} {
		req := trajReq()
		mut(&req)
		if _, err := NewClient(ts.URL).Submit(context.Background(), req); err == nil {
			t.Fatalf("invalid request %+v must be rejected", req)
		}
	}
}

// TestServerTrajectoryCancelNamesStep: a deadline mid-campaign must
// surface as a cancelled job whose error identifies the MD step the
// trajectory stopped at (the typed *md.StepError's text).
func TestServerTrajectoryCancelNamesStep(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// (H2O)2 at one SCF plus one gradient per outer step runs some 60 ms
	// a step: the full campaign outlasts the deadline more than tenfold.
	req := JobRequest{Kind: KindTrajectory, System: "watercluster", NWater: 2,
		MaxSteps: maxTrajectorySteps, RespaK: 2, Ref: "spring", TimeoutMS: 300}
	res := submit(t, ts, req)
	if res.State != StateCancelled {
		t.Fatalf("state %q, want cancelled (err %q)", res.State, res.Error)
	}
	if !strings.Contains(res.Error, "step") {
		t.Fatalf("cancellation error should name the step: %q", res.Error)
	}
	if res.Traj == nil {
		t.Fatal("cancelled campaign should still report the steps it completed")
	}
}

// TestServerTrajectoryJournalReplay: a trajectory job journaled as
// outstanding by a crashed server is re-executed on the next boot (the
// journal stores the full request, so the new kind needs no special
// replay support — this pins that).
func TestServerTrajectoryJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jl, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := trajReq()
	req.normalize()
	if _, err := jl.submit("job-000001", &req); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{Workers: 1, JournalPath: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	deadline := time.Now().Add(30 * time.Second)
	for counter(s, "jobs.done") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("replayed trajectory job never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := counter(s, "journal.replayed"); got != 1 {
		t.Fatalf("journal.replayed = %d, want 1", got)
	}
	// The replayed execution filled the cache: a fresh submit hits.
	hit := submit(t, ts, trajReq())
	if !hit.CacheHit || hit.Traj == nil {
		t.Fatalf("resubmit after replay must be a cache hit: %+v", hit)
	}
}

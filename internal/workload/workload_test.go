package workload

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hfxmd/internal/fleet"
	"hfxmd/internal/server"
)

func specFixture(seed uint64) Spec {
	return Spec{
		Name:    "test",
		Seed:    seed,
		Clients: 4,
		Mix: []MixEntry{
			{Name: "probe", Class: "interactive", Weight: 3,
				Request: server.JobRequest{Kind: server.KindScreen, System: "h2"}, KeyPool: 2},
			{Name: "fock", Class: "batch", Weight: 1,
				Request: server.JobRequest{Kind: server.KindBuildJK, System: "he"}},
		},
		Phases: []PhaseSpec{
			{Events: 8, RateHz: 50},
			{Events: 4, RateHz: 400, GammaShape: 0.5}, // burst
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(specFixture(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(specFixture(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different traces")
	}
	c, err := Generate(specFixture(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds generated identical traces")
	}
	if len(a.Events) != 12 {
		t.Fatalf("got %d events, want 12", len(a.Events))
	}
	for i, ev := range a.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 && ev.AtNS < a.Events[i-1].AtNS {
			t.Fatalf("arrival times not monotone at %d", i)
		}
		if ev.Client < 0 || ev.Client >= 4 {
			t.Fatalf("event %d client %d out of range", i, ev.Client)
		}
	}
	if got := a.Classes(); !reflect.DeepEqual(got, []string{"interactive", "batch"}) &&
		!reflect.DeepEqual(got, []string{"batch", "interactive"}) {
		t.Fatalf("classes = %v", got)
	}
}

// TestGenerateArrivalStatistics checks the arrival processes against
// their specs on a long trace: mean inter-arrival ≈ 1/rate for every
// shape, and the Gamma(0.25) phase visibly burstier (higher coefficient
// of variation) than the Poisson one.
func TestGenerateArrivalStatistics(t *testing.T) {
	const n = 4000
	stats := func(shape float64) (mean, cv float64) {
		tr, err := Generate(Spec{
			Seed:    42,
			Clients: 1,
			Mix:     []MixEntry{{Name: "m", Weight: 1, Request: server.JobRequest{Kind: server.KindScreen, System: "h2"}}},
			Phases:  []PhaseSpec{{Events: n, RateHz: 10, GammaShape: shape}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var prev int64
		var deltas []float64
		for _, ev := range tr.Events {
			deltas = append(deltas, float64(ev.AtNS-prev)/1e9)
			prev = ev.AtNS
		}
		var sum float64
		for _, d := range deltas {
			sum += d
		}
		mean = sum / float64(len(deltas))
		var sq float64
		for _, d := range deltas {
			sq += (d - mean) * (d - mean)
		}
		return mean, math.Sqrt(sq/float64(len(deltas))) / mean
	}
	meanP, cvP := stats(1)
	meanB, cvB := stats(0.25)
	if math.Abs(meanP-0.1) > 0.01 || math.Abs(meanB-0.1) > 0.015 {
		t.Fatalf("mean inter-arrival off spec: poisson %.4f, bursty %.4f, want ~0.1", meanP, meanB)
	}
	// Poisson has CV 1; Gamma(0.25) has CV 2.
	if cvP > 1.2 || cvB < 1.5 {
		t.Fatalf("burstiness not shaped: cv(poisson)=%.2f cv(gamma 0.25)=%.2f", cvP, cvB)
	}
}

func TestGenerateKeyPoolFansOutKeys(t *testing.T) {
	tr, err := Generate(Spec{
		Seed:    3,
		Clients: 1,
		Mix: []MixEntry{{Name: "m", Weight: 1, KeyPool: 3,
			Request: server.JobRequest{Kind: server.KindScreen, System: "h2"}}},
		Phases: []PhaseSpec{{Events: 60, RateHz: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, ev := range tr.Events {
		key, err := server.CanonicalKey(ev.Request)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	if len(keys) != 3 {
		t.Fatalf("key pool of 3 produced %d distinct canonical keys", len(keys))
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	tr, err := Generate(specFixture(11))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("trace did not survive the JSON round trip")
	}
}

func TestDecodeTraceRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"no clients":       `{"spec":{"clients":0},"events":[]}`,
		"negative client":  `{"spec":{"clients":2},"events":[{"seq":0,"client":-1}]}`,
		"client too large": `{"spec":{"clients":2},"events":[{"seq":0,"client":2}]}`,
		"seq not index":    `{"spec":{"clients":1},"events":[{"seq":1}]}`,
		"negative arrival": `{"spec":{"clients":1},"events":[{"seq":0,"atNs":-1}]}`,
		"arrivals go back": `{"spec":{"clients":1},"events":[{"seq":0,"atNs":5},{"seq":1,"atNs":4}]}`,
		"not json":         `{"spec":`,
	}
	for name, b := range bad {
		if _, err := DecodeTrace([]byte(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Phases: []PhaseSpec{{Events: 1, RateHz: 1}}}, // no mix
		{Mix: []MixEntry{{Name: "m", Weight: 1}}},     // no phases
		{Mix: []MixEntry{{Name: "m", Weight: 0}}, Phases: []PhaseSpec{{Events: 1, RateHz: 1}}},
		{Mix: []MixEntry{{Name: "m", Weight: 1}}, Phases: []PhaseSpec{{Events: 1, RateHz: 0}}},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func newTestCluster(t testing.TB, policy fleet.Policy, instances int) *fleet.Cluster {
	t.Helper()
	c, err := fleet.New(fleet.Options{
		Instances: instances, Policy: policy,
		Server: server.Config{Workers: 1, QueueCap: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c
}

// TestSerialReplayDeterministic is the seeded-replay acceptance
// criterion: the same trace through two fresh fleets under the same
// policy produces identical per-class counts and an identical digest.
func TestSerialReplayDeterministic(t *testing.T) {
	tr, err := Generate(specFixture(21))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		c := newTestCluster(t, fleet.CacheAffinity, 2)
		rep, err := RunSerial(context.Background(), c, tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("digests diverged: %s vs %s", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Fatalf("class reports diverged:\n  %+v\n  %+v", a.Classes, b.Classes)
	}
	if !reflect.DeepEqual(a.Instances, b.Instances) {
		t.Fatalf("instance reports diverged:\n  %+v\n  %+v", a.Instances, b.Instances)
	}
	var total int
	for _, cr := range a.Classes {
		total += cr.Count
		if cr.Errors != 0 || cr.Failed != 0 {
			t.Fatalf("replay had failures: %+v", cr)
		}
	}
	if total != len(tr.Events) {
		t.Fatalf("classes account for %d of %d events", total, len(tr.Events))
	}
}

// TestSerialReplaySignaturesMatchAcrossPolicies replays one trace
// through every routing policy: the routing-independent signature
// digest must agree — routing moves jobs, never answers.
func TestSerialReplaySignaturesMatchAcrossPolicies(t *testing.T) {
	tr, err := Generate(specFixture(33))
	if err != nil {
		t.Fatal(err)
	}
	var ref string
	for _, p := range fleet.Policies() {
		c := newTestCluster(t, p, 2)
		rep, err := RunSerial(context.Background(), c, tr)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if ref == "" {
			ref = rep.SigDigest
			continue
		}
		if rep.SigDigest != ref {
			t.Fatalf("%v produced different results: sig %s, want %s", p, rep.SigDigest, ref)
		}
	}
}

// FuzzDecodeTrace feeds arbitrary bytes to the trace decoder. Every
// accepted trace must survive a JSON round trip unchanged and replay
// through RunSerial on a one-instance fleet without panicking. The
// replay keeps each event's sequence, client, class and arrival but
// submits one cheap screening job for all of them: what a job request
// may cost is the server's to bound, not the trace decoder's.
func FuzzDecodeTrace(f *testing.F) {
	f.Add([]byte(`{"spec":{"clients":-1},"events":[]}`))
	f.Add([]byte(`{"spec":{"clients":1},"events":[{"seq":0,"client":-1,"class":"c",` +
		`"request":{"kind":"screen","system":"h2"}}]}`))
	gen, err := Generate(specFixture(13))
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(gen)
	if err != nil {
		f.Fatal(err)
	}
	if got, err := DecodeTrace(b); err != nil || !reflect.DeepEqual(got, gen) {
		f.Fatalf("generated trace did not round-trip: %v", err)
	}
	f.Add(b)

	c := newTestCluster(f, fleet.CacheAffinity, 1)
	probe := server.JobRequest{Kind: server.KindScreen, System: "h2"}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := DecodeTrace(b)
		if err != nil {
			return
		}
		enc, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeTrace(enc); err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("accepted trace did not round-trip: %v", err)
		}
		for i := range tr.Events {
			tr.Events[i].Request = probe
		}
		if _, err := RunSerial(context.Background(), c, tr); err != nil {
			t.Fatal(err)
		}
	})
}

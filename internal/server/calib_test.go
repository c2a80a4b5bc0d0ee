package server

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hfxmd/internal/steal"
)

// pClasses are the angular-momentum classes with at least one p shell in
// the bra pair (class = La<<4 | Lb); water's cost is dominated by them,
// while a hydrogen chain is pure class 0.
var pClasses = []int{0x01, 0x10, 0x11}

// hChainXYZ builds an n-atom hydrogen chain: a system whose every task
// is class 0 (s-s bra), so per-class calibration of the p classes leaves
// its price untouched.
func hChainXYZ(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d\nhydrogen chain\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "H %.3f 0.0 0.0\n", float64(i)*0.9)
	}
	return sb.String()
}

// TestPriceRequestCalibratedScalesByClassFactors pins the pricing seam:
// per-class factors rescale exactly the classes they name. Water (p-
// heavy) gets much more expensive under inflated p factors; a pure-s
// hydrogen chain does not move at all; an empty calibrator prices like
// the raw model.
func TestPriceRequestCalibratedScalesByClassFactors(t *testing.T) {
	water := JobRequest{Kind: KindBuildJK, System: "water"}
	chain := JobRequest{Kind: KindBuildJK, XYZ: hChainXYZ(10)}

	_, waterRaw, err := PriceRequest(water, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, chainRaw, err := PriceRequest(chain, 1)
	if err != nil {
		t.Fatal(err)
	}

	empty := steal.NewCalibrator(0)
	if _, p, _ := PriceRequestCalibrated(water, 1, empty); p != waterRaw {
		t.Fatalf("empty calibrator priced water %g, raw %g", p, waterRaw)
	}

	cal := steal.NewCalibrator(0)
	for _, cls := range pClasses {
		cal.SetFactor(cls, 40)
	}
	_, waterCal, err := PriceRequestCalibrated(water, 1, cal)
	if err != nil {
		t.Fatal(err)
	}
	if waterCal < 10*waterRaw {
		t.Fatalf("40x p-class factors raised water only %g -> %g", waterRaw, waterCal)
	}
	if _, chainCal, _ := PriceRequestCalibrated(chain, 1, cal); chainCal != chainRaw {
		t.Fatalf("pure-s chain must be immune to p-class factors: %g != %g", chainCal, chainRaw)
	}
}

// TestServerCalibratedAdmissionPricing gates the feedback loop end to
// end inside one server: the workers' Fock builds observe measured block
// walls into the configured calibrator, and admission prices subsequent
// jobs with the learned (here: injected) factors — the /v1/jobs
// predictedCostNs field moves with the model.
func TestServerCalibratedAdmissionPricing(t *testing.T) {
	cal := steal.NewCalibrator(0)
	s := mustNew(t, Config{Workers: 1, CacheBytes: -1, Calibrator: cal})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A real build must feed the calibrator: this is the observation leg.
	if r := submit(t, ts, JobRequest{Kind: KindBuildJK, System: "water"}); r.State != StateDone {
		t.Fatalf("water build: %+v", r)
	}
	if cal.Observations() == 0 {
		t.Fatal("builder did not observe block walls into the configured calibrator")
	}
	snap := s.snapshot()
	if snap.Gauges["calib.observations"] == 0 || snap.Gauges["calib.epoch"] == 0 {
		t.Fatalf("calibration gauges not populated: %+v", snap.Gauges)
	}

	// Pricing leg: with a known factor on the chain's only class, the
	// admission-time prediction must be exactly the rescaled raw price.
	chain := JobRequest{Kind: KindBuildJK, XYZ: hChainXYZ(12)}
	_, raw, err := PriceRequest(chain, 1)
	if err != nil {
		t.Fatal(err)
	}
	cal.SetFactor(0, 50)
	r := submit(t, ts, chain)
	if r.State != StateDone {
		t.Fatalf("chain build: %+v", r)
	}
	if want := 50 * raw; math.Abs(r.PredictedCostNS-want) > 1e-9*want {
		t.Fatalf("calibrated admission price %g, want 50x raw = %g", r.PredictedCostNS, want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRetryAfterUsesCalibratedCosts pins that the 429 backoff hint is in
// measured units: two servers rejecting the identical overload answer
// with very different Retry-After once one of them has learned that
// class-0 blocks run 64x slower than the raw model claims.
func TestRetryAfterUsesCalibratedCosts(t *testing.T) {
	chain := JobRequest{Kind: KindBuildJK, XYZ: hChainXYZ(40)}

	retryFor := func(cal *steal.Calibrator) time.Duration {
		block := make(chan struct{})
		running := make(chan string, 1)
		s := mustNew(t, Config{
			Workers: 1, QueueCap: 1, CacheBytes: -1, Calibrator: cal,
			BeforeRun: func(kind string) {
				select {
				case running <- kind:
					<-block
				default: // only the held job blocks
				}
			},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// Job A holds the worker, job B fills the queue, job C is rejected
		// with a Retry-After priced from A+B+C's predicted costs.
		go NewClient(ts.URL).Submit(context.Background(), chain)
		<-running
		go NewClient(ts.URL).Submit(context.Background(), chain)
		deadline := time.Now().Add(10 * time.Second)
		for s.QueueDepth() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("job B never queued")
			}
			time.Sleep(time.Millisecond)
		}
		_, err := NewClient(ts.URL).Submit(context.Background(), chain)
		busy, ok := err.(*BusyError)
		if !ok {
			t.Fatalf("overloaded submit returned %T (%v), want *BusyError", err, err)
		}
		close(block)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return busy.RetryAfter
	}

	rawRetry := retryFor(nil)
	slow := steal.NewCalibrator(0)
	slow.SetFactor(0, 64)
	calRetry := retryFor(slow)
	// Raw model: three jobs of 17.8 ms predicted work each on the 40-atom
	// chain — the price of the primitive quartets the primitive-level cut
	// leaves, about half of them here; the build itself measures 18–21 ms
	// on the reference container — clamped up to the 1 s floor.
	// Calibrated: 3.4 s of predicted work, an honest multi-second hint.
	if calRetry <= rawRetry {
		t.Fatalf("calibrated Retry-After %v not above raw %v", calRetry, rawRetry)
	}
	if calRetry < 3*time.Second {
		t.Fatalf("calibrated Retry-After %v, want >= 3s for 64x class-0 costs", calRetry)
	}
}

// TestServerCalibratorPersistsAcrossRestart pins the warm-start path: a
// server with a persistent store saves its calibrator at shutdown, and a
// fresh process on the same store restores the learned factors before
// serving its first request.
func TestServerCalibratorPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	calA := steal.NewCalibrator(0)
	s1 := mustNew(t, Config{Workers: 1, StoreDir: dir, Calibrator: calA})
	ts1 := httptest.NewServer(s1.Handler())
	if r := submit(t, ts1, JobRequest{Kind: KindBuildJK, System: "water"}); r.State != StateDone {
		t.Fatalf("water build: %+v", r)
	}
	ts1.Close()
	obs := calA.Observations()
	if obs == 0 {
		t.Fatal("no observations before shutdown")
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(s1, "calib.persisted"); got != 1 {
		t.Fatalf("calib.persisted = %d, want 1", got)
	}

	calB := steal.NewCalibrator(0)
	s2 := mustNew(t, Config{Workers: 1, StoreDir: dir, Calibrator: calB})
	defer s2.Shutdown(context.Background())
	if got := counter(s2, "calib.restored"); got != 1 {
		t.Fatalf("calib.restored = %d, want 1", got)
	}
	if calB.Observations() != obs {
		t.Fatalf("restored %d observations, want %d", calB.Observations(), obs)
	}
	for _, cls := range append([]int{0}, pClasses...) {
		if calB.Factor(cls) != calA.Factor(cls) {
			t.Fatalf("class %#x factor %g != persisted %g", cls, calB.Factor(cls), calA.Factor(cls))
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// env is what a workload gets from the command line: the seed its
// inputs are generated from, how many ops to run, and where it may
// write.
type env struct {
	seed int64
	ops  int    // length of the op list
	tmp  string // scratch directory of this run, removed at exit
	// tiny is -scale tiny: the workloads pick their smallest geometries,
	// set-up runs once and the layer probes take one sample, so that the
	// tier-1 tests cover every code path in seconds.
	tiny bool
}

// reps is the sample count of the layer probes.
func (e *env) reps() int {
	if e.tiny {
		return 1
	}
	return 5
}

// workload is one set of inputs. setup does everything that precedes
// the first measured op — generating the op list from the seed, booting
// what serves it, filling and warming — and is repeated by the runner,
// which reports the fastest set-up of the run.
type workload interface {
	// opsFor sizes the op list for a run of about the given length on
	// the 2-core reference container.
	opsFor(seconds float64) int
	// procs is the GOMAXPROCS the workload runs under. 2 is the
	// reference container's CPU count and the default. warm_serve runs
	// under 1: its one closed-loop client and the server never run at the
	// same time, and a second P only adds futex wake-ups between the two
	// virtual CPUs, which cost what the host makes them cost (hit latency
	// p50 0.093 ms and p90 0.21 ms with two Ps, 0.077 and 0.13 ms with
	// one). aimd_traj runs under 1 so that a step computes on one thread
	// (under 2 the SCF's own parallel sections make it 1.6 threads wide:
	// see aimdWorkers).
	procs() int
	setup(e *env) (pass, error)
}

// pass is one prepared execution of a workload's op list.
type pass interface {
	// measure executes the op list and nothing else: the runner times
	// it. With a recorder it also leaves one span tree per op.
	measure(rec *recorder) (*outcome, error)
	// verify runs the correctness checks that are too dear to make
	// between ops, after the clock has stopped.
	verify(out *outcome) error
	// walk replays a sample of ops layer by layer and fills the
	// per-layer metrics; traced pass only, after measure.
	walk(rec *recorder, out *outcome, m metrics) error
	close() error
}

// outcome is what the measured phase of a pass produced.
type outcome struct {
	ops       []opSample // every op that completed, as its client saw it
	attempted int
	failed    int // ops failed, refused, non-converged or failing a check
	// opListHash fingerprints the generated inputs. digest fingerprints
	// the physics of the outputs: each op hashes its payload with FNV-64a
	// and the hashes are summed, so it does not depend on which client
	// ran which op when.
	opListHash, digest uint64
	// accuracyErr is the workload's distance from its reference and
	// accuracyCeil the most it may be.
	accuracyErr, accuracyCeil float64
	genMS                     float64 // op-list generation, part of set-up
	layer                     metrics // per-layer values the pass itself yields
}

// done records a completed op of the given class: how long its client
// waited and how much CPU the process used meanwhile.
func (o *outcome) done(class string, lat, cpu time.Duration) {
	o.ops = append(o.ops, opSample{class: class, latMS: ms(lat), cpuMS: ms(cpu)})
}

// lats returns the latency of every completed op, in ms.
func (o *outcome) lats() []float64 {
	out := make([]float64, len(o.ops))
	for i, op := range o.ops {
		out[i] = op.latMS
	}
	return out
}

var workloads = map[string]workload{
	"cold_fock":  coldFock{},
	"warm_serve": warmServe{},
	"aimd_traj":  aimdTraj{},
	"dist_fock":  distFock{},
}

// workloadNames lists the workloads. BENCHMARK.json names the first
// gatedWorkloads of them, in this order: the check that gates later
// changes has an hour for all its runs, and runs long enough to repeat
// on the shared reference machine leave room for two workloads — the
// two whose ops compute on one thread and in the first-level cache,
// which is what that machine can hold still (README.md, "A noisy
// machine"). The other two are driven by `go run ./bench` like the
// first two and are there for changes to the layers only they reach.
var workloadNames = []string{"cold_fock", "aimd_traj", "warm_serve", "dist_fock"}

const gatedWorkloads = 2

// tinyOps is the op-list length of -scale tiny, for the tier-1 tests.
var tinyOps = map[string]int{"cold_fock": 8, "warm_serve": 400, "aimd_traj": 2, "dist_fock": 4}

// runResult is the full record of one run. The last line of standard
// output carries only Correct, Attempted, Failed and Metrics; the rest
// is for the driver's own result file and -compare.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Ops          int                `json:"ops"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Metrics      map[string]value   `json:"metrics"`
	OpListHash   string             `json:"op_list_hash"`
	ResultDigest string             `json:"result_digest"`
	AccuracyErr  float64            `json:"accuracy_err"`
	Noisy        bool               `json:"noisy"`
	CalibMS      [2]float64         `json:"calib_ms"`
	StealRatio   float64            `json:"steal_ratio"`
	Classes      []classStat        `json:"classes,omitempty"`
	SetupS       []float64          `json:"setup_s,omitempty"` // every set-up of the run, in order
	WallS        float64            `json:"wall_s"`
	LayerShare   map[string]float64 `json:"layer_share,omitempty"`
	Env          environment        `json:"env"`
}

// environment is recorded in every result.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	LoadAvg1   float64 `json:"loadavg1"`
}

func currentEnv() environment {
	e := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &e.LoadAvg1)
	}
	return e
}

// calibrate times a fixed pure-Go float loop: the noise witness. The
// same loop before and after a run should take the same time; when it
// does not, something else was using the machine.
func calibrate() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		calibSink = x
		if d := ms(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}

var calibSink float64

// setUps runs the workload's set-up minSetups times — and, while it is
// cheap, up to maxSetups times or setupBudget in all — closing each pass
// before the next is set up, and returns the set-up times in seconds
// and, when keep is set, the last pass still open. The runner calls it
// before the measured pass and again after it, so that the samples of
// setup_s come from both ends of the run: one disturbed stretch does
// not hold them all.
func setUps(w workload, e *env, tag string, keep bool) (pass, []float64, error) {
	const minSetups, maxSetups, setupBudget = 3, 8, 2 * time.Second
	var times []float64
	var p pass
	begin := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begin) < setupBudget); i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, nil, err
			}
		}
		sub := *e
		sub.tmp = filepath.Join(e.tmp, fmt.Sprintf("%s%d", tag, i))
		t0 := time.Now()
		var err error
		if p, err = w.setup(&sub); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if e.tiny {
			break // one set-up is enough for the tests
		}
	}
	if !keep {
		return nil, times, p.close()
	}
	return p, times, nil
}

// runWorkload performs one run: the untraced pass for the end-to-end
// metrics, or (trace) an untraced and a traced pass over half the op
// list each plus the layer walk for the per-layer metrics.
func runWorkload(name string, seed int64, seconds float64, tiny, trace bool, tmpRoot, outDir string) (*runResult, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	ops := w.opsFor(seconds)
	if tiny {
		ops = tinyOps[name]
	}
	runtime.GOMAXPROCS(w.procs())
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &runResult{Workload: name, Seed: seed, Trace: trace, Ops: ops, Env: currentEnv()}
	start := time.Now()
	goroutines := runtime.NumGoroutine()
	steal0 := stolen()
	res.CalibMS[0] = calibrate()

	e := &env{seed: seed, ops: ops, tmp: tmp, tiny: tiny}
	var out *outcome
	if !trace {
		out, err = runUntraced(w, e, res)
	} else {
		if !tiny {
			e.ops = max(ops/2, 1) // two passes in one run: half the op list each
		}
		out, err = runTraced(name, w, e, res, outDir, goroutines)
	}
	if err != nil {
		return nil, err
	}
	res.CalibMS[1] = calibrate()
	res.WallS = time.Since(start).Seconds()
	res.StealRatio = (stolen() - steal0).Seconds() / res.WallS
	if trace {
		res.Metrics["proc.calib_ms_before"] = value{res.CalibMS[0], "ms"}
		res.Metrics["proc.calib_ms_after"] = value{res.CalibMS[1], "ms"}
		res.Metrics["proc.steal_ratio"] = value{res.StealRatio, "ratio"}
	}
	// Two witnesses: the calibration loop moving by a tenth (something
	// else had the CPU at one end of the run), or the hypervisor keeping
	// more than a twentieth of the run's wall from this guest.
	res.Noisy = math.Abs(res.CalibMS[1]-res.CalibMS[0]) > 0.1*res.CalibMS[0] || res.StealRatio > 0.05
	res.Attempted, res.Failed = out.attempted, out.failed
	res.AccuracyErr = out.accuracyErr
	res.Correct = out.failed == 0 && out.accuracyErr <= out.accuracyCeil
	res.OpListHash = fmt.Sprintf("%016x", out.opListHash)
	res.ResultDigest = fmt.Sprintf("%016x", out.digest)
	return res, nil
}

func runUntraced(w workload, e *env, res *runResult) (*outcome, error) {
	p, setups, err := setUps(w, e, "pre", true)
	if err != nil {
		return nil, err
	}
	out, err := p.measure(nil)
	rss := peakRSS()
	if err == nil {
		err = p.verify(out)
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !e.tiny {
		_, more, err := setUps(w, e, "post", false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}
	st := steadyMetrics(out.ops)
	res.Classes = st.classes
	res.SetupS = setups
	m := metrics{
		// Set-up does the same work every time and a neighbour can only
		// add to it: the fastest of the run's six to sixteen set-ups.
		"setup_s":       slices.Min(setups),
		"op_ms":         st.opMS,
		"cpu_ms_per_op": st.cpuMSPerOp,
		"rss_peak_mb":   rss,
	}
	res.Metrics, err = m.report(endToEnd)
	return out, err
}

func runTraced(name string, w workload, e *env, res *runResult, outDir string, goroutines int) (*outcome, error) {
	// Pass A, untraced, is the base of trace.overhead_ratio.
	sub := *e
	sub.tmp = filepath.Join(e.tmp, "a")
	a, err := w.setup(&sub)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	outA, err := a.measure(nil)
	wallA := time.Since(t0)
	if cerr := a.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// The plain throughput of the pass is what the disturbed machine
	// delivered: reported per layer, not gated.
	rateA := ratio(float64(len(outA.ops)), wallA.Seconds())

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sub.tmp = filepath.Join(e.tmp, "b")
	b, err := w.setup(&sub)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	out, err := b.measure(rec)
	if err != nil {
		b.close()
		return nil, err
	}
	// The same op list must give the same physics and the same exact
	// counters twice.
	if out.digest != outA.digest {
		out.failed++
	}
	for _, c := range exactCounters {
		if va, ok := outA.layer[c]; ok && va != out.layer[c] {
			out.failed++
		}
	}
	m := out.layer
	if err := b.verify(out); err != nil {
		b.close()
		return nil, err
	}
	if err := b.walk(rec, out, m); err != nil {
		b.close()
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	m["fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	m["op_p50_ms"] = median(outA.lats())
	m["op_p90_ms"] = quantile(outA.lats(), 0.9)
	m["ops_per_s"] = rateA
	m["accuracy_err"] = out.accuracyErr
	m["workload.gen_ms"] = out.genMS
	m["trace.overhead_ratio"] = ratio(steadyMetrics(out.ops).opMS, steadyMetrics(outA.ops).opMS)
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["proc.goroutines_leaked"] = float64(leakedGoroutines(goroutines))

	res.LayerShare = layerShares(rec.spans)
	if err := rec.write(filepath.Join(outDir, name+".spans.jsonl")); err != nil {
		return nil, err
	}
	res.Metrics, err = m.report(perLayer)
	return out, err
}

// leakedGoroutines waits briefly for goroutines that are on their way
// out (closed HTTP connections, stopped pools) and returns how many
// more are alive than before the run.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// layerShares returns each layer's self time as a share of the tree it
// sits in, keyed "<root span name>:<layer>": the op trees of the traced
// pass ("client.op", "respa.outer_step") and the walk trees ("walk.op")
// are separate populations.
func layerShares(spans []span) map[string]float64 {
	rootName := make(map[int]string, len(spans)) // spans are appended parents first
	groups := make(map[string][]span)
	totals := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 {
			rootName[s.ID] = s.Name
			totals[s.Name] += time.Duration(s.End - s.Start)
		} else {
			rootName[s.ID] = rootName[s.Parent]
		}
		groups[rootName[s.ID]] = append(groups[rootName[s.ID]], s)
	}
	out := make(map[string]float64)
	for root, group := range groups {
		for layer, d := range selfTimes(group) {
			out[root+":"+layer] = ratio(float64(d), float64(totals[root]))
		}
	}
	return out
}

// printResult writes every metric as "name unit value" and, as the last
// line, the JSON object the benchmark contract asks for.
func printResult(res *runResult) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %-6s %v\n", n, res.Metrics[n].Unit, res.Metrics[n].Value)
	}
	fmt.Printf("op_list_hash %s result_digest %s noisy %v calib_ms %.2f/%.2f steal_ratio %.3f wall_s %.1f\n",
		res.OpListHash, res.ResultDigest, res.Noisy, res.CalibMS[0], res.CalibMS[1], res.StealRatio, res.WallS)
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(last))
	return err
}

package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesTables holds BENCHMARK.json to the contract's limits
// and to the metric tables this program emits from.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != gatedWorkloads {
		t.Fatalf("%d workloads declared, program gates %d (contract: 2 to 8)", n, gatedWorkloads)
	}
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []specMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d declared, program emits %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: declared %+v, program has %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, g)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: %s bound %v, program has %v (contract: at most 0.25)", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer, 128, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared with unit s, lower is better")
	}
	for _, c := range exactCounters {
		if !seen[c] {
			t.Errorf("exact counter %q is not a declared metric", c)
		}
	}
}

func metricNames(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.name] = true
	}
	return out
}

// TestTinyRuns drives every workload at -scale tiny, untraced and
// traced, and checks what a run must always hold: the declared metrics
// and no others, no failed op, no leaked goroutine, a span file whose
// children lie inside their parents, and the same seed giving the same
// op list, exact counters and result digest.
func TestTinyRuns(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			tmp, outDir := t.TempDir(), t.TempDir()
			plain, err := runWorkload(name, 1, 0, true, false, tmp, outDir)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(name, 1, 0, true, true, tmp, outDir)
			if err != nil {
				t.Fatal(err)
			}
			other, err := runWorkload(name, 2, 0, true, false, tmp, outDir)
			if err != nil {
				t.Fatal(err)
			}

			for _, r := range []*runResult{plain, traced, other} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("seed %d trace=%v: correct=%v, %d of %d ops failed, accuracy_err %g",
						r.Seed, r.Trace, r.Correct, r.Failed, r.Attempted, r.AccuracyErr)
				}
				want := metricNames(endToEnd)
				if r.Trace {
					want = metricNames(perLayer)
				}
				for n := range r.Metrics {
					if !want[n] {
						t.Errorf("trace=%v emits undeclared metric %q", r.Trace, n)
					}
				}
				for n := range want {
					if _, ok := r.Metrics[n]; !ok {
						t.Errorf("trace=%v does not emit declared metric %q", r.Trace, n)
					}
				}
			}
			for _, d := range endToEnd {
				if v := plain.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, v)
				}
			}
			if v := traced.Metrics["fail_ratio"].Value; v != 0 {
				t.Errorf("fail_ratio %v", v)
			}
			if v := traced.Metrics["proc.goroutines_leaked"].Value; v != 0 {
				t.Errorf("%v goroutines leaked after Close", v)
			}
			if v := traced.Metrics["trace.overhead_ratio"].Value; !(v > 0) {
				t.Errorf("trace.overhead_ratio %v not reported", v)
			}

			// Same seed, same inputs and outputs — across the untraced run
			// and both passes of the traced run (which fails its own ops if
			// its two passes disagree on the digest or an exact counter).
			if plain.OpListHash != traced.OpListHash || plain.ResultDigest != traced.ResultDigest {
				t.Errorf("seed 1 twice: op list %s/%s, digest %s/%s", plain.OpListHash, traced.OpListHash,
					plain.ResultDigest, traced.ResultDigest)
			}
			if other.OpListHash == plain.OpListHash {
				t.Errorf("seeds 1 and 2 generate the same op list %s", plain.OpListHash)
			}
			checkSpanFile(t, filepath.Join(outDir, name+".spans.jsonl"))
		})
	}
}

// checkSpanFile parses a span file and checks that every child interval
// lies inside its parent's and belongs to the same op.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range all {
		if s.End < s.Start || s.Layer == "" || s.Name == "" {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d names a missing parent %d", s.ID, s.Parent)
		case s.Start < p.Start || s.End > p.End || s.Op != p.Op:
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
	}
}

// TestDistFockPlacementsBitwise pins the workload's correctness check:
// the four placements it cycles reproduce the single-rank builds of
// their slot counts bit for bit.
func TestDistFockPlacementsBitwise(t *testing.T) {
	p, err := distFock{}.setup(&env{seed: 3, ops: 4, tmp: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	out, err := p.measure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.verify(out); err != nil {
		t.Fatal(err)
	}
	if got := len(p.(*distPass).got); got != 4 {
		t.Fatalf("%d placements ran, want 4", got)
	}
	if out.failed != 0 || out.accuracyErr != 0 {
		t.Errorf("%d placements differ from the single-rank build, max |ΔJ,ΔK| = %g", out.failed, out.accuracyErr)
	}
}

// TestVerdict pins -compare's three outcomes.
func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.1}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.1}
	tight := func(m float64) stat { return stat{Median: m, Min: m * 0.99, Max: m * 1.01, N: 3} }
	wide := func(m float64) stat { return stat{Median: m, Min: m * 0.8, Max: m * 1.2, N: 3} }
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{lower, tight(100), tight(104), "ok"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "ok"},
		{lower, wide(100), wide(104), "unresolved"},
		{lower, wide(100), tight(200), "worse"}, // spread wide, but every run of one side beats the other
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

// TestSteadyMetrics pins the estimator: a run most of which is
// disturbed reports the pace of its undisturbed ops, class by class and
// weighted by the classes' shares of the op list.
func TestSteadyMetrics(t *testing.T) {
	var ops []opSample
	for i := 0; i < 160; i++ {
		class, lat, cpu := "jk", 10.0, 8.0
		if i%4 == 0 {
			class, lat, cpu = "scf", 30, 24
		}
		if i >= 24 && i < 150 { // the machine is taken away
			lat, cpu = 2.5*lat, 1.5*cpu
		}
		ops = append(ops, opSample{class: class, latMS: lat, cpuMS: cpu})
	}
	st := steadyMetrics(ops)
	if want := 0.75*10 + 0.25*30; math.Abs(st.opMS-want) > 1e-9 {
		t.Errorf("op_ms %v, want the undisturbed %v", st.opMS, want)
	}
	if want := 0.75*8 + 0.25*24; math.Abs(st.cpuMSPerOp-want) > 1e-9 {
		t.Errorf("cpu_ms_per_op %v, want the undisturbed %v", st.cpuMSPerOp, want)
	}
	if len(st.classes) != 2 || st.classes[0].Class != "scf" || st.classes[0].Ops != 40 || st.classes[1].Share != 0.75 {
		t.Errorf("classes %+v", st.classes)
	}
}

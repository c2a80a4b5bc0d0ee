package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// stat is one metric of one workload over a set of runs: the median is
// the set's value, min/max its own spread.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// workloadSet is what a set of runs says about one workload.
type workloadSet struct {
	EndToEnd     map[string]stat    `json:"end_to_end"`
	PerLayer     map[string]stat    `json:"per_layer,omitempty"`
	LayerShare   map[string]float64 `json:"layer_share,omitempty"`
	OpListHash   string             `json:"op_list_hash"`
	ResultDigest string             `json:"result_digest"`
	NoisyRuns    int                `json:"noisy_runs"`
}

// results is the file the driver writes and -compare reads.
type results struct {
	Commit    string                 `json:"commit,omitempty"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     string                 `json:"scale"`
	Env       environment            `json:"env"`
	Workloads map[string]workloadSet `json:"workloads"`
	Runs      []*runResult           `json:"runs"`
}

// drive re-executes this program once per workload × run — each run in
// its own process, with its own heap and peak RSS — interleaving the
// workloads within the set, then once per workload traced; aggregates,
// prints every metric and writes the result file.
func drive(seed int64, seconds float64, trace, scale string, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	res := &results{Seed: seed, Seconds: seconds, Scale: scale, Env: currentEnv(), Workloads: map[string]workloadSet{}}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		res.Commit = strings.TrimSpace(string(b))
	}
	one := func(name string, traced bool) error {
		tmp := out + ".run"
		defer os.Remove(tmp)
		traceArg := "0"
		if traced {
			traceArg = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale,
			"-trace", traceArg, "-out", tmp)
		cmd.Stderr = os.Stderr
		fmt.Printf("# run %s trace=%v\n", name, traced)
		runErr := cmd.Run()
		b, err := os.ReadFile(tmp)
		if err != nil {
			return fmt.Errorf("%s: no result (%v)", name, runErr)
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		res.Runs = append(res.Runs, &r)
		return nil
	}
	if trace != "1" {
		for i := 0; i < runs; i++ {
			for _, name := range workloadNames {
				if err := one(name, false); err != nil {
					return err
				}
			}
		}
	}
	if trace != "0" {
		for _, name := range workloadNames {
			if err := one(name, true); err != nil {
				return err
			}
		}
	}

	failed := aggregate(res)
	printSets(res)
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if len(failed) > 0 {
		return fmt.Errorf("failed correctness checks: %s", strings.Join(failed, "; "))
	}
	return nil
}

// aggregate folds the runs into per-workload sets and returns a line
// for every run that failed a check or disagrees with its siblings.
func aggregate(res *results) (failed []string) {
	for _, name := range workloadNames {
		set := workloadSet{EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
		vals := map[bool]map[string][]float64{false: {}, true: {}}
		units := map[string]string{}
		for _, r := range res.Runs {
			if r.Workload != name {
				continue
			}
			if !r.Correct {
				failed = append(failed, fmt.Sprintf("%s seed %d: %d/%d ops failed", name, r.Seed, r.Failed, r.Attempted))
			}
			if r.Noisy {
				set.NoisyRuns++
			}
			for m, v := range r.Metrics {
				vals[r.Trace][m] = append(vals[r.Trace][m], v.Value)
				units[m] = v.Unit
			}
			if r.Trace {
				set.LayerShare = r.LayerShare
				continue // a traced run covers half the op list: its own digest
			}
			if set.ResultDigest != "" && (set.ResultDigest != r.ResultDigest || set.OpListHash != r.OpListHash) {
				failed = append(failed, fmt.Sprintf("%s: result_digest/op_list_hash differ between runs of one seed", name))
			}
			set.ResultDigest, set.OpListHash = r.ResultDigest, r.OpListHash
		}
		fold := func(src map[string][]float64, dst map[string]stat) {
			for m, xs := range src {
				dst[m] = stat{Unit: units[m], Median: median(xs), Min: quantile(xs, 0), Max: quantile(xs, 1), N: len(xs)}
			}
		}
		fold(vals[false], set.EndToEnd)
		fold(vals[true], set.PerLayer)
		if len(set.EndToEnd)+len(set.PerLayer) > 0 {
			res.Workloads[name] = set
		}
	}
	return failed
}

// printSets prints every metric of every workload by name, with its
// unit: median, then min–max and the sample count.
func printSets(res *results) {
	for _, name := range workloadNames {
		set, ok := res.Workloads[name]
		if !ok {
			continue
		}
		fmt.Printf("\n== %s  digest %s  ops %s  noisy runs %d\n", name, set.ResultDigest, set.OpListHash, set.NoisyRuns)
		for _, group := range []struct {
			defs []metricDef
			vals map[string]stat
		}{{endToEnd, set.EndToEnd}, {perLayer, set.PerLayer}} {
			for _, d := range group.defs {
				s, ok := group.vals[d.name]
				if !ok {
					continue
				}
				line := fmt.Sprintf("%-32s %-6s %-14.6g [%.6g .. %.6g] n=%d", d.name, s.Unit, s.Median, s.Min, s.Max, s.N)
				if d.moves != "" {
					line += "  -> " + d.moves
				}
				fmt.Println(line)
			}
		}
		if len(set.LayerShare) > 0 {
			layers := make([]string, 0, len(set.LayerShare))
			for l := range set.LayerShare {
				layers = append(layers, l)
			}
			sort.Strings(layers)
			fmt.Print("self-time share:")
			for _, l := range layers {
				fmt.Printf(" %s=%.3f", l, set.LayerShare[l])
			}
			fmt.Println()
		}
	}
}

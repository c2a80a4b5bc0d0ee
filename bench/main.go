// Command bench is hfxmd's one benchmark: four workloads (two of them
// gated by BENCHMARK.json), four end-to-end metrics and a per-layer walk
// from the fleet router down to the ERI kernel. See README.md in this
// directory.
//
//	go run ./bench                       every workload: a set of untraced runs and one traced run each
//	go run ./bench -workload cold_fock   one run, one JSON result on the last line
//	go run ./bench -compare a.json b.json
//
// It measures the program from outside: it times calls into the
// packages' exported functions and reads the values those calls return.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures on the 2-core reference container.
const defaultSeconds = 40

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: drive every workload)")
		seed         = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds      = flag.Float64("seconds", defaultSeconds, "length the op list is sized for, on the reference container")
		trace        = flag.String("trace", "", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (driving: default both)")
		scale        = flag.String("scale", "full", "full: op list sized by -seconds; tiny: a few ops, for tests")
		runs         = flag.Int("runs", 3, "untraced runs per workload in a set (driving only)")
		out          = flag.String("out", "", "write the full result here (driving: default bench/out/results.json)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *scale, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, scale string, runs int, out string, compare bool, args []string) error {
	if scale != "full" && scale != "tiny" {
		return fmt.Errorf("-scale must be full or tiny, got %q", scale)
	}
	if trace != "" && trace != "0" && trace != "1" {
		return fmt.Errorf("-trace must be 0 or 1, got %q", trace)
	}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(args[0], args[1])
	case name == "":
		if out == "" {
			out = filepath.Join("bench", "out", "results.json")
		}
		return drive(seed, seconds, trace, scale, runs, out)
	}
	// Everything a run writes stays inside the checkout: scratch under
	// .bench_build (removed at exit), span files under bench/out.
	res, err := runWorkload(name, seed, seconds, scale == "tiny", trace == "1", filepath.Join(".bench_build", "tmp"), filepath.Join("bench", "out"))
	if err != nil {
		return err
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := printResult(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed, accuracy_err %v", name, res.Failed, res.Attempted, res.AccuracyErr)
	}
	return nil
}

// Command hfxscale reproduces the paper's machine-scale experiments on
// the BG/Q simulator and prints the corresponding tables:
//
//	E1 — strong scaling of the paper scheme to 6,291,456 threads;
//	E2 — scalability comparison against the state-of-the-art baseline
//	     (the ">20-fold improvement" claim);
//	E3 — time-to-solution comparison at fixed machine sizes (">10×");
//	A1 — load-balancer ablation (block / round-robin / LPT / steal);
//	A2 — reduction-algorithm ablation (dim-exchange / binomial / ring);
//	WK — weak scaling (system grows with the machine);
//	M0 — the simulated BG/Q partition table (shapes, threads, bisection).
//
// `hfxscale -exp list` prints this table with one-line descriptions.
//
// Usage:
//
//	hfxscale -exp e1 -waters 4096
//	hfxscale -exp e2
//	hfxscale -exp all
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"hfxmd"
	"hfxmd/internal/bgq"
	"hfxmd/internal/sched"
)

var defaultRacks = []int{1, 2, 4, 8, 16, 32, 48, 64, 96}

// experiments is the table behind -exp list: name, banner title, one-line
// description, and runner.
var experiments = []struct {
	name  string
	title string
	desc  string
	run   func(paper, base *hfxmd.MachineWorkload)
}{
	{"e1", "E1: strong scaling, paper scheme",
		"simulated strong scaling of the paper scheme to 6.3M threads", expE1},
	{"e2", "E2: scalability vs state of the art",
		"simulated comparison against the baseline (>20x scalability claim)", expE2},
	{"e3", "E3: time to solution",
		"simulated time-to-solution at fixed machine sizes (>10x claim)", expE3},
	{"a1", "A1: load-balancer ablation",
		"block / round-robin / LPT / steal balancing on 16 racks", expA1},
	{"a2", "A2: reduction-algorithm ablation",
		"dim-exchange / binomial / ring K-reduction cost", expA2},
	{"wk", "WK: weak scaling (system grows with machine)",
		"simulated weak scaling, 256 waters per rack", expWK},
	{"m0", "M0: simulated platform (BG/Q partitions)",
		"partition shapes, thread counts, diameters, bisections", expM0},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfxscale: ")
	var (
		exp    = flag.String("exp", "all", "experiment: e1|e2|e3|a1|a2|wk|m0|all|list")
		waters = flag.Int("waters", 4096, "condensed-phase system size (H2O molecules)")
		tasks  = flag.Int("tasks", 3<<20, "node-level task count of the paper decomposition")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	want := strings.ToLower(*exp)
	if want == "list" {
		fmt.Printf("%-5s %s\n", "exp", "description")
		for _, e := range experiments {
			fmt.Printf("%-5s %s\n", e.name, e.desc)
		}
		return
	}
	all := want == "all"
	matched := false
	for _, e := range experiments {
		if all || want == e.name {
			matched = true
		}
	}
	if !matched {
		log.Fatalf("unknown experiment %q (use -exp list for the table)", *exp)
	}

	paper := hfxmd.CondensedPhaseWorkload(*waters, *tasks, *seed)
	base := hfxmd.BaselineWorkload(*waters, *seed)
	for _, e := range experiments {
		if all || want == e.name {
			fmt.Printf("\n================ %s ================\n", e.title)
			e.run(paper, base)
		}
	}
}

func expM0(_, _ *hfxmd.MachineWorkload) {
	fmt.Printf("%6s %14s %9s %10s %9s %10s\n",
		"racks", "torus", "nodes", "threads", "diameter", "bisection")
	for _, r := range defaultRacks {
		m, err := hfxmd.NewMachine(r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %14s %9d %10d %9d %10d\n",
			r, m.Torus.Shape, m.Nodes(), m.Threads(), m.Torus.Diameter(), m.Torus.BisectionLinks())
	}
}

func expWK(_, _ *hfxmd.MachineWorkload) {
	pts, err := hfxmd.WeakScaling(256, 1<<14, defaultRacks, 1, hfxmd.PaperScheme())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("256 waters per rack; flat time = ideal\n\n%6s %10s %12s %10s\n",
		"racks", "threads", "time [s]", "weak-eff")
	for _, p := range pts {
		fmt.Printf("%6d %10d %12.4f %9.1f%%\n", p.Racks, p.Threads, p.Result.Total, 100*p.Efficiency)
	}
}

func expE1(paper, _ *hfxmd.MachineWorkload) {
	pts, err := hfxmd.StrongScaling(paper, defaultRacks, hfxmd.PaperScheme())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (total %.0f thread-seconds)\n\n", paper.Name, paper.TotalWork())
	fmt.Printf("%6s %10s %12s %10s %11s %9s\n", "racks", "threads", "time [s]", "speedup", "efficiency", "balance")
	for _, p := range pts {
		fmt.Printf("%6d %10d %12.4f %10.1f %10.1f%% %9.4f\n",
			p.Racks, p.Threads, p.Result.Total, p.Speedup, 100*p.Efficiency, p.Result.BalanceRatio)
	}
}

func expE2(paper, base *hfxmd.MachineWorkload) {
	pPts, err := hfxmd.StrongScaling(paper, defaultRacks, hfxmd.PaperScheme())
	if err != nil {
		log.Fatal(err)
	}
	bPts, err := hfxmd.StrongScaling(base, defaultRacks, hfxmd.BaselineScheme())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %10s | %14s %10s | %14s %10s\n",
		"racks", "threads", "paper time [s]", "eff", "base time [s]", "eff")
	for i := range pPts {
		fmt.Printf("%6d %10d | %14.4f %9.1f%% | %14.4f %9.1f%%\n",
			pPts[i].Racks, pPts[i].Threads,
			pPts[i].Result.Total, 100*pPts[i].Efficiency,
			bPts[i].Result.Total, 100*bPts[i].Efficiency)
	}
	pSat := hfxmd.SaturationThreads(pPts)
	bSat := hfxmd.SaturationThreads(bPts)
	fmt.Printf("\nuseful threads: paper %d, baseline %d -> %.0fx scalability improvement (paper claims >20x)\n",
		pSat, bSat, float64(pSat)/float64(bSat))
}

func expE3(paper, base *hfxmd.MachineWorkload) {
	fmt.Printf("%6s %16s %16s %9s\n", "racks", "paper [s]", "baseline [s]", "ratio")
	for _, racks := range []int{4, 16, 32, 96} {
		m, err := hfxmd.NewMachine(racks)
		if err != nil {
			log.Fatal(err)
		}
		tp := m.Simulate(paper, hfxmd.PaperScheme()).Total
		tb := m.Simulate(base, hfxmd.BaselineScheme()).Total
		fmt.Printf("%6d %16.4f %16.4f %8.1fx\n", racks, tp, tb, tb/tp)
	}
	fmt.Println("(paper claims a >10-fold decrease in runtime vs directly comparable approaches)")
}

func expA1(paper, _ *hfxmd.MachineWorkload) {
	m, err := hfxmd.NewMachine(16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16 racks, %s\n\n%14s %12s %12s\n", paper.Name, "balancer", "time [s]", "balance")
	for _, alg := range []sched.Algorithm{sched.Block, sched.RoundRobin, sched.LPT, sched.Steal} {
		opts := hfxmd.PaperScheme()
		opts.Balancer = alg
		res := m.Simulate(paper, opts)
		fmt.Printf("%14s %12.4f %12.4f\n", alg, res.Total, res.BalanceRatio)
	}
}

func expA2(paper, _ *hfxmd.MachineWorkload) {
	fmt.Printf("%6s | %14s %14s %14s   (visible reduction seconds)\n",
		"racks", "dim-exchange", "binomial", "ring")
	for _, racks := range []int{1, 8, 96} {
		m, err := hfxmd.NewMachine(racks)
		if err != nil {
			log.Fatal(err)
		}
		var vals [3]float64
		for i, alg := range []bgq.ReduceAlgorithm{bgq.DimExchange, bgq.Binomial, bgq.Ring} {
			opts := hfxmd.PaperScheme()
			opts.Reduce = alg
			opts.Overlap = 0 // expose the raw reduction cost
			vals[i] = m.Simulate(paper, opts).Reduction
		}
		fmt.Printf("%6d | %14.5f %14.5f %14.5f\n", racks, vals[0], vals[1], vals[2])
	}
}

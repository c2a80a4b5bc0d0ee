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
//	M0 — the simulated BG/Q partition table (shapes, threads, bisection);
//	P1 — real (non-simulated) repeated Fock builds on the persistent
//	     worker pool, with the per-phase accounting table;
//	D1 — real distributed Fock builds on the in-process mprt runtime:
//	     strong + weak scaling over rank counts, with measured parallel
//	     efficiency, per-rank communication bytes, and measured collective
//	     step counts checked against the bgq model's prediction;
//	C1 — real hfxd fleet benchmark: every routing policy (round-robin,
//	     least-loaded, cost-weighted, cache-affinity) against synthetic
//	     client populations (steady Poisson and bursty Gamma arrivals),
//	     with deterministic serial replays, per-SLO-class latency, warm
//	     cache hit ratios and the Jain fairness index;
//	S1 — real tiered-store benchmark: cold vs disk-warm vs RAM-warm
//	     service latency through a restarted hfxd instance, per-tier Get
//	     micro-latency, ERI cache spill/warm round-trip (bitwise-checked),
//	     and the fleet-wide hit-ratio gain from one shared store;
//	W1 — real deterministic work stealing under injected cost-model
//	     mispredicts and stragglers: static vs stealing measured balance
//	     across noise levels (bitwise-identical results), plus the online
//	     calibration loop's raw-vs-calibrated prediction error across
//	     successive builds;
//	M1 — real multiple-time-step AIMD: the same simulated time span
//	     integrated at RESPA k ∈ {1,2,4} with the cross-step session,
//	     SCF iterations per inner step as the cost metric, a k² drift
//	     gate, a warm-vs-cold reuse gate, and a mid-cycle crash/resume
//	     bitwise gate.
//
// `hfxscale -exp list` prints this table with one-line descriptions.
//
// Usage:
//
//	hfxscale -exp e1 -waters 4096
//	hfxscale -exp e2
//	hfxscale -exp p1 -pwaters 4 -builds 4
//	hfxscale -exp d1 -d1-waters 2 -d1-ranks 1,2,4,8,16 -d1-sched dim-exchange
//	hfxscale -exp c1 -c1-instances 3 -c1-events 24 -c1-out BENCH_fleet.json
//	hfxscale -exp all
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"hfxmd"
	"hfxmd/internal/basis"
	"hfxmd/internal/bgq"
	"hfxmd/internal/chem"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
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
	{"w1", "W1: work stealing under mispredicts (real)",
		"static vs stealing balance across noise levels, online calibration", expW1},
	{"m0", "M0: simulated platform (BG/Q partitions)",
		"partition shapes, thread counts, diameters, bisections", expM0},
	{"p1", "P1: persistent-pool Fock builds (real, not simulated)",
		"repeated real builds on one pool, per-phase accounting", expP1},
	{"d1", "D1: distributed Fock builds on the mprt runtime (real)",
		"strong+weak rank scaling: efficiency, comm bytes, steps vs model", expD1},
	{"c1", "C1: fleet routing x synthetic client populations (real)",
		"routing-policy matrix over steady/bursty workloads, SLO report", expC1},
	{"s1", "S1: tiered content-addressed store (real)",
		"cold/disk-warm/RAM-warm latency, ERI spill warm, fleet shared-store hits", expS1},
	{"m1", "M1: multiple-time-step AIMD cost and drift (real)",
		"RESPA k sweep: SCF iters/step, drift gate, warm/cold reuse, bitwise resume", expM1},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfxscale: ")
	var (
		exp    = flag.String("exp", "all", "experiment: e1|e2|e3|a1|a2|wk|m0|p1|d1|c1|s1|w1|m1|all|list")
		waters = flag.Int("waters", 4096, "condensed-phase system size (H2O molecules)")
		tasks  = flag.Int("tasks", 3<<20, "node-level task count of the paper decomposition")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.StringVar(&p1Basis, "pbasis", "STO-3G", "basis for -exp p1")
	flag.IntVar(&p1Waters, "pwaters", 4, "cluster size for -exp p1")
	flag.IntVar(&p1Builds, "builds", 4, "Fock builds for -exp p1")
	flag.IntVar(&p1CacheMB, "cache-mb", 0, "semi-direct ERI block cache budget in MiB for -exp p1 (0 = direct)")
	flag.StringVar(&d1Ranks, "d1-ranks", "1,2,4,8,16", "comma-separated rank counts for -exp d1")
	flag.IntVar(&d1Waters, "d1-waters", 2, "strong-scaling cluster size (waters) for -exp d1; weak scaling grows from it")
	flag.IntVar(&d1Tpr, "d1-threads", 1, "threads per rank for -exp d1 (power of two)")
	flag.StringVar(&d1Sched, "d1-sched", "dim-exchange", "collective schedule for -exp d1: binomial|dim-exchange")
	flag.IntVar(&c1Instances, "c1-instances", 2, "fleet size for -exp c1")
	flag.IntVar(&c1Events, "c1-events", 24, "events per load shape for -exp c1")
	flag.Uint64Var(&c1Seed, "c1-seed", 1, "workload seed for -exp c1")
	flag.StringVar(&c1Out, "c1-out", "", "write the -exp c1 policy x load matrix to this JSON file")
	flag.BoolVar(&c1Live, "c1-live", true, "also run live (wall-clock paced) replays in -exp c1")
	flag.Float64Var(&c1Scale, "c1-scale", 0.05, "live-replay time scale for -exp c1 (0.05 = 20x speed)")
	flag.StringVar(&s1Out, "s1-out", "", "write the -exp s1 store benchmark to this JSON file")
	flag.IntVar(&s1Trials, "s1-trials", 25, "latency trials per tier for -exp s1")
	flag.IntVar(&s1Waters, "s1-waters", 2, "cluster size for the -exp s1 ERI spill phase")
	flag.IntVar(&w1Waters, "w1-waters", 2, "cluster size for -exp w1")
	flag.IntVar(&w1Ranks, "w1-ranks", 4, "mprt ranks for -exp w1")
	flag.IntVar(&w1Tpr, "w1-threads", 1, "threads per rank for -exp w1 (power of two)")
	flag.IntVar(&w1Upt, "w1-units", 4, "steal units per thread for -exp w1 (power of two)")
	flag.IntVar(&w1Builds, "w1-builds", 8, "calibration builds for -exp w1 (the gate reads builds 3..N)")
	flag.Uint64Var(&w1Seed, "w1-seed", 7, "noise and victim-order seed for -exp w1")
	flag.StringVar(&w1Out, "w1-out", "", "write the -exp w1 steal benchmark to this JSON file")
	flag.IntVar(&m1Steps, "m1-steps", 16, "inner MD steps (the simulated time span) for -exp m1; multiple of 4")
	flag.Float64Var(&m1Dt, "m1-dt", 0.25, "inner timestep in fs for -exp m1")
	flag.StringVar(&m1Out, "m1-out", "", "write the -exp m1 MTS benchmark to this JSON file")
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

var (
	p1Basis   string
	p1Waters  int
	p1Builds  int
	p1CacheMB int

	d1Ranks  string
	d1Waters int
	d1Tpr    int
	d1Sched  string
)

// expD1 runs real distributed Fock builds on the in-process mprt runtime:
// a strong-scaling sweep (fixed system, growing rank count) followed by a
// weak-scaling sweep (system grows with the ranks). Parallel efficiency
// is measured from aggregate quartet throughput relative to the 1-rank
// baseline — on a machine with fewer cores than ranks it degrades as
// ~1/ranks, which is the honest number; the schedule-level validation
// (comm bytes, measured vs model-predicted collective steps) is
// machine-independent.
func expD1(_, _ *hfxmd.MachineWorkload) {
	schedAlg, ok := mprt.ScheduleByName(strings.ToLower(d1Sched))
	if !ok {
		log.Fatalf("unknown collective schedule %q (binomial|dim-exchange)", d1Sched)
	}
	var rankList []int
	for _, f := range strings.Split(d1Ranks, ",") {
		var r int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &r); err != nil || r < 1 {
			log.Fatalf("bad -d1-ranks entry %q", f)
		}
		rankList = append(rankList, r)
	}

	type row struct {
		ranks int
		rep   hfx.DistReport
	}
	sweep := func(mol func(ranks int) *chem.Molecule) []row {
		rows := make([]row, 0, len(rankList))
		for _, r := range rankList {
			eng := integrals.NewEngine(basis.MustBuild("STO-3G", mol(r)))
			scr := screen.BuildPairList(eng, screen.DefaultOptions())
			p := linalg.NewSquare(eng.Basis.NBasis)
			for i := 0; i < eng.Basis.NBasis; i++ {
				p.Set(i, i, 1)
			}
			d, err := hfx.NewDistBuilder(eng, scr, hfx.DistOptions{
				Ranks:          r,
				ThreadsPerRank: d1Tpr,
				Schedule:       schedAlg,
				Opts:           hfx.DefaultOptions(),
			})
			if err != nil {
				log.Fatal(err)
			}
			_, _, rep := d.Builder.BuildJK(p)
			d.Close()
			rows = append(rows, row{r, rep})
		}
		return rows
	}
	print := func(rows []row) {
		base := float64(rows[0].rep.QuartetsComputed) / rows[0].rep.Wall.Seconds()
		fmt.Printf("%6s %12s %12s %10s %10s %12s %12s %11s\n",
			"ranks", "shape", "wall", "quartets", "eff", "comm bytes", "bytes/rank", "steps m/p")
		for _, r := range rows {
			rate := float64(r.rep.QuartetsComputed) / r.rep.Wall.Seconds()
			eff := rate / (float64(r.ranks) * base)
			fmt.Printf("%6d %12s %12v %10d %9.1f%% %12d %12d %5d/%-5d\n",
				r.ranks, r.rep.Shape, r.rep.Wall.Round(time.Microsecond),
				r.rep.QuartetsComputed, 100*eff,
				r.rep.CommBytes, r.rep.CommBytes/int64(r.ranks),
				r.rep.MeasuredSteps, r.rep.PredictedSteps)
			if r.rep.MeasuredSteps != int64(r.rep.PredictedSteps) {
				log.Fatalf("ranks=%d: measured collective steps %d diverge from bgq model prediction %d",
					r.ranks, r.rep.MeasuredSteps, r.rep.PredictedSteps)
			}
		}
	}

	fmt.Printf("schedule %v, %d thread(s)/rank\n\nstrong scaling: (H2O)_%d fixed\n",
		schedAlg, d1Tpr, d1Waters)
	print(sweep(func(int) *chem.Molecule { return chem.WaterCluster(d1Waters, 6) }))
	fmt.Printf("\nweak scaling: (H2O)_{%d x ranks}\n", d1Waters)
	print(sweep(func(r int) *chem.Molecule { return chem.WaterCluster(d1Waters*r, 6) }))
}

// expP1 runs real repeated Fock builds on one persistent builder pool
// and prints the per-phase accounting: the first build pays the scratch
// warm-up, every later build reuses the pool's buffers without
// allocating. With -cache-mb the builds are semi-direct: the first build
// fills the ERI block cache and later builds replay it.
func expP1(_, _ *hfxmd.MachineWorkload) {
	opts := hfxmd.PaperExchangeOptions()
	opts.CacheBudgetBytes = int64(p1CacheMB) << 20
	b, err := hfxmd.NewExchangeBuilder(hfxmd.WaterCluster(p1Waters, 1), p1Basis,
		hfxmd.DefaultScreening(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()
	n := b.NBasis()
	p := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		p.Set(i, i, 1)
	}
	fmt.Printf("(H2O)_%d / %s, %d basis functions, %d builds on one pool\n\n",
		p1Waters, p1Basis, n, p1Builds)
	var rep hfxmd.ExchangeReport
	for i := 0; i < p1Builds; i++ {
		_, _, rep = b.BuildJK(p)
		fmt.Printf("build %d: wall %12v  quartets %8d  screened %8d  lanes %.2f",
			i+1, rep.Wall, rep.QuartetsComputed, rep.QuartetsScreened, rep.LaneUtilization)
		if rep.Cache.Enabled {
			fmt.Printf("  cache %d/%d hit", rep.Cache.Hits, rep.Cache.Hits+rep.Cache.Misses)
		}
		fmt.Println()
	}
	fmt.Printf("\naccounting (last build + pool lifetime):\n%s", rep.PhaseTable())
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

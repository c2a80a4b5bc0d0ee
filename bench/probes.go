package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/boys"
	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/qpx"
	"hfxmd/internal/scf"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/server"
	"hfxmd/internal/store"
)

// The probes below time one layer each through its exported functions,
// on the geometry of the workload that calls them, and record a span
// per call under parent. They run only in the traced pass.

const basisName = "STO-3G"

// prepState is what admission builds before a Fock build can start.
type prepState struct {
	mol   *chem.Molecule
	set   *basis.Set
	eng   *integrals.Engine
	scr   *screen.Result
	tasks []hfx.Task
	// how long basis.Build and screen.BuildPairList took
	basisWall, pairlistWall time.Duration
}

// hfxOptions is the builder configuration hfxd uses for a job.
func hfxOptions(threads int) hfx.Options {
	o := hfx.DefaultOptions()
	o.Threads = threads
	return o
}

// walkPrep replays server admission (server.prepare) call by call.
func walkPrep(rec *recorder, parent, op int, mol *chem.Molecule) (*prepState, error) {
	st := &prepState{mol: mol}
	var err error
	st.basisWall = rec.call(parent, op, "basis", "basis.build", func() { st.set, err = basis.Build(basisName, mol) })
	if err != nil {
		return nil, err
	}
	rec.call(parent, op, "integrals", "integrals.new_engine", func() { st.eng = integrals.NewEngine(st.set) })
	t0 := time.Now()
	st.scr = screen.BuildPairList(st.eng, screen.DefaultOptions())
	t1 := time.Now()
	st.pairlistWall = t1.Sub(t0)
	id := rec.add(parent, op, "screen", "screen.pairlist", t0, t1)
	rec.within(id, op, "integrals", "integrals.schwarz", t0, t0.Add(st.scr.Stats.SchwarzWall), st.scr.Stats.SchwarzWall)
	var costs []float64
	rec.call(parent, op, "hfx", "hfx.generate_tasks", func() {
		st.tasks = hfx.GenerateTasks(st.set, st.scr.Pairs, hfx.DefaultCostModel(), 0)
		costs = hfx.TaskCosts(st.tasks)
	})
	rec.call(parent, op, "sched", "sched.balance", func() { sched.PredictMakespan(sched.LPT, costs, 1) })
	return st, nil
}

// probePrep reports the admission layers' medians on one geometry.
func probePrep(rec *recorder, parent, op int, mol *chem.Molecule, threads, reps int, m metrics) (*prepState, error) {
	var st *prepState
	var basisWalls, schwarzWalls, pairlistWalls []time.Duration
	for i := 0; i < reps; i++ {
		var err error
		if st, err = walkPrep(rec, parent, op, mol); err != nil {
			return nil, err
		}
		basisWalls = append(basisWalls, st.basisWall)
		schwarzWalls = append(schwarzWalls, st.scr.Stats.SchwarzWall)
		pairlistWalls = append(pairlistWalls, st.pairlistWall)
	}
	m["basis.build_us_p50"] = medianUS(basisWalls)
	m["integrals.schwarz_ms_p50"] = medianMS(schwarzWalls)
	m["screen.pairlist_ms_p50"] = medianMS(pairlistWalls)
	m["screen.pairs_survived"] = float64(st.scr.Stats.SchwarzSurvived)
	m["hfx.tasks"] = float64(len(st.tasks))
	costs := hfx.TaskCosts(st.tasks)
	var asn *sched.Assignment
	m["sched.lpt_us_p50"] = medianUS(sample(reps, func() { asn = sched.Balance(sched.LPT, costs, threads) }))
	m["sched.balance_ratio"] = asn.BalanceRatio()
	return st, nil
}

// walkBuild runs one direct Fock build the way a buildjk job does —
// new builder, SAD density, BuildJK — with the build's phases as
// synthetic children from Report.Timings. It returns the report.
func walkBuild(rec *recorder, parent, op int, st *prepState, threads int) hfx.Report {
	var b *hfx.Builder
	rec.call(parent, op, "hfx", "hfx.new_builder", func() { b = hfx.NewBuilder(st.eng, st.scr, hfxOptions(threads)) })
	defer b.Close()
	var p *linalg.Matrix
	rec.call(parent, op, "scf", "scf.sad_density", func() { p = scf.SADDensity(st.set) })
	t0 := time.Now()
	jm, km, rep := b.BuildJK(p)
	t1 := time.Now()
	id := rec.add(parent, op, "hfx", "hfx.build_jk", t0, t1)
	at := t0
	for _, ph := range []string{"zero", "compute", "reduce"} {
		d := rep.Timings.Get(ph)
		end := at.Add(d)
		if end.After(t1) {
			end = t1
		}
		rec.add(id, op, "hfx", "hfx."+ph, at, end)
		at = end
	}
	rec.call(parent, op, "server", "server.summarize", func() {
		_, _, _ = jm.FrobeniusNorm(), km.FrobeniusNorm(), hfx.ExchangeEnergy(p, km)
	})
	return rep
}

// probeHFX reports the Fock-build layer on one prepared geometry:
// direct, semi-direct and ΔP builds, the build phases, rebind, the ERI
// cache and its spill image. Single-threaded, as an hfxd worker runs it.
func probeHFX(st *prepState, reps int, m metrics) {
	p := scf.SADDensity(st.set)
	m["hfx.newbuilder_ms_p50"] = medianMS(sample(reps, func() {
		hfx.NewBuilder(st.eng, st.scr, hfxOptions(1)).Close()
	}))

	direct := hfx.NewBuilder(st.eng, st.scr, hfxOptions(1))
	var rep hfx.Report
	direct.BuildJK(p) // first build allocates nothing later ones reuse, but warm the caches
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	walls := sample(reps, func() { _, _, rep = direct.BuildJK(p) })
	runtime.ReadMemStats(&ms1)
	m["hfx.direct_build_ms_p50"] = medianMS(walls)
	m["hfx.allocs_per_build"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
	m["hfx.zero_ms"] = ms(rep.Timings.Get("zero"))
	m["hfx.compute_ms"] = ms(rep.Timings.Get("compute"))
	m["hfx.reduce_ms"] = ms(rep.Timings.Get("reduce"))
	m["hfx.quartets_per_build"] = float64(rep.QuartetsComputed)
	m["integrals.ns_per_quartet"] = ratio(float64(rep.Timings.Get("compute").Nanoseconds()), float64(rep.QuartetsComputed))
	m["screen.quartet_skip_ratio"] = ratio(float64(rep.QuartetsScreened), float64(rep.QuartetsComputed+rep.QuartetsScreened))
	m["qpx.lane_utilization"] = rep.LaneUtilization
	direct.Close()

	semiOpts := hfxOptions(1)
	semiOpts.CacheBudgetBytes = 64 << 20
	semi := hfx.NewBuilder(st.eng, st.scr, semiOpts)
	defer semi.Close()
	semi.BuildJK(p) // fills the ERI cache
	m["hfx.semidirect_build_ms_p50"] = medianMS(sample(reps, func() { _, _, rep = semi.BuildJK(p) }))
	m["hfx.eri_cache_hit_ratio"] = rep.Cache.HitRatio()
	m["hfx.eri_cache_bytes"] = float64(rep.Cache.UsedBytes)
	dp := p.Clone().Scale(1e-4) // an SCF-late difference density
	m["hfx.incremental_build_ms_p50"] = medianMS(sample(reps, func() { semi.BuildJK(dp) }))

	var img []byte
	m["hfx.spill_export_ms"] = medianMS(sample(3, func() { img = semi.ExportERICache() }))
	m["hfx.spill_bytes"] = float64(len(img))
	if img != nil {
		cold := hfx.NewBuilder(st.eng, st.scr, semiOpts)
		m["hfx.spill_import_ms"] = medianMS(sample(3, func() { _, _ = cold.ImportERICache(img) }))
		cold.Close()
	}

	// Rebind to a geometry one MD step away (same composition).
	moved := st.mol.Clone()
	moved.Atoms[0].Pos[0] += 1e-2
	eng2 := integrals.NewEngine(basis.MustBuild(basisName, moved))
	engs := [2]*integrals.Engine{eng2, st.eng}
	i := 0
	m["hfx.rebind_us_p50"] = medianUS(sample(2*reps, func() { _ = semi.Rebind(engs[i%2]); i++ }))
}

// probeKernel times the scalar ERI kernel per shell-quartet class on
// the engine's own shells, the vector kernel on the all-p class, and
// the Boys function scalar and 4-wide.
func probeKernel(eng *integrals.Engine, reps int, m metrics) {
	var sS, pS []int
	for i, sh := range eng.Basis.Shells {
		switch sh.L {
		case 0:
			sS = append(sS, i)
		case 1:
			pS = append(pS, i)
		}
	}
	out := make([]float64, eng.MaxERIBufLen())
	scratch := integrals.NewScratch()
	// class times a fixed, spread-out set of quartets (a from ab, b from
	// cd, ...) and returns ns per shell quartet.
	class := func(ab, cd []int, vector bool) float64 {
		if len(ab) == 0 || len(cd) == 0 {
			return 0
		}
		const quartets = 16
		rounds := 3 * reps
		run := func() {
			for q := 0; q < quartets; q++ {
				a, b := ab[q%len(ab)], ab[(q/2+1)%len(ab)]
				c, d := cd[(q/3)%len(cd)], cd[(q/5+2)%len(cd)]
				eng.ERIShellScratch(a, b, c, d, out, vector, nil, scratch)
			}
		}
		run()
		return median(mapDur(sample(rounds, run), func(d time.Duration) float64 {
			return float64(d.Nanoseconds()) / quartets
		}))
	}
	m["integrals.eri_ssss_ns"] = class(sS, sS, false)
	m["integrals.eri_ppss_ns"] = class(pS, sS, false)
	m["integrals.eri_pppp_ns"] = class(pS, pS, false)
	m["integrals.eri_pppp_vec_ns"] = class(pS, pS, true)

	const evals = 4096
	rounds := 3 * reps
	var fm [8]float64
	m["boys.eval_ns"] = median(mapDur(sample(rounds, func() {
		for i := 0; i < evals; i++ {
			boys.Eval(4, 0.013*float64(i), fm[:5])
		}
	}), func(d time.Duration) float64 { return float64(d.Nanoseconds()) / evals }))
	var fv [8]qpx.Vec4
	m["qpx.boysbatch_ns"] = median(mapDur(sample(rounds, func() {
		for i := 0; i < evals; i++ {
			t := 0.013 * float64(i)
			qpx.BoysBatch(4, qpx.Vec4{t, t + 0.5, t + 7, t + 31}, fv[:5])
		}
	}), func(d time.Duration) float64 { return float64(d.Nanoseconds()) / evals }))
}

// scfTimed runs one SCF with OnIteration timestamps and returns the
// result, the run wall and the per-iteration walls. With a recorder it
// leaves an scf.run span with one scf.iter child per iteration.
func scfTimed(rec *recorder, parent, op int, mol *chem.Molecule, cfg scf.Config) (*scf.Result, time.Duration, []time.Duration, error) {
	var stamps []time.Time
	cfg.OnIteration = func(int, float64, float64) { stamps = append(stamps, time.Now()) }
	t0 := time.Now()
	res, err := scf.Run(mol, cfg)
	t1 := time.Now()
	if err != nil {
		return nil, 0, nil, err
	}
	id := rec.add(parent, op, "scf", "scf.run", t0, t1)
	iters := make([]time.Duration, len(stamps))
	prev := t0
	for i, s := range stamps {
		// The first interval also holds the one-off set-up (basis,
		// integrals, screening, guess); it stays in scf.run's self time.
		if i > 0 {
			rec.add(id, op, "scf", "scf.iter", prev, s)
		}
		iters[i] = s.Sub(prev)
		prev = s
	}
	return res, t1.Sub(t0), iters, nil
}

// probeSCF reports the SCF driver on one geometry: a Hartree–Fock run
// (iterations, per-iteration and total wall) and the extra cost per
// iteration of the PBE0 semilocal part over it.
func probeSCF(rec *recorder, parent, op int, mol *chem.Molecule, threads, reps int, m metrics) error {
	cfg := scf.Config{Basis: basisName, HFX: hfxOptions(threads)}
	cfg.HFX.CacheBudgetBytes = 64 << 20 // semi-direct, as the workloads' SCFs run
	var runs, iters []time.Duration
	var hf *scf.Result
	for i := 0; i < reps; i++ {
		res, wall, it, err := scfTimed(rec, parent, op, mol, cfg)
		if err != nil {
			return err
		}
		hf = res
		runs = append(runs, wall)
		iters = append(iters, it[1:]...)
	}
	m["scf.run_ms_p50"] = medianMS(runs)
	m["scf.iter_ms_p50"] = medianMS(iters)

	cfg.Functional = dft.PBE0{}
	pbe0, wall, _, err := scfTimed(rec, parent, op, mol, cfg)
	if err != nil {
		return err
	}
	m["dft.xc_ms_per_iter"] = ms(wall)/float64(pbe0.Iterations) - median(mapDur(runs, ms))/float64(hf.Iterations)

	var grid *dft.Grid
	m["dft.grid_build_ms_p50"] = medianMS(sample(reps, func() { grid = dft.BuildGrid(mol, dft.DefaultGridSpec()) }))
	m["dft.grid_points"] = float64(len(grid.Points))
	const evals = 1 << 16
	var sink float64
	m["dft.pbe0_eval_ns"] = median(mapDur(sample(2*reps, func() {
		for i := 0; i < evals; i++ {
			rho := 1e-3 + 1e-4*float64(i)
			f, _, _ := dft.PBE0{}.Eval(rho, 0.3*rho)
			sink += f
		}
	}), func(d time.Duration) float64 { return float64(d.Nanoseconds()) / evals }))
	_ = sink

	s := integrals.NewEngine(hf.Set).Overlap()
	m["linalg.eigensym_us_p50"] = medianUS(sample(4*reps, func() { linalg.EigenSym(s) }))
	m["linalg.mul_us_p50"] = medianUS(sample(4*reps, func() { linalg.Mul(s, s) }))
	return nil
}

// probeEncode reports the cost of putting a result on the wire and
// taking it off again, and its size.
func probeEncode(rec *recorder, parent, op int, res *server.JobResult) (us float64, bytes int) {
	var b []byte
	d := rec.call(parent, op, "server", "server.encode", func() {
		b, _ = json.Marshal(res)
		var back server.JobResult
		_ = json.Unmarshal(b, &back)
	})
	return float64(d) / float64(time.Microsecond), len(b)
}

// probeStore reports both tiers of a live store with a value of the
// given size: a fsynced put, a get straight after it (hot), and a get
// after DropHot (disk). The hot tier is dropped, so call it once the
// workload's own ops are done.
func probeStore(rec *recorder, parent, op int, st *store.Store, valueBytes int, m metrics) error {
	const keys = 32
	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = byte(i)
	}
	var puts, hot, disk []time.Duration
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("bench:probe:%02d", i)
		var err error
		puts = append(puts, rec.call(parent, op, "store", "store.put", func() {
			err = st.Put(key, append([]byte(nil), val...))
		}))
		if err != nil {
			return err
		}
		hot = append(hot, rec.call(parent, op, "store", "store.hot_get", func() { st.Get(key) }))
		st.DropHot()
		disk = append(disk, rec.call(parent, op, "store", "store.disk_get", func() { st.Get(key) }))
	}
	m["store.put_us_p50"] = medianUS(puts)
	m["store.hot_get_us_p50"] = medianUS(hot)
	m["store.disk_get_us_p50"] = medianUS(disk)
	return nil
}

// storeCounters reports a store's lifetime traffic from its registry.
func storeCounters(st *store.Store, m metrics) {
	reg := st.Registry()
	hits := float64(reg.Counter("store.hot_hits").Value())
	m["store.hot_hit_ratio"] = ratio(hits, hits+float64(reg.Counter("store.hot_misses").Value()))
	m["store.evictions"] = float64(reg.Counter("store.hot_evictions").Value())
	m["store.disk_bytes"] = float64(st.Stats().DiskBytes)
}

// probeCkpt reports the checkpoint writer on a state of the workload's
// size: journal append (every step), snapshot (every tenth), encoding.
func probeCkpt(dir string, state *ckpt.MDState, m metrics) error {
	w, err := ckpt.NewWriter(ckpt.Config{Dir: dir, Every: 10})
	if err != nil {
		return err
	}
	var appends, snaps []time.Duration
	st := state.Clone()
	for i := 1; i <= 40; i++ {
		st.Step = int64(i)
		t0 := time.Now()
		if err := w.OnStep(st); err != nil {
			w.Close()
			return err
		}
		if d := time.Since(t0); i%10 == 0 {
			snaps = append(snaps, d)
		} else {
			appends = append(appends, d)
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	m["ckpt.journal_append_us_p50"] = medianUS(appends)
	// A snapshot step also appends to the journal; charge it the rest.
	m["ckpt.snapshot_ms_p50"] = medianMS(snaps) - median(mapDur(appends, ms))
	m["ckpt.encode_us_p50"] = medianUS(sample(50, func() { ckpt.EncodeState(st) }))
	return nil
}

// probeAllreduce reports one in-process allreduce of a fused [J‖K]
// vector (2·n² float64) over four ranks.
func probeAllreduce(n int, m metrics) error {
	w, err := mprt.NewWorld(mprt.Options{Ranks: 4, Schedule: mprt.DimExchange})
	if err != nil {
		return err
	}
	defer w.Close()
	bufs := make([][]float64, 4)
	for r := range bufs {
		bufs[r] = make([]float64, 2*n*n)
	}
	var runErr error
	m["mprt.allreduce_r4_us_p50"] = medianUS(sample(20, func() {
		if err := w.Run(func(c *mprt.Comm) error { c.Allreduce(bufs[c.Rank()]); return nil }); err != nil {
			runErr = err
		}
	}))
	return runErr
}

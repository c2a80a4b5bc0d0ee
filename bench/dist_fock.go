package main

import (
	"fmt"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/hfx"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
)

// distFock runs the same quartets on four execution cores: one
// geometry ((H2O)4/STO-3G), one seeded dense density, and BuildJK calls
// cycling the thread pool, the rank runtime in two shapes and the
// stealing runtime, all with two compute goroutines. The quartet work
// is constant, so any latency difference between placements is
// sched/mprt/steal placement and reduction overhead. An op is one
// build.
type distFock struct{}

// Sized on the 2-core reference container: about 4.2 builds a second.
func (distFock) opsFor(seconds float64) int { return max(int(4.2*seconds)/4*4, 4) }

func (distFock) procs() int { return 2 }

// placement is one way of executing a Fock build on two goroutines.
type placement struct {
	name  string
	slots int // worker slots of the reduction tree: the single-rank Builder with this many threads gives the same bits
	build func(p *linalg.Matrix) (j, k *linalg.Matrix, rep placeReport, err error)
	close func()
}

// placeReport is the part of the three builders' reports dist_fock
// uses.
type placeReport struct {
	quartets               int64
	commBytes, reduceSteps int64
	commMax, computeMax    time.Duration
	steals, migrated       int64
	balanceMeasured        float64
	idleReclaimed          time.Duration
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func poolPlacement(st *prepState, threads int) placement {
	b := hfx.NewBuilder(st.eng, st.scr, hfxOptions(threads))
	return placement{
		name: fmt.Sprintf("pool_t%d", threads), slots: threads, close: b.Close,
		build: func(p *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix, placeReport, error) {
			j, k, rep := b.BuildJK(p)
			return j, k, placeReport{quartets: rep.QuartetsComputed}, nil
		},
	}
}

func distPlacement(st *prepState, ranks, threads int) (placement, error) {
	b, err := hfx.NewDistBuilder(st.eng, st.scr, hfx.DistOptions{
		Ranks: ranks, ThreadsPerRank: threads, Schedule: mprt.DimExchange, Opts: hfxOptions(0),
	})
	if err != nil {
		return placement{}, err
	}
	return placement{
		name: fmt.Sprintf("dist_r%dt%d", ranks, threads), slots: ranks * threads, close: b.Close,
		build: func(p *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix, placeReport, error) {
			j, k, rep, err := b.BuildJK(p)
			return j, k, placeReport{
				quartets: rep.QuartetsComputed, commBytes: rep.CommBytes, reduceSteps: rep.MeasuredSteps,
				commMax: maxDur(rep.RankComm), computeMax: maxDur(rep.RankCompute),
			}, err
		},
	}, nil
}

const stealUnits = 4

func stealPlacement(st *prepState, ranks, threads int, seed int64) (placement, error) {
	b, err := hfx.NewStealBuilder(st.eng, st.scr, hfx.StealOptions{
		Ranks: ranks, ThreadsPerRank: threads, UnitsPerThread: stealUnits,
		Schedule: mprt.DimExchange, Opts: hfxOptions(0), Steal: true, Seed: uint64(seed),
	})
	if err != nil {
		return placement{}, err
	}
	return placement{
		name: fmt.Sprintf("steal_r%dt%d", ranks, threads), slots: ranks * threads * stealUnits, close: b.Close,
		build: func(p *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix, placeReport, error) {
			j, k, rep, err := b.BuildJK(p)
			return j, k, placeReport{
				quartets: rep.QuartetsComputed, commBytes: rep.CommBytes, reduceSteps: rep.MeasuredSteps,
				steals: rep.StealsSucceeded, migrated: rep.BlocksMigrated,
				balanceMeasured: rep.BalanceRatioMeasured, idleReclaimed: rep.IdleReclaimed,
			}, err
		},
	}, nil
}

type distPass struct {
	e      *env
	st     *prepState
	p      *linalg.Matrix
	places []placement
	// got is what each placement produced: the matrices of its first
	// build and whether every later build had the same bits.
	got   map[string]*placeOutput
	hash  uint64
	genMS float64
}

type placeOutput struct {
	slots  int
	j, k   *linalg.Matrix
	sig    uint64
	stable bool
}

// reference is the single-rank Builder with the given thread count:
// what a placement with that many slots in its reduction tree must
// reproduce bit for bit.
func (d *distPass) reference(slots int) (j, k *linalg.Matrix) {
	b := hfx.NewBuilder(d.st.eng, d.st.scr, hfxOptions(slots))
	defer b.Close()
	j, k, _ = b.BuildJK(d.p)
	return j.Clone(), k.Clone()
}

func (distFock) setup(e *env) (pass, error) {
	t0 := time.Now()
	d := &distPass{e: e, got: map[string]*placeOutput{}}
	// The geometry is fixed — the quartet count must not move with the
	// seed, or seeds could not be compared; the seed drives the density.
	waters := 4
	if e.tiny {
		waters = 2
	}
	st, err := walkPrep(nil, 0, 0, chem.WaterCluster(waters, 1))
	if err != nil {
		return nil, err
	}
	d.st = st
	n := st.set.NBasis
	d.p = linalg.NewSquare(n)
	r := newRNG(e.seed, 3)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.float() - 0.5
			if i == j {
				v += 1
			}
			d.p.Set(i, j, v)
			d.p.Set(j, i, v)
		}
	}
	d.hash = hashOf(e.ops, d.p.Data)
	d.genMS = ms(time.Since(t0))

	d.places = append(d.places, poolPlacement(st, 2))
	for _, mk := range []func() (placement, error){
		func() (placement, error) { return distPlacement(st, 1, 2) },
		func() (placement, error) { return distPlacement(st, 2, 1) },
		func() (placement, error) { return stealPlacement(st, 2, 1, e.seed) },
	} {
		pl, err := mk()
		if err != nil {
			d.close()
			return nil, err
		}
		d.places = append(d.places, pl)
	}
	for _, pl := range d.places {
		if _, _, _, err := pl.build(d.p); err != nil { // warm-up
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *distPass) close() error {
	for _, pl := range d.places {
		pl.close()
	}
	d.places = nil
	return nil
}

// runBuild executes one build on a placement, notes its output for
// verify, and returns its latency and report.
func (d *distPass) runBuild(rec *recorder, op int, pl placement) (time.Duration, placeReport, error) {
	t0 := time.Now()
	j, k, rep, err := pl.build(d.p)
	t1 := time.Now()
	if err != nil {
		return 0, rep, err
	}
	sig := hashOf(j.Data, k.Data)
	if o := d.got[pl.name]; o == nil {
		d.got[pl.name] = &placeOutput{slots: pl.slots, j: j.Clone(), k: k.Clone(), sig: sig, stable: true}
	} else if o.sig != sig {
		o.stable = false
	}
	root := rec.add(0, op, "client", "client.op", t0, t1)
	id := rec.add(root, op, "hfx", "hfx."+pl.name+".build_jk", t0, t1)
	if rep.commMax > 0 {
		rec.within(id, op, "mprt", "mprt.collective", t0, t1, rep.commMax)
	}
	return t1.Sub(t0), rep, nil
}

// verify holds every placement against the single-rank build of its
// slot count: bitwise, so the ceiling on the distance is 0.
func (d *distPass) verify(out *outcome) error {
	refs := map[int][2]*linalg.Matrix{}
	for _, o := range d.got {
		ref, ok := refs[o.slots]
		if !ok {
			j, k := d.reference(o.slots)
			ref = [2]*linalg.Matrix{j, k}
			refs[o.slots] = ref
		}
		diff := max(linalg.MaxAbsDiff(o.j, ref[0]), linalg.MaxAbsDiff(o.k, ref[1]))
		if diff != 0 || !o.stable {
			out.failed++
		}
		out.accuracyErr = max(out.accuracyErr, diff)
	}
	return nil
}

func (d *distPass) measure(rec *recorder) (*outcome, error) {
	out := &outcome{opListHash: d.hash, genMS: d.genMS, accuracyCeil: 0, layer: metrics{}}
	perPlace := make(map[string][]time.Duration)
	var quartets float64
	var r2comm, r2compute []float64
	var steal placeReport
	var stealBalance []float64
	stealBuilds := 0
	for i := 0; i < d.e.ops; i++ {
		pl := d.places[i%len(d.places)]
		cpu0 := cpuNow()
		wall, rep, err := d.runBuild(rec, i, pl)
		if err != nil {
			return nil, err
		}
		out.attempted++
		out.done(pl.name, wall, cpuNow()-cpu0)
		perPlace[pl.name] = append(perPlace[pl.name], wall)
		quartets += float64(rep.quartets)
		switch pl.name {
		case "dist_r2t1":
			out.layer["mprt.r2_comm_bytes"] = float64(rep.commBytes)
			r2comm = append(r2comm, ms(rep.commMax))
			r2compute = append(r2compute, ms(rep.computeMax))
		case "steal_r2t1":
			stealBuilds++
			steal.steals += rep.steals
			steal.migrated += rep.migrated
			steal.idleReclaimed += rep.idleReclaimed
			stealBalance = append(stealBalance, rep.balanceMeasured)
		}
	}
	for _, o := range d.got {
		out.digest += hashOf(o.slots, o.sig)
	}
	out.layer["quartets_per_op"] = quartets / float64(out.attempted)
	for name, walls := range perPlace {
		out.layer["hfx."+name+"_build_ms_p50"] = medianMS(walls)
	}
	out.layer["hfx.dist_r1_over_pool"] = ratio(out.layer["hfx.dist_r1t2_build_ms_p50"], out.layer["hfx.pool_t2_build_ms_p50"])
	out.layer["mprt.r2_comm_ms_max"] = median(r2comm)
	out.layer["mprt.r2_compute_ms_max"] = median(r2compute)
	out.layer["steal.steals_succeeded"] = ratio(float64(steal.steals), float64(stealBuilds))
	out.layer["steal.blocks_migrated"] = ratio(float64(steal.migrated), float64(stealBuilds))
	out.layer["steal.idle_reclaimed_ms"] = ratio(ms(steal.idleReclaimed), float64(stealBuilds))
	out.layer["steal.balance_measured"] = median(stealBalance)
	return out, nil
}

// walk adds the four-rank shape (more ranks than cores: run once, for
// its exact traffic counts), takes one pool build apart, and probes the
// layers under the builders.
func (d *distPass) walk(rec *recorder, out *outcome, m metrics) error {
	r4, err := distPlacement(d.st, 4, 1)
	if err != nil {
		return err
	}
	_, rep, err := d.runBuild(rec, -2, r4)
	r4.close()
	if err != nil {
		return err
	}
	o := d.got[r4.name]
	refJ, refK := d.reference(o.slots)
	if diff := max(linalg.MaxAbsDiff(o.j, refJ), linalg.MaxAbsDiff(o.k, refK)); diff != 0 {
		out.failed++
		out.accuracyErr = max(out.accuracyErr, diff)
	}
	m["mprt.r4_comm_bytes"] = float64(rep.commBytes)
	m["mprt.r4_reduce_steps"] = float64(rep.reduceSteps)
	if err := probeAllreduce(d.st.set.NBasis, m); err != nil {
		return err
	}

	root := rec.open(0, -1, "walk", "walk.op")
	st, err := walkPrep(rec, root, -1, d.st.mol)
	if err != nil {
		return err
	}
	walkBuild(rec, root, -1, st, 2)
	rec.close(root)

	probeRoot := rec.open(0, -100, "probe", "probe.layers")
	defer rec.close(probeRoot)
	if _, err := probePrep(rec, probeRoot, -100, d.st.mol, 2, d.e.reps(), m); err != nil {
		return err
	}
	probeHFX(d.st, d.e.reps(), m)
	probeKernel(d.st.eng, d.e.reps(), m)
	return nil
}

package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hfxmd/internal/chem"
	"hfxmd/internal/fleet"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/scf"
	"hfxmd/internal/server"
)

// coldFock is result-cache-cold traffic through a real 2-instance
// fleet: every key is distinct, so integrals/boys/qpx/hfx do almost all
// the work and the store and the hit path almost none. Three ops in
// four are direct buildjk jobs on (H2O)3, one in four an SCF on (H2O)2
// with a 64 MiB semi-direct ERI cache.
type coldFock struct{}

// Sized on the 2-core reference container: one closed-loop client
// completes about 14 of these ops a second when the host is moderately
// busy, 17 when it is quiet.
func (coldFock) opsFor(seconds float64) int { return max(int(14*seconds)/4*4, 8) }

func (coldFock) procs() int { return 2 }

// bootFleet starts the fixed 2×1-worker cache-affinity fleet. The
// fleet-driven workloads drive it with ONE closed-loop client: hfxd's
// POST /v1/jobs blocks until the job is done, so a caller waits for its
// reply before it sends the next request. (With two clients on the two
// virtual CPUs of the shared reference guest, half the cold ops queued
// behind the other client's job on their home instance, the median sat
// on the edge between the queued and the unqueued mode, and the wall of
// an op was no longer its own — see steady.go.)
func bootFleet(storeDir string, cacheBytes int64) (*fleet.Cluster, error) {
	return fleet.New(fleet.Options{
		Instances: 2,
		Policy:    fleet.CacheAffinity,
		StoreDir:  storeDir,
		Server:    server.Config{Workers: 1, BuilderThreads: 1, CacheBytes: cacheBytes},
	})
}

// waterRequest is a job on a seeded random water cluster, sent as
// inline XYZ so the program under test sees only the geometry.
func waterRequest(kind string, waters int, geomSeed int64) server.JobRequest {
	var sb strings.Builder
	chem.WriteXYZ(&sb, chem.WaterCluster(waters, geomSeed))
	req := server.JobRequest{Kind: kind, XYZ: sb.String()}
	if kind == server.KindSCF {
		req.CacheMB = 64
	}
	return req
}

type coldPass struct {
	e       *env
	c       *fleet.Cluster
	jk, scf []server.JobRequest
	hash    uint64
	genMS   float64
	served  map[string]*server.JobResult // by XYZ: what the measured pass got back
}

func (coldFock) setup(e *env) (pass, error) {
	t0 := time.Now()
	p := &coldPass{e: e, served: map[string]*server.JobResult{}}
	jkWaters, scfWaters := 3, 2
	if e.tiny {
		jkWaters, scfWaters = 2, 1
	}
	nSCF := e.ops / 4
	for i := 0; i < e.ops-nSCF; i++ {
		p.jk = append(p.jk, waterRequest(server.KindBuildJK, jkWaters, e.seed*1_000_003+int64(i)))
	}
	for i := 0; i < nSCF; i++ {
		p.scf = append(p.scf, waterRequest(server.KindSCF, scfWaters, e.seed*1_000_003+int64(e.ops+i)))
	}
	for _, list := range [][]server.JobRequest{p.jk, p.scf} {
		for _, r := range list {
			p.hash = hashOf(p.hash, r.Kind, r.XYZ)
		}
	}
	p.genMS = ms(time.Since(t0))

	c, err := bootFleet(e.tmp, 0)
	if err != nil {
		return nil, err
	}
	p.c = c
	// Warm-up: one job of each kind straight at every instance, on
	// geometries outside the op list, so builders, HTTP connections and
	// the (H2O)2 density prefix exist before the first measured op.
	for i, inst := range c.Instances() {
		for k, req := range []server.JobRequest{
			waterRequest(server.KindBuildJK, jkWaters, -e.seed*1_000_003-int64(2*i+1)),
			waterRequest(server.KindSCF, scfWaters, -e.seed*1_000_003-int64(2*i+2)),
		} {
			res, err := inst.Client.Submit(context.Background(), req)
			if err != nil || res.State != server.StateDone {
				p.close()
				return nil, fmt.Errorf("cold_fock: warm-up %d on instance %d: %v %+v", k, i, err, res)
			}
		}
	}
	return p, nil
}

func (p *coldPass) close() error { return p.c.Close(context.Background()) }

// coldOp is one completed op.
type coldOp struct {
	res        *server.JobResult
	start, end time.Time
	cpu        time.Duration // process CPU from start to end
	failed     bool
}

// measure drives the op list with one closed-loop client: every fourth
// op, starting with the first, is the next SCF job and the others are
// the buildjk jobs in list order, so the density-prefix warm-start
// chain — and with it the SCF iteration counts — is fixed by the list.
func (p *coldPass) measure(rec *recorder) (*outcome, error) {
	fock0 := fockBuilds(p.c)
	out := &outcome{opListHash: p.hash, genMS: p.genMS, accuracyCeil: 1e-6, layer: metrics{}}
	var quartets, scfIters, scfRuns float64
	var routeMS, queueMS, jkRunMS, scfRunMS []float64
	queued := 0
	nextJK, nextSCF := 0, 0
	for i := 0; i < len(p.jk)+len(p.scf); i++ {
		var req server.JobRequest
		if (i%4 == 0 && nextSCF < len(p.scf)) || nextJK == len(p.jk) {
			req = p.scf[nextSCF]
			nextSCF++
		} else {
			req = p.jk[nextJK]
			nextJK++
		}
		op := submitOp(rec, p.c, req, i)
		out.attempted++
		res := op.res
		if op.failed || res.CacheHit || (res.SCF != nil && !res.SCF.Converged) {
			out.failed++
			continue
		}
		out.done(req.Kind, op.end.Sub(op.start), op.cpu)
		out.digest += resultSig(res)
		p.served[req.XYZ] = res
		routeMS = append(routeMS, ms(op.end.Sub(op.start))-res.QueueMS-res.RunMS)
		queueMS = append(queueMS, res.QueueMS)
		if res.QueueMS > 1 {
			queued++
		}
		if res.Build != nil {
			quartets += float64(res.Build.QuartetsComputed)
			jkRunMS = append(jkRunMS, res.RunMS)
		} else {
			scfIters += float64(res.SCF.Iterations)
			scfRuns++
			scfRunMS = append(scfRunMS, res.RunMS)
		}
	}
	n := float64(out.attempted)
	out.layer["quartets_per_op"] = quartets / n
	out.layer["fock_builds_per_op"] = (fockBuilds(p.c) - fock0) / n
	out.layer["fleet.route_ms_p50"] = median(routeMS)
	out.layer["fleet.queued_op_ratio"] = float64(queued) / n
	out.layer["server.queue_ms_p50"] = median(queueMS)
	out.layer["server.queue_ms_p90"] = quantile(queueMS, 0.9)
	out.layer["server.buildjk_run_ms_p50"] = median(jkRunMS)
	out.layer["server.scf_run_ms_p50"] = median(scfRunMS)
	out.layer["server.miss_ms_p50"] = median(out.lats())
	out.layer["scf.iters_per_run"] = ratio(scfIters, scfRuns)
	fleetCounters(p.c, out.layer)
	return out, nil
}

// accuracySamples is how many served builds a run checks against the
// oracle; each check is about 1.5 s of brute-force integrals.
const accuracySamples = 2

// verify checks a seeded sample of the served builds against the
// brute-force oracle, computed in-process on the same geometry and
// density.
func (p *coldPass) verify(out *outcome) error {
	r := newRNG(int64(p.hash), 11)
	for i := 0; i < min(accuracySamples, p.e.reps()); i++ {
		req := p.jk[r.intn(len(p.jk))]
		res := p.served[req.XYZ]
		if res == nil {
			continue // the op failed and is already counted
		}
		kerr, same, err := checkBuild(req, res)
		if err != nil {
			return err
		}
		if !same {
			out.failed++
		}
		out.accuracyErr = max(out.accuracyErr, kerr)
	}
	return nil
}

// submitOp sends one job through the router and, when traced, records
// the op's span tree: the client's wait, the router's call, and the
// server's queue and run intervals from the QueueMS/RunMS it reports.
func submitOp(rec *recorder, c *fleet.Cluster, req server.JobRequest, opID int) coldOp {
	op := coldOp{start: time.Now()}
	cpu0 := cpuNow()
	res, _, err := c.Submit(context.Background(), req)
	op.end = time.Now()
	op.cpu = cpuNow() - cpu0
	op.res = res
	op.failed = err != nil || res == nil || res.State != server.StateDone
	if rec != nil && !op.failed {
		root := rec.add(0, opID, "client", "client.op", op.start, op.end)
		sub := rec.add(root, opID, "fleet", "fleet.submit", op.start, op.end)
		run := time.Duration(res.RunMS * float64(time.Millisecond))
		queue := time.Duration(res.QueueMS * float64(time.Millisecond))
		runStart := rec.within(sub, opID, "server", "server.run", op.start, op.end, run)
		rec.within(sub, opID, "server", "server.queue", op.start, runStart, queue)
	}
	return op
}

// fockBuilds sums hfx.fock_builds over the instances' registries.
func fockBuilds(c *fleet.Cluster) float64 {
	var n int64
	for _, inst := range c.Instances() {
		n += inst.Srv.Metrics().Counter("hfx.fock_builds").Value()
	}
	return float64(n)
}

// fleetCounters reports the router's registry.
func fleetCounters(c *fleet.Cluster, m metrics) {
	reg := c.Registry()
	m["fleet.cache_hit_ratio"] = ratio(float64(reg.Counter("fleet.cache_hits").Value()),
		float64(reg.Counter("fleet.submitted").Value()))
	m["fleet.retry_sweeps"] = float64(reg.Counter("fleet.retry_sweeps").Value())
	m["fleet.rejected_busy"] = float64(reg.Counter("fleet.rejected_busy").Value())
}

// resultSig fingerprints the physics of a result: float bit patterns
// and counts, no IDs and no timings.
func resultSig(res *server.JobResult) uint64 {
	switch {
	case res.SCF != nil:
		s := res.SCF
		return hashOf(res.CacheKey, s.Energy, s.EOne, s.ECoulomb, s.EExchangeHF, s.EXC, s.ENuclear,
			s.Iterations, s.Dipole[:], s.Mulliken)
	case res.Build != nil:
		b := res.Build
		return hashOf(res.CacheKey, b.NBasis, b.QuartetsComputed, b.QuartetsScreened, b.JNorm, b.KNorm, b.ExchangeEnergy)
	case res.Screen != nil:
		s := res.Screen
		return hashOf(res.CacheKey, s.TotalPairs, s.DistanceSurvived, s.SchwarzSurvived, s.NTasks, s.TotalCostNS)
	}
	return hashOf(res.CacheKey, res.State)
}

// checkBuild rebuilds a served buildjk job in-process and returns
// max|K − K_ref| against hfx.ReferenceJK, and whether the in-process
// build reproduces the served norms bit for bit (which ties the served
// result to the matrices that were checked).
func checkBuild(req server.JobRequest, res *server.JobResult) (kerr float64, same bool, err error) {
	mol, err := chem.ParseXYZString(req.XYZ)
	if err != nil {
		return 0, false, err
	}
	st, err := walkPrep(nil, 0, 0, mol)
	if err != nil {
		return 0, false, err
	}
	b := hfx.NewBuilder(st.eng, st.scr, hfxOptions(1))
	defer b.Close()
	p := scf.SADDensity(st.set)
	jm, km, _ := b.BuildJK(p)
	same = jm.FrobeniusNorm() == res.Build.JNorm && km.FrobeniusNorm() == res.Build.KNorm
	jr, kr := hfx.ReferenceJK(integrals.NewEngine(st.set), p)
	return max(linalg.MaxAbsDiff(km, kr), linalg.MaxAbsDiff(jm, jr)), same, nil
}

// walk replays a seeded sample of the ops in-process, call by call, in
// the order a request meets the layers.
func (p *coldPass) walk(rec *recorder, out *outcome, m metrics) error {
	r := newRNG(int64(p.hash), 7)
	var priceMS, encUS, resBytes, covWalk, covRun []float64
	sampleJK, sampleSCF := min(6, len(p.jk)), min(2, len(p.scf))
	var firstJK *prepState
	for i := 0; i < sampleJK+sampleSCF; i++ {
		var req server.JobRequest
		if i < sampleJK {
			req = p.jk[r.intn(len(p.jk))]
		} else {
			req = p.scf[r.intn(len(p.scf))]
		}
		served := p.served[req.XYZ]
		if served == nil {
			continue
		}
		opID := -1 - i
		root := rec.open(0, opID, "walk", "walk.op")
		rec.call(root, opID, "fleet", "fleet.canonical_key", func() { _, _ = server.CanonicalKey(req) })
		mol, err := chem.ParseXYZString(req.XYZ)
		if err != nil {
			return err
		}
		admit := rec.open(root, opID, "server", "server.admit")
		st, err := walkPrep(rec, admit, opID, mol)
		rec.close(admit)
		if err != nil {
			return err
		}
		run := rec.open(root, opID, "server", "server.run")
		t0 := time.Now()
		if req.Kind == server.KindBuildJK {
			walkBuild(rec, run, opID, st, 1)
			if firstJK == nil {
				firstJK = st
			}
		} else {
			cfg := scf.Config{Basis: basisName, HFX: hfxOptions(1)}
			cfg.HFX.CacheBudgetBytes = int64(req.CacheMB) << 20
			if _, _, _, err := scfTimed(rec, run, opID, mol, cfg); err != nil {
				return err
			}
		}
		rec.close(run)
		if req.Kind == server.KindBuildJK {
			// A walked SCF starts from the SAD guess, the served one from a
			// stored density: only the builds are like for like.
			covWalk = append(covWalk, ms(time.Since(t0)))
			covRun = append(covRun, served.RunMS)
		}
		us, n := probeEncode(rec, root, opID, served)
		encUS = append(encUS, us)
		resBytes = append(resBytes, float64(n))
		// The last thing a miss does is file its result, and the first
		// thing the next request for the key does is look it up.
		key, val := "bench:walk:"+served.CacheKey, make([]byte, n)
		var perr error
		rec.call(root, opID, "store", "store.put", func() { perr = p.c.Store().Put(key, val) })
		if perr != nil {
			return perr
		}
		rec.call(root, opID, "store", "store.get", func() { p.c.Store().Get(key) })
		rec.close(root)

		// Router-side pricing of a fresh key: the whole admission prep in
		// one call. Timed outside the op's tree, which already holds it
		// call by call.
		priceMS = append(priceMS, medianMS(sample(1, func() { _, _, _ = server.PriceRequest(req, 1) })))
	}
	m["fleet.price_ms_p50"] = median(priceMS)
	m["server.encode_us_p50"] = median(encUS)
	m["server.result_bytes_p50"] = median(resBytes)
	m["trace.walk_coverage"] = ratio(sum(covWalk), sum(covRun))

	if firstJK != nil {
		probeRoot := rec.open(0, -100, "probe", "probe.layers")
		if _, err := probePrep(rec, probeRoot, -100, firstJK.mol, 1, p.e.reps(), m); err != nil {
			return err
		}
		probeHFX(firstJK, p.e.reps(), m)
		probeKernel(firstJK.eng, p.e.reps(), m)
		rec.close(probeRoot)
	}
	if len(p.scf) > 0 {
		mol, err := chem.ParseXYZString(p.scf[0].XYZ)
		if err != nil {
			return err
		}
		probeRoot := rec.open(0, -101, "probe", "probe.scf")
		err = probeSCF(rec, probeRoot, -101, mol, 1, p.e.reps(), m)
		rec.close(probeRoot)
		if err != nil {
			return err
		}
	}
	storeCounters(p.c.Store(), m)
	probeRoot := rec.open(0, -102, "probe", "probe.store")
	err := probeStore(rec, probeRoot, -102, p.c.Store(), int(m["server.result_bytes_p50"]), m)
	rec.close(probeRoot)
	return err
}

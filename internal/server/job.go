// Package server implements hfxd, the concurrent SCF/HFX job service:
// an HTTP/JSON front end that multiplexes many clients onto a small
// fixed pool of workers owning long-lived hfx.Builder/SCF state.
//
// The design leans on the paper's central observation — HFX task cost is
// *predictable* from the screened pair list — to do cost-aware admission:
// every job is priced at submit time (screening + cost model + the
// sched.PredictMakespan hook) and the bounded queue runs shortest-
// predicted-job-first with starvation aging, the serving-layer analogue
// of the paper's static LPT schedule. Identical jobs are answered from
// the result store's hot in-memory tier (or its disk tier) keyed by a
// canonical hash of the resolved geometry, basis and method options,
// skipping the builders entirely.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/phys"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
)

// The job kinds hfxd serves.
const (
	KindSCF         = "scf"          // full SCF energy (HF/LDA/PBE/PBE0)
	KindBuildJK     = "buildjk"      // one Fock build on the SAD guess density
	KindScreen      = "screen"       // screening statistics + cost prediction
	KindSolventScan = "solvent-scan" // Li2O2 approach profile (experiment E8)
	KindTrajectory  = "trajectory"   // RESPA AIMD campaign (multiple-time-step MD)
)

// JobRequest is the JSON body of POST /v1/jobs. Exactly one of System or
// XYZ selects the geometry (solvent-scan jobs use Solvent instead).
type JobRequest struct {
	// Kind is one of scf|buildjk|screen|solvent-scan (default scf).
	Kind string `json:"kind,omitempty"`
	// System names a built-in geometry:
	// water|h2|he|lih|lif|ch4|pc|dmso|li2o2|watercluster.
	System string `json:"system,omitempty"`
	// NWater sizes -system watercluster (default 4).
	NWater int `json:"nwater,omitempty"`
	// XYZ is an inline geometry in XYZ format (ångström).
	XYZ string `json:"xyz,omitempty"`
	// Charge is the total molecular charge.
	Charge int `json:"charge,omitempty"`
	// Basis names a built-in basis set (default STO-3G).
	Basis string `json:"basis,omitempty"`
	// Functional is HF|LDA|PBE|PBE0 (default HF).
	Functional string `json:"functional,omitempty"`
	// Screen is the integral screening threshold ε (default 1e-8).
	Screen float64 `json:"screen,omitempty"`
	// DensityWeighted toggles P-weighted quartet screening (default on,
	// the paper's production setting).
	DensityWeighted *bool `json:"densityWeighted,omitempty"`
	// MaxIter bounds the SCF iterations (default 100).
	MaxIter int `json:"maxIter,omitempty"`
	// CacheMB enables semi-direct Fock builds: a per-builder ERI block
	// cache of up to this many MiB replays surviving integral blocks
	// across SCF iterations instead of recomputing them (0 = fully
	// direct). It never changes the numbers, only the speed, so it is
	// part of the builder identity but not of the result cache key.
	CacheMB int `json:"cacheMb,omitempty"`
	// Ranks runs the Fock build on the in-process mprt multi-rank runtime
	// (kind buildjk only): the screened task list is statically
	// partitioned over this many torus-mapped ranks and the partial J/K
	// are combined with deterministic collectives. The result is bitwise
	// identical to the single-rank build, so ranks shapes the builder —
	// and the per-rank phase walls in /metrics — but not the result cache
	// key. 0 or 1 means single-rank; the semi-direct ERI cache (cacheMb)
	// is disabled on the distributed path.
	Ranks int `json:"ranks,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default). The deadline is checked between SCF iterations.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`

	// Solvent-scan parameters (kind solvent-scan only).
	Solvent string  `json:"solvent,omitempty"` // PC|DMSO (default PC)
	Points  int     `json:"points,omitempty"`  // scan points (default 5)
	RMin    float64 `json:"rmin,omitempty"`    // closest approach, bohr (default 3.4)
	RMax    float64 `json:"rmax,omitempty"`    // farthest approach, bohr (default 9.0)

	// Trajectory parameters (kind trajectory only): a short RESPA AIMD
	// campaign on the requested model chemistry.
	// MaxSteps is the outer-step count — full-force evaluations (default 4).
	MaxSteps int `json:"maxSteps,omitempty"`
	// RespaK is the RESPA split: inner (cheap-force) steps per outer
	// step (default 2; 1 recovers single-time-step BOMD).
	RespaK int `json:"respaK,omitempty"`
	// DtFS is the inner timestep in femtoseconds (default 0.5).
	DtFS float64 `json:"dtFs,omitempty"`
	// TempK seeds Maxwell–Boltzmann velocities and drives the Berendsen
	// bath (default 300).
	TempK float64 `json:"tempK,omitempty"`
	// Ref selects the cheap reference force: spring|loose|baseline
	// (default spring).
	Ref string `json:"ref,omitempty"`
	// Seed makes velocity initialisation reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// normalize fills defaults in place so that equivalent requests have
// identical field values before cache-key hashing.
func (r *JobRequest) normalize() {
	if r.Kind == "" {
		r.Kind = KindSCF
	}
	r.Kind = strings.ToLower(r.Kind)
	if r.System == "" && r.XYZ == "" && r.Kind != KindSolventScan {
		r.System = "water"
	}
	r.System = strings.ToLower(r.System)
	if r.NWater == 0 {
		r.NWater = 4
	}
	if r.Basis == "" {
		r.Basis = "STO-3G"
	}
	if r.Functional == "" {
		r.Functional = "HF"
	}
	r.Functional = strings.ToUpper(r.Functional)
	if r.Screen == 0 {
		r.Screen = 1e-8
	}
	if r.DensityWeighted == nil {
		t := true
		r.DensityWeighted = &t
	}
	if r.Kind == KindSolventScan {
		if r.Solvent == "" {
			r.Solvent = "PC"
		}
		r.Solvent = strings.ToUpper(r.Solvent)
		if r.Points == 0 {
			r.Points = 5
		}
		if r.RMin == 0 {
			r.RMin = 3.4
		}
		if r.RMax == 0 {
			r.RMax = 9.0
		}
	}
	if r.Kind == KindTrajectory {
		if r.MaxSteps == 0 {
			r.MaxSteps = 4
		}
		if r.RespaK == 0 {
			r.RespaK = 2
		}
		if r.DtFS == 0 {
			r.DtFS = 0.5
		}
		if r.TempK == 0 {
			r.TempK = 300
		}
		if r.Ref == "" {
			r.Ref = respa.RefSpring
		}
		r.Ref = strings.ToLower(r.Ref)
		if r.Seed == 0 {
			r.Seed = 1
		}
	}
}

// decodeRequest reads one POST /v1/jobs body: unknown fields are an
// error, defaults are filled in, and the request is validated. It does
// no geometry, screening or pricing work.
func decodeRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	req.normalize()
	return req, req.validate()
}

// validate rejects malformed requests before any work is done.
func (r *JobRequest) validate() error {
	switch r.Kind {
	case KindSCF, KindBuildJK, KindScreen:
	case KindTrajectory:
		if r.MaxSteps < 1 || r.MaxSteps > maxTrajectorySteps {
			return fmt.Errorf("trajectory needs 1 <= maxSteps <= %d, got %d", maxTrajectorySteps, r.MaxSteps)
		}
		if r.RespaK < 1 || r.RespaK > maxTrajectoryK {
			return fmt.Errorf("trajectory needs 1 <= respaK <= %d, got %d", maxTrajectoryK, r.RespaK)
		}
		if !(r.DtFS > 0) {
			return fmt.Errorf("trajectory needs dtFs > 0, got %g", r.DtFS)
		}
		if r.TempK < 0 {
			return fmt.Errorf("negative tempK %g", r.TempK)
		}
		switch r.Ref {
		case respa.RefSpring, respa.RefLoose, respa.RefBaseline:
		default:
			return fmt.Errorf("unknown trajectory ref %q (want %s, %s or %s)",
				r.Ref, respa.RefSpring, respa.RefLoose, respa.RefBaseline)
		}
	case KindSolventScan:
		if r.Solvent != "PC" && r.Solvent != "DMSO" {
			return fmt.Errorf("unknown solvent %q (want PC or DMSO)", r.Solvent)
		}
		if r.Points < 2 {
			return fmt.Errorf("solvent-scan needs at least 2 points, got %d", r.Points)
		}
		if !(r.RMin > 0 && r.RMax > r.RMin) {
			return fmt.Errorf("solvent-scan needs 0 < rmin < rmax, got [%g, %g]", r.RMin, r.RMax)
		}
	default:
		return fmt.Errorf("unknown job kind %q", r.Kind)
	}
	if r.System != "" && r.XYZ != "" {
		return fmt.Errorf("system and xyz are mutually exclusive")
	}
	if _, ok := dft.ByName(r.Functional); !ok {
		return fmt.Errorf("unknown functional %q", r.Functional)
	}
	if r.Screen < 0 {
		return fmt.Errorf("negative screening threshold %g", r.Screen)
	}
	if r.CacheMB < 0 {
		return fmt.Errorf("negative cacheMb %d", r.CacheMB)
	}
	if r.Ranks < 0 {
		return fmt.Errorf("negative ranks %d", r.Ranks)
	}
	if r.Ranks > maxJobRanks {
		return fmt.Errorf("ranks %d exceeds the per-job limit %d", r.Ranks, maxJobRanks)
	}
	if r.Ranks > 1 && r.Kind != KindBuildJK {
		return fmt.Errorf("ranks is only supported for buildjk jobs")
	}
	if r.NWater < 1 || r.NWater > maxNWater {
		return fmt.Errorf("nwater needs 1 <= nwater <= %d, got %d", maxNWater, r.NWater)
	}
	return nil
}

// maxJobRanks bounds the mprt world one job may request: each rank is a
// goroutine with its own persistent pool, so the limit keeps a single
// request from monopolising the process.
const maxJobRanks = 64

// maxNWater bounds -system watercluster: the cluster is built and
// screened at admission, before the queue can refuse it, so an unbounded
// size would let one request exhaust memory. 64 waters is the largest
// cluster the paper-scale census needs.
const maxNWater = 64

// maxTrajectorySteps and maxTrajectoryK bound a trajectory campaign:
// every outer step costs an SCF run and a gradient build, so an unbounded
// request could pin a worker for hours. Long campaigns belong in cmd/aimd,
// where checkpointing makes them resumable.
const (
	maxTrajectorySteps = 64
	maxTrajectoryK     = 16
)

// resolveMolecule maps the request's geometry selector to a Molecule.
// For solvent-scan jobs it returns the closest-approach geometry, which
// dominates the predicted cost.
func (r *JobRequest) resolveMolecule() (*chem.Molecule, error) {
	if r.Kind == KindSolventScan {
		return chem.SolvatedPeroxide(r.Solvent, r.RMin)
	}
	if r.XYZ != "" {
		mol, err := chem.ReadXYZ(strings.NewReader(r.XYZ))
		if err != nil {
			return nil, err
		}
		mol.Charge = r.Charge
		return mol, nil
	}
	var mol *chem.Molecule
	switch r.System {
	case "water":
		mol = chem.Water()
	case "h2":
		mol = chem.Hydrogen(1.4)
	case "he":
		mol = chem.Helium()
	case "lih":
		mol = chem.LithiumHydride()
	case "lif":
		mol = chem.LithiumFluoride()
	case "ch4":
		mol = chem.Methane()
	case "pc":
		mol = chem.PropyleneCarbonate()
	case "dmso":
		mol = chem.DimethylSulfoxide()
	case "li2o2":
		mol = chem.LithiumPeroxide()
	case "watercluster":
		mol = chem.WaterCluster(r.NWater, 1)
	default:
		return nil, fmt.Errorf("unknown system %q", r.System)
	}
	mol.Charge = r.Charge
	return mol, nil
}

// cacheKey returns the canonical hash identifying the *numerical*
// content of a job: kind, resolved geometry (element + position in bohr
// at full float precision, charge), basis, functional, screening
// options and the density-weighting flag. Options that cannot change
// the result — worker threads, balancer, deadline — are deliberately
// excluded, so e.g. the same job submitted with different timeouts is
// one cache entry. The request must be normalized first.
func (r *JobRequest) cacheKey(mol *chem.Molecule) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s;basis=%s;func=%s;screen=%.17g;dw=%v;maxiter=%d;",
		r.Kind, r.Basis, r.Functional, r.Screen, *r.DensityWeighted, r.MaxIter)
	if r.Kind == KindSolventScan {
		fmt.Fprintf(&sb, "solvent=%s;points=%d;rmin=%.17g;rmax=%.17g;",
			r.Solvent, r.Points, r.RMin, r.RMax)
	}
	if r.Kind == KindTrajectory {
		fmt.Fprintf(&sb, "maxsteps=%d;k=%d;dt=%.17g;temp=%.17g;ref=%s;seed=%d;",
			r.MaxSteps, r.RespaK, r.DtFS, r.TempK, r.Ref, r.Seed)
	}
	fmt.Fprintf(&sb, "charge=%d;", mol.Charge)
	for _, a := range mol.Atoms {
		fmt.Fprintf(&sb, "%d:%.17g,%.17g,%.17g;", int(a.El), a.Pos[0], a.Pos[1], a.Pos[2])
	}
	h := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(h[:16])
}

// JobResult is the JSON response of POST /v1/jobs. Exactly one of the
// payload pointers (SCF, Build, Screen, Scan) is set for a done job.
type JobResult struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"` // done|failed|cancelled
	// CacheHit marks a result served from the result store without touching
	// a builder; CacheKey is the canonical job hash.
	CacheHit bool   `json:"cacheHit"`
	CacheKey string `json:"cacheKey"`
	// PredictedCostNS is the admission-time cost prediction (cost-model
	// nanoseconds) used for queue ordering.
	PredictedCostNS float64 `json:"predictedCostNs,omitempty"`
	QueueMS         float64 `json:"queueMs"`
	RunMS           float64 `json:"runMs"`
	Error           string  `json:"error,omitempty"`

	SCF    *SCFSummary    `json:"scf,omitempty"`
	Build  *BuildSummary  `json:"build,omitempty"`
	Screen *ScreenSummary `json:"screen,omitempty"`
	Scan   *ScanSummary   `json:"scan,omitempty"`
	Traj   *TrajSummary   `json:"traj,omitempty"`
}

// SCFSummary is the shared JSON encoding of a converged SCF result, used
// by the server and by cmd/scfrun -json.
type SCFSummary struct {
	Energy      float64 `json:"energy"`
	EOne        float64 `json:"eOne"`
	ECoulomb    float64 `json:"eCoulomb"`
	EExchangeHF float64 `json:"eExchangeHF"`
	EXC         float64 `json:"exc"`
	ENuclear    float64 `json:"eNuclear"`
	Converged   bool    `json:"converged"`
	Iterations  int     `json:"iterations"`
	NBasis      int     `json:"nbasis"`
	// HOMO and LUMO are omitted when undefined (no occupied orbitals,
	// or a minimal basis with no virtuals — e.g. He/STO-3G): NaN is not
	// representable in JSON.
	HOMO     *float64   `json:"homo,omitempty"`
	LUMO     *float64   `json:"lumo,omitempty"`
	Dipole   [3]float64 `json:"dipole"`
	Mulliken []float64  `json:"mulliken,omitempty"`
}

// SummarizeSCF builds the shared wire encoding from an SCF result.
// finiteOrNil maps NaN/Inf to nil so the value JSON-encodes as absent.
func finiteOrNil(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

func SummarizeSCF(res *scf.Result) *SCFSummary {
	eng := integrals.NewEngine(res.Set)
	return &SCFSummary{
		Energy:      res.Energy,
		EOne:        res.EOne,
		ECoulomb:    res.ECoulomb,
		EExchangeHF: res.EExchangeHF,
		EXC:         res.EXC,
		ENuclear:    res.ENuclear,
		Converged:   res.Converged,
		Iterations:  res.Iterations,
		NBasis:      res.Set.NBasis,
		HOMO:        finiteOrNil(res.HOMO()),
		LUMO:        finiteOrNil(res.LUMO()),
		Dipole:      scf.Dipole(res, eng),
		Mulliken:    scf.MullikenCharges(res, eng),
	}
}

// BuildSummary reports one Fock build (kind buildjk): compact matrix
// fingerprints plus the builder's execution report.
type BuildSummary struct {
	NBasis           int     `json:"nbasis"`
	NTasks           int     `json:"ntasks"`
	QuartetsComputed int64   `json:"quartetsComputed"`
	QuartetsScreened int64   `json:"quartetsScreened"`
	BalanceRatio     float64 `json:"balanceRatio"`
	WallNS           int64   `json:"wallNs"`
	JNorm            float64 `json:"jNorm"`
	KNorm            float64 `json:"kNorm"`
	// ExchangeEnergy is −¼·tr(P·K) for the SAD guess density.
	ExchangeEnergy float64 `json:"exchangeEnergy"`
	// EriCacheHits/Misses report the semi-direct ERI block cache traffic
	// of this build (absent for fully direct builders, cacheMb = 0).
	EriCacheHits   int64 `json:"eriCacheHits,omitempty"`
	EriCacheMisses int64 `json:"eriCacheMisses,omitempty"`
	// Ranks/CommBytes/ReduceSteps describe the distributed path (requests
	// with ranks > 1): the mprt rank count, total collective traffic and
	// the measured reduce-scatter + allgather schedule steps. Absent for
	// single-rank builds.
	Ranks       int   `json:"ranks,omitempty"`
	CommBytes   int64 `json:"commBytes,omitempty"`
	ReduceSteps int64 `json:"reduceSteps,omitempty"`
}

// ScreenSummary reports screening statistics and the admission-time cost
// prediction (kind screen).
type ScreenSummary struct {
	TotalPairs       int     `json:"totalPairs"`
	DistanceSurvived int     `json:"distanceSurvived"`
	SchwarzSurvived  int     `json:"schwarzSurvived"`
	NTasks           int     `json:"ntasks"`
	TotalCostNS      float64 `json:"totalCostNs"`
	MakespanNS       float64 `json:"makespanNs"`
	Threads          int     `json:"threads"`
}

// ScanPointJSON is one point of a solvent-scan profile, shared with
// cmd/solvents -json.
type ScanPointJSON struct {
	R         float64 `json:"r"`      // constrained coordinate, bohr
	Energy    float64 `json:"energy"` // hartree
	Rel       float64 `json:"rel"`    // hartree, vs the first (farthest) point
	Converged bool    `json:"converged"`
}

// ScanSummary is the result of a solvent-scan job: the approach profile
// of Li2O2 towards the solvent's electrophilic centre and the depth of
// the encounter well (the E8 stability gauge).
type ScanSummary struct {
	Solvent  string          `json:"solvent"`
	Points   []ScanPointJSON `json:"points"`
	WellKcal float64         `json:"wellKcal"`
}

// prepared is the admission-time state of a job: the resolved geometry,
// instantiated basis, integral engine, screened pair list and task
// decomposition. Workers reuse it so the screening work done to price
// the job is not repeated for buildjk/screen kinds.
type prepared struct {
	mol   *chem.Molecule
	set   *basis.Set
	eng   *integrals.Engine
	scr   *screen.Result
	tasks []hfx.Task
	// opts are the options tasks were priced under and the job's builder
	// is made with, so the builder takes the tasks as they are.
	opts hfx.Options
	// builderKey identifies the (geometry, basis, screening, options)
	// combination a builder is specific to; workers reuse a live builder
	// across consecutive jobs with the same key.
	builderKey string
	// totalNS/makespanNS are the cost-model predictions for one Fock
	// build: serial cost and the LPT makespan on the server's builder
	// thread count.
	totalNS, makespanNS float64
}

// scfIterationsEstimate is the Fock-build count assumed when pricing an
// SCF job: admission ordering needs relative, not absolute, accuracy.
const scfIterationsEstimate = 15

// gradientBuildsEstimate prices the analytic gradient of a converged SCF
// in Fock builds. Its exchange phase walks the build's own screened
// quartets and contracts up to twelve derivative blocks one Hermite degree
// higher for each (six when one of the two pairs sits on a single atom);
// measured on one thread against a direct BuildJK it costs 1.1× (LiH),
// 1.8× (H2O), 3.1× ((H2O)2), 3.3× ((H2O)3) and 3.8× (propylene carbonate)
// in STO-3G and 1.6× for H2O/6-31G*, rising as fewer pairs share an atom,
// and the one-electron and XC terms add a few tenths of a build.
const gradientBuildsEstimate = 4

// prepare resolves, screens and prices a normalized request. The
// returned predicted cost is in cost-model nanoseconds.
func prepare(req *JobRequest, threads int, sopts screen.Options) (*prepared, float64, error) {
	mol, err := req.resolveMolecule()
	if err != nil {
		return nil, 0, err
	}
	set, err := basis.Build(req.Basis, mol)
	if err != nil {
		return nil, 0, err
	}
	eng := integrals.NewEngine(set)
	scr := screen.BuildPairList(eng, sopts)
	opts := hfxOptions(req, threads)
	tasks := hfx.BuilderTasks(eng, scr, opts.Cost, opts.Granule)
	costs := hfx.TaskCosts(tasks)
	p := &prepared{
		mol: mol, set: set, eng: eng, scr: scr, tasks: tasks, opts: opts,
		totalNS:    sched.TotalCost(costs),
		makespanNS: sched.PredictMakespan(sched.LPT, costs, max(threads, 1)),
	}
	// The geometry+method hash doubles as builder identity; the ERI cache
	// budget and the rank count shape the builder (not the result — the
	// distributed build is bitwise-pinned), so they extend the key.
	p.builderKey = fmt.Sprintf("%s;cachemb=%d;ranks=%d",
		req.cacheKey(mol), req.CacheMB, max(req.Ranks, 1))
	predicted := p.makespanNS
	switch req.Kind {
	case KindSCF:
		predicted *= scfIterationsEstimate
	case KindSolventScan:
		predicted *= scfIterationsEstimate * float64(req.Points)
	case KindTrajectory:
		// Each outer step evaluates the full surface once: one SCF and
		// its analytic gradient. Inner cheap steps are priced at zero (the
		// spring reference literally is; the SCF references are bounded by
		// the same term).
		predicted *= (scfIterationsEstimate + gradientBuildsEstimate) * float64(req.MaxSteps)
	case KindScreen:
		// All the work already happened here at admission.
		predicted = 0
	}
	return p, predicted, nil
}

// jobState values.
const (
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// frobenius returns the Frobenius norm of m.
func frobenius(m *linalg.Matrix) float64 { return m.FrobeniusNorm() }

// wellDepth returns the most negative relative energy of a profile in
// kcal/mol (0 when the profile is purely repulsive).
func wellDepth(pts []ScanPointJSON) float64 {
	var well float64
	for _, p := range pts {
		if p.Converged && p.Rel < well {
			well = p.Rel
		}
	}
	return well * phys.HartreeToKcalMol
}

// retryAfterSeconds estimates how long a client should wait before
// resubmitting when the queue is full: the predicted work ahead of the
// retry — everything queued, everything the workers are currently
// executing, and the rejected job itself — divided by the worker count,
// clamped to [1, 300] seconds. In-flight work matters: with an empty
// queue but every worker minutes deep into a running job, the queued
// cost alone would suggest an immediate retry that is guaranteed to
// find the workers still busy.
func retryAfterSeconds(queuedNS, inflightNS, newNS float64, workers int) int {
	s := (queuedNS + inflightNS + newNS) / float64(max(workers, 1)) / float64(time.Second)
	switch {
	case s < 1:
		return 1
	case s > 300:
		return 300
	default:
		return int(s + 0.5)
	}
}

// CanonicalKey returns the canonical result-cache hash of a request —
// the identity a fleet router needs for cache-affinity routing — without
// doing any screening work. The request is normalized and validated on a
// copy; the caller's value is not mutated.
func CanonicalKey(req JobRequest) (string, error) {
	req.normalize()
	if err := req.validate(); err != nil {
		return "", err
	}
	mol, err := req.resolveMolecule()
	if err != nil {
		return "", err
	}
	return req.cacheKey(mol), nil
}

// PriceRequest resolves, screens and prices a request exactly as server
// admission would (sched.PredictMakespan over the screened task costs),
// returning the canonical cache key and the predicted cost in cost-model
// nanoseconds, for callers that want a job's price before submitting it
// (the fleet router does not price). The request is normalized on a
// copy.
func PriceRequest(req JobRequest, threads int) (key string, predictedNS float64, err error) {
	req.normalize()
	if err := req.validate(); err != nil {
		return "", 0, err
	}
	sopts := screen.DefaultOptions()
	sopts.Threshold = req.Screen
	prep, predicted, err := prepare(&req, max(threads, 1), sopts)
	if err != nil {
		return "", 0, err
	}
	return req.cacheKey(prep.mol), predicted, nil
}

package hfxmd

import (
	"context"
	"io"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/bgq"
	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/dft"
	"hfxmd/internal/fleet"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/md"
	"hfxmd/internal/mprt"
	"hfxmd/internal/opt"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/server"
	"hfxmd/internal/store"
	"hfxmd/internal/torus"
	"hfxmd/internal/trace"
)

// ---------------------------------------------------------------------------
// Chemistry layer.

// Molecule is an open-boundary cluster: a set of atoms with a charge.
type Molecule = chem.Molecule

// Atom is a nucleus with element and position (bohr).
type Atom = chem.Atom

// Vec3 is a Cartesian vector in bohr.
type Vec3 = chem.Vec3

// Element identifies a chemical element.
type Element = chem.Element

// Geometry builders for the paper's systems.
var (
	Water              = chem.Water
	WaterCluster       = chem.WaterCluster
	Hydrogen           = chem.Hydrogen
	Helium             = chem.Helium
	LithiumHydride     = chem.LithiumHydride
	LithiumFluoride    = chem.LithiumFluoride
	Methane            = chem.Methane
	PropyleneCarbonate = chem.PropyleneCarbonate
	DimethylSulfoxide  = chem.DimethylSulfoxide
	LithiumPeroxide    = chem.LithiumPeroxide
	SolvatedPeroxide   = chem.SolvatedPeroxide
)

// ReadXYZ parses a molecule from XYZ (coordinates in ångström).
func ReadXYZ(r io.Reader) (*Molecule, error) { return chem.ReadXYZ(r) }

// WriteXYZ writes a molecule in XYZ format.
func WriteXYZ(w io.Writer, m *Molecule) error { return chem.WriteXYZ(w, m) }

// ---------------------------------------------------------------------------
// Electronic-structure layer.

// Matrix is the dense matrix type used throughout the library.
type Matrix = linalg.Matrix

// BasisSet is an instantiated basis.
type BasisSet = basis.Set

// BuildBasis instantiates a named built-in basis set ("STO-3G", "3-21G",
// "6-31G") on a molecule.
func BuildBasis(name string, mol *Molecule) (*BasisSet, error) { return basis.Build(name, mol) }

// AvailableBasisSets lists the built-in basis set names.
func AvailableBasisSets() []string { return basis.Available() }

// Functional is a density functional (HF, LDA, PBE, PBE0).
type Functional = dft.Functional

// The supported model chemistries.
type (
	// HF selects pure Hartree–Fock.
	HF = dft.HF
	// LDA selects SVWN5.
	LDA = dft.LDA
	// PBE selects the PBE GGA.
	PBE = dft.PBE
	// PBE0 selects the paper's hybrid: ¼ exact + ¾ PBE exchange.
	PBE0 = dft.PBE0
)

// FunctionalByName resolves "HF", "LDA", "PBE" or "PBE0".
func FunctionalByName(name string) (Functional, bool) { return dft.ByName(name) }

// SCFConfig configures an SCF run.
type SCFConfig = scf.Config

// SCFResult is a converged (or not) SCF state.
type SCFResult = scf.Result

// GridSpec controls the DFT integration grid.
type GridSpec = dft.GridSpec

// RunSCF performs a restricted SCF calculation.
func RunSCF(mol *Molecule, cfg SCFConfig) (*SCFResult, error) { return scf.Run(mol, cfg) }

// RunSCFContext is RunSCF with a cancellation context, polled once per
// SCF iteration: deadlines and client disconnects stop the solver
// between iterations, returning the partial result and the context
// error. The hfxd job service uses this to keep hung jobs from pinning
// its workers.
func RunSCFContext(ctx context.Context, mol *Molecule, cfg SCFConfig) (*SCFResult, error) {
	return scf.RunContext(ctx, mol, cfg)
}

// UHFResult is an unrestricted (open-shell) SCF result.
type UHFResult = scf.UnrestrictedResult

// RunUHF performs a spin-unrestricted Hartree–Fock calculation for the
// given multiplicity (2S+1; 0 picks the lowest consistent value). Needed
// for the open-shell intermediates of Li/air chemistry (O2⁻, LiO2).
func RunUHF(mol *Molecule, cfg SCFConfig, multiplicity int) (*UHFResult, error) {
	return scf.RunUnrestricted(mol, cfg, multiplicity)
}

// MullikenCharges returns per-atom partial charges for a converged result.
func MullikenCharges(res *SCFResult) []float64 {
	return scf.MullikenCharges(res, integrals.NewEngine(res.Set))
}

// DipoleMoment returns the dipole vector (a.u.) for a converged result.
func DipoleMoment(res *SCFResult) [3]float64 {
	return scf.Dipole(res, integrals.NewEngine(res.Set))
}

// ---------------------------------------------------------------------------
// Exchange layer (the paper's core contribution).

// ExchangeOptions configures the task-parallel HFX builder.
type ExchangeOptions = hfx.Options

// ExchangeReport describes one exchange build.
type ExchangeReport = hfx.Report

// ScreeningOptions controls integral screening (threshold ε etc.).
type ScreeningOptions = screen.Options

// PaperExchangeOptions returns the paper's production configuration
// (LPT balancing, density-weighted screening, vector kernels).
func PaperExchangeOptions() ExchangeOptions { return hfx.DefaultOptions() }

// BaselineExchangeOptions returns the state-of-the-art comparator.
func BaselineExchangeOptions() ExchangeOptions { return hfx.BaselineOptions() }

// DefaultScreening returns the production screening options (ε = 1e-8).
func DefaultScreening() ScreeningOptions { return screen.DefaultOptions() }

// ExchangeBuilder evaluates J and K matrices for a fixed geometry.
type ExchangeBuilder struct {
	b *hfx.Builder
}

// NewExchangeBuilder prepares the screened task decomposition for a
// molecule and basis.
func NewExchangeBuilder(mol *Molecule, basisName string, sopts ScreeningOptions, opts ExchangeOptions) (*ExchangeBuilder, error) {
	set, err := basis.Build(basisName, mol)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(set)
	scr := screen.BuildPairList(eng, sopts)
	return &ExchangeBuilder{b: hfx.NewBuilder(eng, scr, opts)}, nil
}

// BuildJK evaluates the Coulomb and exchange matrices for density p, which
// must be symmetric (as every density is); J and K come back symmetric.
//
// WARNING: the returned matrices ALIAS the builder's persistent pool
// buffers — they are valid only until the next BuildJK on this builder,
// which silently overwrites them in place. Holding both an old and a new
// result (as the UHF driver's alpha/beta builds must) requires copying
// the first before rebuilding; use BuildJKCopy when in doubt.
func (e *ExchangeBuilder) BuildJK(p *Matrix) (j, k *Matrix, rep ExchangeReport) {
	return e.b.BuildJK(p)
}

// BuildJKCopy is BuildJK returning freshly allocated copies of J and K
// that remain valid across subsequent builds. It trades one J/K-sized
// allocation per call for aliasing safety; hot loops that consume the
// result before the next build should keep using BuildJK.
func (e *ExchangeBuilder) BuildJKCopy(p *Matrix) (j, k *Matrix, rep ExchangeReport) {
	jj, kk, rep := e.b.BuildJK(p)
	return jj.Clone(), kk.Clone(), rep
}

// Close stops the builder's persistent executors. Optional (a
// finalizer covers forgotten builders) but releases goroutines promptly.
func (e *ExchangeBuilder) Close() { e.b.Close() }

// NBasis returns the basis dimension of the builder.
func (e *ExchangeBuilder) NBasis() int { return e.b.Eng.Basis.NBasis }

// ---------------------------------------------------------------------------
// Multi-rank runtime layer (mprt).

// CollectiveSchedule selects how mprt collectives move data: a binomial
// tree or the torus dimension-exchange.
type CollectiveSchedule = mprt.Schedule

// The available collective schedules.
const (
	ScheduleBinomial    = mprt.Binomial
	ScheduleDimExchange = mprt.DimExchange
)

// CollectiveScheduleByName resolves "binomial" or "dim-exchange".
func CollectiveScheduleByName(name string) (CollectiveSchedule, bool) {
	return mprt.ScheduleByName(name)
}

// DistExchangeOptions configures a rank-distributed Fock build.
type DistExchangeOptions = hfx.DistOptions

// DistExchangeReport describes one rank-distributed build: per-rank phase
// walls, collective traffic, and the measured-vs-modeled schedule steps.
type DistExchangeReport = hfx.DistReport

// DistExchangeBuilder runs the Fock build across an in-process mprt
// world: the screened task list is statically partitioned over
// torus-mapped ranks and the partial J/K are combined with deterministic
// collectives. Results are bitwise identical to an ExchangeBuilder with
// Threads = Ranks×ThreadsPerRank.
type DistExchangeBuilder struct {
	d *hfx.DistBuilder
}

// NewDistExchangeBuilder prepares the screened decomposition, the mprt
// world and the per-rank executors for a molecule and basis.
func NewDistExchangeBuilder(mol *Molecule, basisName string, sopts ScreeningOptions, dopts DistExchangeOptions) (*DistExchangeBuilder, error) {
	set, err := basis.Build(basisName, mol)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(set)
	scr := screen.BuildPairList(eng, sopts)
	d, err := hfx.NewDistBuilder(eng, scr, dopts)
	if err != nil {
		return nil, err
	}
	return &DistExchangeBuilder{d: d}, nil
}

// BuildJK evaluates J and K across the ranks. Like
// ExchangeBuilder.BuildJK, the returned matrices alias builder-owned
// buffers and are valid only until the next BuildJK. The error reports a
// rank failure the builder could not recover from (an injected rank
// death is recovered internally and only shows up as rep.RankRestarts).
func (e *DistExchangeBuilder) BuildJK(p *Matrix) (j, k *Matrix, rep DistExchangeReport, err error) {
	return e.d.BuildJK(p)
}

// Close stops the executors and the mprt world.
func (e *DistExchangeBuilder) Close() { e.d.Close() }

// NBasis returns the basis dimension of the builder.
func (e *DistExchangeBuilder) NBasis() int { return e.d.Eng.Basis.NBasis }

// ---------------------------------------------------------------------------
// Dynamics layer.

// Trajectory is an MD run result.
type Trajectory = md.Trajectory

// Frame is one trajectory snapshot.
type Frame = md.Frame

// ScanPoint is one point of a reaction-coordinate profile.
type ScanPoint = md.ScanPoint

// Surface maps a geometry to its energy and forces: what trajectories
// (RunRESPA) and relaxations (Optimize) consume.
type Surface = md.Surface

// PotentialFunc maps a geometry to an energy: the input of scans and of
// FDSurface.
type PotentialFunc = md.PotentialFunc

// SCFPotential adapts an SCF configuration into an energy-only potential.
func SCFPotential(cfg SCFConfig) PotentialFunc { return md.SCFPotential(cfg) }

// FDSurface lifts a PotentialFunc into a Surface by central finite
// differences with step h over at most workers goroutines — for
// potentials without analytic forces (model surfaces, UHF); a
// closed-shell SCF has RespaSCFEvaluator.
func FDSurface(pot PotentialFunc, h float64, workers int) Surface {
	return md.FDSurface(pot, h, workers)
}

// Store is the two-tier content-addressed store: a byte-budgeted hot
// in-memory LRU over CRC-framed on-disk segments. hfxd, aimd and the
// fleet harness share one via its directory.
type Store = store.Store

// StoreOptions configures OpenStore.
type StoreOptions = store.Options

// OpenStore opens (creating if needed) a tiered store rooted at dir,
// rebuilding the index from the segment files on disk.
func OpenStore(opts StoreOptions) (*Store, error) { return store.Open(opts) }

// DistanceScan computes a constrained approach/dissociation profile.
func DistanceScan(mol *Molecule, pot PotentialFunc, i, j, fragStart int, coords []float64) ([]ScanPoint, error) {
	return md.DistanceScan(mol, pot, i, j, fragStart, coords)
}

// OptimizeOptions configures geometry minimisation.
type OptimizeOptions = opt.Options

// OptimizeResult is a relaxed structure.
type OptimizeResult = opt.Result

// Optimize relaxes a geometry on the given surface (FIRE), one surface
// call per step.
func Optimize(mol *Molecule, surf Surface, opts OptimizeOptions) (*OptimizeResult, error) {
	return opt.Minimize(mol, surf, opts)
}

// MDStepError reports a trajectory failure — SCF non-convergence, a
// checkpoint write error, an injected fault — at a specific MD step.
// Match with errors.As; Unwrap exposes the cause.
type MDStepError = md.StepError

// ---------------------------------------------------------------------------
// Multiple-time-step dynamics (r-RESPA) and cross-step reuse.

// RespaOptions configures a multiple-time-step trajectory: K inner
// steps on a cheap reference force per full-surface evaluation.
type RespaOptions = respa.Options

// RespaEvaluator is the full (slow) surface: energy plus forces.
type RespaEvaluator = respa.Evaluator

// RespaForceField is the cheap (fast) reference surface: forces only.
type RespaForceField = respa.ForceField

// The built-in cheap-reference modes of BuildRespaReference.
const (
	RespaRefSpring   = respa.RefSpring
	RespaRefLoose    = respa.RefLoose
	RespaRefBaseline = respa.RefBaseline
)

// RunRESPA integrates an r-RESPA trajectory: inner velocity Verlet on
// the cheap force at δt, the slow correction F_full − F_cheap applied
// every K-th step; K = 1 is plain velocity Verlet on the full surface.
// Checkpoint/resume composes with CkptWriter and stays bitwise across
// boundaries.
func RunRESPA(mol *Molecule, full RespaEvaluator, cheap RespaForceField, opts RespaOptions) (*Trajectory, error) {
	return respa.Run(mol, full, cheap, opts)
}

// RespaSCFEvaluator is the state-free full-surface evaluator of an SCF
// model chemistry: a cold SCF plus its analytic gradient per call, a pure
// function of the geometry, so a checkpointed trajectory resumes bitwise.
// An MDSession's Forces is the warm-started alternative.
func RespaSCFEvaluator(cfg SCFConfig) RespaEvaluator { return md.SCFForces(cfg) }

// BuildRespaReference resolves a named cheap-force mode ("spring",
// "loose", "baseline") against the initial geometry and model
// chemistry, returning the force field and its canonical label.
func BuildRespaReference(mode string, mol *Molecule, cfg SCFConfig, fdStep float64, workers int) (RespaForceField, string, error) {
	return respa.BuildReference(mode, mol, cfg, fdStep, workers)
}

// MDSession carries SCF state across the consecutive geometries of one
// trajectory: SCF seeds extrapolated from the previous steps' densities,
// screening-pair-list reuse under a max-displacement invalidation
// bound, and in-place exchange-builder rebinding.
type MDSession = md.Session

// MDSessionOptions configures cross-step reuse.
type MDSessionOptions = md.SessionOptions

// MDSessionStats counts a session's reuse traffic.
type MDSessionStats = md.SessionStats

// NewMDSession prepares a reuse session for one model chemistry.
func NewMDSession(cfg SCFConfig, opt MDSessionOptions) *MDSession { return md.NewSession(cfg, opt) }

// ---------------------------------------------------------------------------
// Checkpoint/restart layer.

// CkptConfig configures a trajectory checkpoint writer: directory,
// segment cadence and ring size, optional fault plan and registry.
type CkptConfig = ckpt.Config

// CkptWriter makes every completed MD step durable: one CRC-framed
// record of the complete state per step, appended to the newest of a
// ring of segment files; a new segment opens every Every steps. Set it
// as RespaOptions.Ckpt.
type CkptWriter = ckpt.Writer

// CkptResume is a restored checkpoint: the most advanced durable state
// and how it was reached (the segment's opening step, replays,
// fallbacks).
type CkptResume = ckpt.Resume

// CkptFaultPlan injects crash, torn-write and corrupt-opening-record
// faults into a CkptWriter (test and smoke harness).
type CkptFaultPlan = ckpt.FaultPlan

// MDState is the complete restartable state of one MD step.
type MDState = ckpt.MDState

// ErrNoCheckpoint is returned by LoadCkpt on a directory with no usable
// state.
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// NewCkptWriter opens a checkpoint directory for writing.
func NewCkptWriter(cfg CkptConfig) (*CkptWriter, error) { return ckpt.NewWriter(cfg) }

// LoadCkpt restores the most advanced durable state from a checkpoint
// directory: the last intact record of the newest segment whose opening
// record is intact; newer segments are skipped. reg may be nil.
func LoadCkpt(dir string, reg *TraceRegistry) (*CkptResume, error) { return ckpt.Load(dir, reg) }

// TraceRegistry is the shared counters/gauges/timers registry.
type TraceRegistry = trace.Registry

// NewTraceRegistry returns an empty registry.
func NewTraceRegistry() *TraceRegistry { return trace.NewRegistry() }

// MDSummary is the shared JSON encoding of a BOMD trajectory (cmd/aimd
// -json wire format).
type MDSummary = server.MDSummary

// SummarizeMD converts a trajectory into the shared wire encoding; wall
// is the integration wall time of this process.
func SummarizeMD(traj *Trajectory, wall time.Duration) *MDSummary {
	return server.SummarizeMD(traj, wall)
}

// BarrierHeight extracts the maximum relative energy of a profile.
func BarrierHeight(pts []ScanPoint) float64 { return md.BarrierHeight(pts) }

// ReactionEnergy returns E(last) − E(first) of a profile.
func ReactionEnergy(pts []ScanPoint) float64 { return md.ReactionEnergy(pts) }

// ---------------------------------------------------------------------------
// Machine layer (BG/Q simulator).

// Machine is a simulated BG/Q partition.
type Machine = bgq.Machine

// TorusShape is a 5-D torus partition shape.
type TorusShape = torus.Shape

// MachineWorkload describes one HFX build for the simulator.
type MachineWorkload = bgq.Workload

// SimOptions selects the simulated execution scheme.
type SimOptions = bgq.SimOptions

// SimResult is a simulated build outcome.
type SimResult = bgq.SimResult

// ScalePoint is one row of a strong-scaling study.
type ScalePoint = bgq.ScalePoint

// NewMachine creates a BG/Q partition of the given rack count (1–96).
func NewMachine(racks int) (*Machine, error) { return bgq.New(racks) }

// CondensedPhaseWorkload synthesises the screened HFX workload of an
// (H2O)_n liquid-density system (see DESIGN.md for the calibration).
func CondensedPhaseWorkload(nWater, taskTarget int, seed int64) *MachineWorkload {
	return bgq.CondensedPhaseWorkload(nWater, taskTarget, seed)
}

// BaselineWorkload synthesises the state-of-the-art pair-distributed
// decomposition of the same system.
func BaselineWorkload(nWater int, seed int64) *MachineWorkload {
	return bgq.BaselineWorkload(nWater, seed)
}

// PaperScheme returns the paper's simulated execution configuration.
func PaperScheme() SimOptions { return bgq.PaperScheme() }

// BaselineScheme returns the comparator's execution configuration.
func BaselineScheme() SimOptions { return bgq.BaselineScheme() }

// StrongScaling runs a workload across rack counts and reports speedup
// and parallel efficiency.
func StrongScaling(w *MachineWorkload, racks []int, opts SimOptions) ([]ScalePoint, error) {
	return bgq.StrongScaling(w, racks, opts)
}

// WeakScaling grows the simulated system proportionally with the machine
// and reports the per-build times (flat = ideal).
func WeakScaling(watersPerRack, tasksPerRack int, racks []int, seed int64, opts SimOptions) ([]ScalePoint, error) {
	return bgq.WeakScaling(watersPerRack, tasksPerRack, racks, seed, opts)
}

// SaturationThreads returns the largest useful thread count of a study.
func SaturationThreads(pts []ScalePoint) int { return bgq.SaturationThreads(pts) }

// MDCampaign describes a hybrid-functional MD production run for the
// feasibility analysis (the paper's motivating scenario).
type MDCampaign = bgq.MDCampaign

// CampaignResult summarises a simulated MD campaign.
type CampaignResult = bgq.CampaignResult

// FeasibilityTable reports the time per MD step across machine sizes.
func FeasibilityTable(c MDCampaign, racks []int, opts SimOptions) ([]CampaignResult, error) {
	return bgq.FeasibilityTable(c, racks, opts)
}

// ---------------------------------------------------------------------------
// Job service layer (hfxd).

// JobRequest is the JSON body submitted to an hfxd server.
type JobRequest = server.JobRequest

// JobResult is the JSON response of an hfxd job.
type JobResult = server.JobResult

// SCFSummary is the shared JSON encoding of an SCF result (hfxd wire
// format, also emitted by cmd/scfrun -json).
type SCFSummary = server.SCFSummary

// ScanSummary is the shared JSON encoding of a solvent-scan profile
// (hfxd wire format, also emitted by cmd/solvents -json).
type ScanSummary = server.ScanSummary

// ScanPointJSON is one point of a ScanSummary profile.
type ScanPointJSON = server.ScanPointJSON

// TrajSummary is the shared JSON encoding of a trajectory-campaign job
// (hfxd wire format): per-outer-step records, drift, reuse counters and
// the bitwise final-state fingerprint.
type TrajSummary = server.TrajSummary

// TrajStepJSON is one completed outer step of a TrajSummary.
type TrajStepJSON = server.TrajStepJSON

// SummarizeSCF converts a converged SCF result into the shared wire
// encoding.
func SummarizeSCF(res *SCFResult) *SCFSummary { return server.SummarizeSCF(res) }

// JobClient is the Go client for an hfxd server.
type JobClient = server.Client

// NewJobClient returns a client for the given hfxd base URL.
func NewJobClient(baseURL string) *JobClient { return server.NewClient(baseURL) }

// JobServerBusyError is the 429 admission rejection with its Retry-After
// backoff hint.
type JobServerBusyError = server.BusyError

// JobServerDrainingError is the typed 503 rejection from a draining
// server: unlike a busy rejection it is not worth retrying against the
// same instance — fail the job over to another one.
type JobServerDrainingError = server.DrainingError

// JobServerConfig tunes an embedded hfxd server.
type JobServerConfig = server.Config

// JobServer is the hfxd job service, embeddable behind any http.Server.
type JobServer = server.Server

// NewJobServer starts an hfxd worker pool; attach its Handler to an HTTP
// listener and stop it with Shutdown. The error paths are job-journal
// I/O (Config.JournalPath); a journal-less config cannot fail.
func NewJobServer(cfg JobServerConfig) (*JobServer, error) { return server.New(cfg) }

// Fleet is a cluster of hfxd instances behind a routing policy (see
// internal/fleet: round-robin, least-loaded, cost-weighted,
// cache-affinity).
type Fleet = fleet.Cluster

// FleetOptions configures NewFleet.
type FleetOptions = fleet.Options

// FleetPolicy selects a fleet routing strategy.
type FleetPolicy = fleet.Policy

// The available fleet routing policies.
const (
	FleetRoundRobin    = fleet.RoundRobin
	FleetLeastLoaded   = fleet.LeastLoaded
	FleetCostWeighted  = fleet.CostWeighted
	FleetCacheAffinity = fleet.CacheAffinity
)

// NewFleet boots a cluster of hfxd instances, each on its own loopback
// port, behind the configured routing policy.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// PredictMakespan is the exported cost-prediction hook: the modeled
// wall-clock of executing tasks with the given costs on nWorkers workers
// under the chosen balancing algorithm.
func PredictMakespan(alg BalanceAlgorithm, costs []float64, nWorkers int) float64 {
	return sched.PredictMakespan(alg, costs, nWorkers)
}

// BalanceAlgorithm names a static load-balancing strategy.
type BalanceAlgorithm = sched.Algorithm

// The available balancing strategies.
const (
	BalanceBlock      = sched.Block
	BalanceRoundRobin = sched.RoundRobin
	BalanceLPT        = sched.LPT
	BalanceSteal      = sched.Steal
)

package hfxmd

import (
	"io"

	"hfxmd/internal/basis"
	"hfxmd/internal/bgq"
	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/md"
	"hfxmd/internal/respa"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
	"hfxmd/internal/server"
	"hfxmd/internal/store"
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

// RunSCF performs a restricted SCF calculation. A non-nil cfg.Ctx is
// polled once per iteration: its cancellation or deadline stops the solver
// between iterations, returning the partial result and the context error.
func RunSCF(mol *Molecule, cfg SCFConfig) (*SCFResult, error) { return scf.Run(mol, cfg) }

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
	return scf.MullikenCharges(res, res.Eng)
}

// DipoleMoment returns the dipole vector (a.u.) for a converged result.
func DipoleMoment(res *SCFResult) [3]float64 {
	return scf.Dipole(res, res.Eng)
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
// Dynamics layer.

// Trajectory is an MD run result.
type Trajectory = md.Trajectory

// Frame is one trajectory snapshot.
type Frame = md.Frame

// Store is the two-tier content-addressed store: a byte-budgeted hot
// in-memory LRU over CRC-framed on-disk segments. hfxd, aimd and the
// fleet harness share one via its directory.
type Store = store.Store

// StoreOptions configures OpenStore.
type StoreOptions = store.Options

// OpenStore opens (creating if needed) a tiered store rooted at dir,
// rebuilding the index from the segment files on disk.
func OpenStore(opts StoreOptions) (*Store, error) { return store.Open(opts) }

// ScanProfile is an energy profile along a sequence of geometries: its
// points and the depth of its well.
type ScanProfile = md.Profile

// Scan computes the energy profile over the geometries geom builds at
// coords, in order, on one MDSession under the scan solver settings, so
// each point warm-starts from the ones before it; Rel and the well are
// measured from the first converged point. progress, if non-nil, sees the
// session's counters after every point.
func Scan(cfg SCFConfig, opt MDSessionOptions, coords []float64, geom func(r float64) (*Molecule, error), progress func(MDSessionStats)) (*ScanProfile, error) {
	return md.Scan(cfg, opt, coords, geom, progress)
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

// CampaignSummary is the result of a RESPA campaign: per-outer-step
// records, the conserved-energy drift, the session counters and the
// finalStateSha256 fingerprint (hfxd's trajectory payload, cmd/aimd -json).
type CampaignSummary = respa.Summary

// RunCampaign integrates an r-RESPA campaign on the spring reference:
// inner velocity Verlet on it at δt, the slow correction from the full
// surface every K-th step; K = 1 is plain velocity Verlet on the full
// surface. The full surface is sess.Forces, or with a nil sess a cold SCF
// plus its analytic gradient per call, which keeps a checkpoint resume
// (CkptWriter, RespaOptions.Resume) bitwise.
func RunCampaign(mol *Molecule, cfg SCFConfig, sess *MDSession, opts RespaOptions) (*CampaignSummary, *Trajectory, error) {
	return respa.Campaign(mol, cfg, sess, opts, nil)
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

// ---------------------------------------------------------------------------
// Machine layer (BG/Q simulator).

// Machine is a simulated BG/Q partition.
type Machine = bgq.Machine

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

// SCFSummary is the shared JSON encoding of an SCF result (hfxd wire
// format, also emitted by cmd/scfrun -json).
type SCFSummary = server.SCFSummary

// SummarizeSCF converts a converged SCF result into the shared wire
// encoding.
func SummarizeSCF(res *SCFResult) *SCFSummary { return server.SummarizeSCF(res) }

package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hfxmd/internal/trace"
)

// ErrInjectedCrash is returned by Writer.OnStep when the fault plan
// fires: the driver must stop as if the process had died. The md layer
// wraps it in a StepError; tests match it with errors.Is.
var ErrInjectedCrash = errors.New("ckpt: injected crash (fault plan)")

// ErrNoCheckpoint is returned by Load when the directory holds no
// usable state at all.
var ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint state")

// FaultPlan injects crash and corruption faults into a Writer, the test
// harness for every resume path. The zero value injects nothing.
type FaultPlan struct {
	// CrashAtStep makes OnStep return ErrInjectedCrash after processing
	// that step (0 disables; step 0 is never a crash point).
	CrashAtStep int64
	// TornWrite, with CrashAtStep, crashes halfway through that step's
	// journal record: only a prefix of the frame reaches the file.
	TornWrite bool
	// CorruptSection, with CrashAtStep, flips one byte in the named
	// section of the newest snapshot after the step completes — the
	// resume must detect the damage and fall back.
	CorruptSection string
}

// Config configures a Writer.
type Config struct {
	// Dir is the checkpoint directory (created if absent).
	Dir string
	// Every is the snapshot cadence in steps (default 10). The journal
	// covers the steps in between, so a crash loses nothing.
	Every int64
	// Keep is the snapshot ring size (default 3).
	Keep int
	// NoFsync skips fsync — only for benchmarks measuring the format
	// cost apart from the disk.
	NoFsync bool
	// Plan optionally injects faults.
	Plan *FaultPlan
	// Registry receives ckpt.* counters and timers (optional).
	Registry *trace.Registry
}

// Writer persists an MD trajectory: one journal record per step and a
// ring of periodic snapshots. Not safe for concurrent use — MD steps
// are sequential by construction. Journal records are written behind
// the trajectory (see the package comment): between OnStep calls a
// goroutine of the Writer's may own the journal.
type Writer struct {
	cfg      Config
	j        *journal
	lastSnap string

	// The record in flight: written carries its outcome once inFlight
	// is set, and the journal belongs to the writing goroutine until
	// that outcome has been received.
	written      chan error
	inFlight     bool
	inFlightStep int64
	// beforeWrite, if set, runs on the writing goroutine before the
	// record reaches the file — the tests' window between hand-off and
	// write.
	beforeWrite func()
}

// NewWriter opens a checkpoint directory for writing.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ckpt: Config.Dir is required")
	}
	if cfg.Every <= 0 {
		cfg.Every = 10
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	j, err := openJournal(journalPath(cfg.Dir), !cfg.NoFsync)
	if err != nil {
		return nil, err
	}
	w := &Writer{cfg: cfg, j: j, written: make(chan error, 1)}
	if steps, err := ListSnapshots(cfg.Dir); err == nil && len(steps) > 0 {
		w.lastSnap = filepath.Join(cfg.Dir, SnapshotName(steps[len(steps)-1]))
	}
	return w, nil
}

// Dir returns the checkpoint directory.
func (w *Writer) Dir() string { return w.cfg.Dir }

// reg returns the registry (never nil).
func (w *Writer) reg() *trace.Registry {
	if w.cfg.Registry == nil {
		w.cfg.Registry = trace.NewRegistry()
	}
	return w.cfg.Registry
}

// settle waits for the journal record in flight, if any, and reports
// its outcome.
func (w *Writer) settle() error {
	if !w.inFlight {
		return nil
	}
	w.inFlight = false
	if err := <-w.written; err != nil {
		return fmt.Errorf("ckpt: journal append step %d: %w", w.inFlightStep, err)
	}
	return nil
}

// OnStep persists one completed MD step: a journal record always, plus
// a snapshot (and journal reset) every cfg.Every steps. The record is
// encoded before OnStep returns and written behind it; OnStep first
// waits for the previous step's record, whose failure it reports.
// Fault-plan crashes surface as ErrInjectedCrash after the injected
// damage is on disk.
func (w *Writer) OnStep(s *MDState) error {
	reg := w.reg()
	crash := w.cfg.Plan != nil && w.cfg.Plan.CrashAtStep > 0 && s.Step == w.cfg.Plan.CrashAtStep

	t0 := time.Now()
	if err := w.settle(); err != nil {
		return err
	}
	if crash && w.cfg.Plan.TornWrite {
		fr := frame(EncodeState(s))
		if _, err := w.j.writeRaw(fr[:len(fr)/2]); err != nil {
			return err
		}
		return fmt.Errorf("journal record for step %d torn: %w", s.Step, ErrInjectedCrash)
	}

	rec := frame(EncodeState(s))
	w.inFlight, w.inFlightStep = true, s.Step
	go func() {
		if w.beforeWrite != nil {
			w.beforeWrite()
		}
		_, err := w.j.writeRaw(rec)
		w.written <- err
	}()
	reg.Counter("ckpt.journal_appends").Add(1)
	reg.Counter("ckpt.journal_bytes").Add(int64(len(rec)))

	// A snapshot resets the journal and a planned crash leaves it to be
	// read: both need this record on disk first.
	snap := s.Step > 0 && s.Step%w.cfg.Every == 0
	if snap || crash {
		if err := w.settle(); err != nil {
			return err
		}
	}
	reg.Timer.Charge("ckpt.journal_append", time.Since(t0))
	if snap {
		if err := w.snapshot(s); err != nil {
			return err
		}
	}

	if crash {
		if sec := w.cfg.Plan.CorruptSection; sec != "" && w.lastSnap != "" {
			if err := corruptSection(w.lastSnap, sec); err != nil {
				return err
			}
		}
		return fmt.Errorf("after step %d: %w", s.Step, ErrInjectedCrash)
	}
	return nil
}

// snapshot writes one ring snapshot and resets the journal, in that
// order: the journal is only discarded once its replacement is durable.
func (w *Writer) snapshot(s *MDState) error {
	reg := w.reg()
	t0 := time.Now()
	path, err := WriteSnapshot(w.cfg.Dir, s, !w.cfg.NoFsync)
	if err != nil {
		return fmt.Errorf("ckpt: snapshot step %d: %w", s.Step, err)
	}
	reg.Timer.Charge("ckpt.snapshot_write", time.Since(t0))
	reg.Counter("ckpt.snapshots").Add(1)
	if fi, err := os.Stat(path); err == nil {
		reg.Counter("ckpt.snapshot_bytes").Add(fi.Size())
	}
	w.lastSnap = path
	pruneRing(w.cfg.Dir, w.cfg.Keep)
	if err := w.j.reset(); err != nil {
		return fmt.Errorf("ckpt: journal reset after snapshot %d: %w", s.Step, err)
	}
	return nil
}

// Close waits for the record in flight and releases the journal handle.
// The directory remains resumable.
func (w *Writer) Close() error {
	if w.j == nil {
		return nil
	}
	err := w.settle()
	if cerr := w.j.close(); err == nil {
		err = cerr
	}
	w.j = nil
	return err
}

// Resume is the outcome of Load: the most advanced durable state and
// how it was reached.
type Resume struct {
	// State is the restored MD state.
	State *MDState
	// SnapshotStep is the newest valid snapshot's step (-1 if none).
	SnapshotStep int64
	// JournalStep is the last valid journal record's step (-1 if none).
	JournalStep int64
	// ReplayedSteps counts journal records ahead of the snapshot that
	// the resume point absorbed.
	ReplayedSteps int64
	// Fallbacks counts corrupt or truncated snapshots that were skipped
	// before a valid one was found.
	Fallbacks int
}

// Load restores the most advanced durable state from a checkpoint
// directory: the last valid journal record or, if the journal is behind
// (or empty), the newest CRC-clean snapshot. Corrupt snapshots are
// skipped oldest-preferred (newest first, falling back), corrupt
// journal tails are truncated at the last good record. Registry may be
// nil.
func Load(dir string, reg *trace.Registry) (*Resume, error) {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	r := &Resume{SnapshotStep: -1, JournalStep: -1}

	records, err := readJournal(journalPath(dir))
	if err != nil {
		return nil, err
	}
	if len(records) > 0 {
		r.JournalStep = records[len(records)-1].Step
	}

	steps, err := ListSnapshots(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var snap *MDState
	for i := len(steps) - 1; i >= 0; i-- {
		s, err := ReadSnapshot(filepath.Join(dir, SnapshotName(steps[i])))
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				r.Fallbacks++
				reg.Counter("ckpt.fallbacks").Add(1)
				continue
			}
			return nil, err
		}
		snap = s
		r.SnapshotStep = s.Step
		break
	}

	switch {
	case r.JournalStep >= 0 && r.JournalStep >= r.SnapshotStep:
		r.State = records[len(records)-1]
		if r.SnapshotStep >= 0 {
			r.ReplayedSteps = r.JournalStep - r.SnapshotStep
		} else {
			r.ReplayedSteps = int64(len(records))
		}
	case snap != nil:
		r.State = snap
	default:
		return nil, ErrNoCheckpoint
	}
	reg.Counter("ckpt.replayed_steps").Add(r.ReplayedSteps)
	reg.Counter("ckpt.resumes").Add(1)
	return r, nil
}

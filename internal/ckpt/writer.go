package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
	// record: only a prefix of the frame reaches the open segment.
	TornWrite bool
	// CorruptSnapshot, with CrashAtStep, flips one payload byte of the
	// newest segment's opening record after the step completes — the
	// resume must detect the damage and fall back to the segment before.
	CorruptSnapshot bool
}

// Config configures a Writer.
type Config struct {
	// Dir is the checkpoint directory (created if absent).
	Dir string
	// Every is the segment cadence in steps (default 10): a step with
	// Step > 0 and Step mod Every = 0 opens a new segment.
	Every int64
	// Keep is the segment ring size (default 3).
	Keep int
	// Plan optionally injects faults.
	Plan *FaultPlan
	// Registry receives ckpt.* counters and timers (optional).
	Registry *trace.Registry
}

// Writer persists an MD trajectory, one record per step, into a ring of
// segments (see the package comment). Not safe for concurrent use — MD
// steps are sequential by construction. Appended records are written
// behind the trajectory: between OnStep calls a goroutine of the
// Writer's may own the open segment.
type Writer struct {
	cfg Config
	// f is the segment this Writer opened last, at path seg; nil before
	// the first step.
	f   *os.File
	seg string

	// The record in flight: written carries its outcome once inFlight
	// is set, and f belongs to the writing goroutine until that outcome
	// has been received.
	written      chan error
	inFlight     bool
	inFlightStep int64
	// beforeWrite, if set, runs on the writing goroutine before the
	// record reaches the file — the tests' window between hand-off and
	// write.
	beforeWrite func()
}

// NewWriter prepares a checkpoint directory for writing. Nothing in it
// is opened: the first step starts a segment of its own.
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
	return &Writer{cfg: cfg, written: make(chan error, 1)}, nil
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

// settle waits for the record in flight, if any, and reports its
// outcome.
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

// OnStep persists one completed MD step. The Writer's first step and
// every Every-th step open a new segment, written whole before OnStep
// returns; every other step's record is appended to the open segment
// behind the trajectory, and OnStep first waits for the previous step's
// record, whose failure it reports. Fault-plan crashes surface as
// ErrInjectedCrash after the injected damage is on disk.
func (w *Writer) OnStep(s *MDState) error {
	reg := w.reg()
	crash := w.cfg.Plan != nil && w.cfg.Plan.CrashAtStep > 0 && s.Step == w.cfg.Plan.CrashAtStep

	t0 := time.Now()
	if err := w.settle(); err != nil {
		return err
	}
	rec := Frame(EncodeState(s))
	switch {
	case crash && w.cfg.Plan.TornWrite:
		// On an opening step the half frame lands on the previous
		// segment's tail, which Load reads the same way: as a torn tail.
		if w.f != nil {
			if _, err := w.f.Write(rec[:len(rec)/2]); err != nil {
				return err
			}
			if err := w.f.Sync(); err != nil {
				return err
			}
		}
		return fmt.Errorf("record for step %d torn: %w", s.Step, ErrInjectedCrash)
	case w.f == nil || s.Step > 0 && s.Step%w.cfg.Every == 0:
		if err := w.open(s.Step, rec); err != nil {
			return fmt.Errorf("ckpt: segment at step %d: %w", s.Step, err)
		}
		reg.Timer.Charge("ckpt.snapshot_write", time.Since(t0))
		reg.Counter("ckpt.snapshots").Add(1)
		reg.Counter("ckpt.snapshot_bytes").Add(int64(len(segMagic) + len(rec)))
	default:
		w.inFlight, w.inFlightStep = true, s.Step
		go func() {
			if w.beforeWrite != nil {
				w.beforeWrite()
			}
			_, err := w.f.Write(rec)
			if err == nil {
				err = w.f.Sync()
			}
			w.written <- err
		}()
		reg.Counter("ckpt.journal_appends").Add(1)
		reg.Counter("ckpt.journal_bytes").Add(int64(len(rec)))
		// A planned crash leaves the segment to be read: the record
		// must be on disk first.
		if crash {
			if err := w.settle(); err != nil {
				return err
			}
		}
		reg.Timer.Charge("ckpt.journal_append", time.Since(t0))
	}

	if crash {
		if w.cfg.Plan.CorruptSnapshot {
			if err := corruptOpening(w.seg); err != nil {
				return err
			}
		}
		return fmt.Errorf("after step %d: %w", s.Step, ErrInjectedCrash)
	}
	return nil
}

// open writes the segment step opens — the magic and its first record,
// whole — and makes it the append target. Then it trims the ring:
// segments named above step are the abandoned future of a fallback, and
// of the rest only the newest Keep stay.
func (w *Writer) open(step int64, rec []byte) error {
	name := segmentName(step)
	if err := AtomicWriteFile(w.cfg.Dir, name, append([]byte(segMagic), rec...)); err != nil {
		return err
	}
	path := filepath.Join(w.cfg.Dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.seg = f, path
	steps, err := listSegments(w.cfg.Dir)
	if err != nil {
		return err
	}
	above := sort.Search(len(steps), func(i int) bool { return steps[i] > step })
	for i, st := range steps {
		path := filepath.Join(w.cfg.Dir, segmentName(st))
		if i >= above {
			// Load would resume from a future left behind.
			if err := os.Remove(path); err != nil {
				return err
			}
		} else if i < above-w.cfg.Keep {
			os.Remove(path) // best effort: a segment left behind costs only space
		}
	}
	if above < len(steps) {
		SyncDir(w.cfg.Dir) // a removed future must not reappear after a crash
	}
	return nil
}

// Close waits for the record in flight and releases the open segment.
// The directory remains resumable.
func (w *Writer) Close() error {
	err := w.settle()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// Resume is the outcome of Load: the most advanced durable state and
// how it was reached.
type Resume struct {
	// State is the restored MD state.
	State *MDState
	// SnapshotStep is the step of the restoring segment's opening record.
	SnapshotStep int64
	// ReplayedSteps counts the segment's records after the opening one.
	ReplayedSteps int64
	// Fallbacks counts newer segments skipped because their opening
	// record was torn or corrupt.
	Fallbacks int
}

// Load restores the most advanced durable state from a checkpoint
// directory: it scans the segments newest first and returns the last
// record of the valid prefix of the first segment that has one.
// Registry may be nil.
func Load(dir string, reg *trace.Registry) (*Resume, error) {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	steps, err := listSegments(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	r := &Resume{}
	for i := len(steps) - 1; i >= 0; i-- {
		first, last, n, err := readSegment(filepath.Join(dir, segmentName(steps[i])))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			r.Fallbacks++
			reg.Counter("ckpt.fallbacks").Add(1)
			continue
		}
		r.State, r.SnapshotStep, r.ReplayedSteps = last, first.Step, n-1
		reg.Counter("ckpt.replayed_steps").Add(r.ReplayedSteps)
		reg.Counter("ckpt.resumes").Add(1)
		return r, nil
	}
	return nil, ErrNoCheckpoint
}

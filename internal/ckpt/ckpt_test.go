package ckpt

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hfxmd/internal/chem"
)

// testState builds a deterministic dummy state for a step.
func testState(step int64, n int) *MDState {
	s := &MDState{
		Step: step,
		Epot: -1.5 + float64(step)*1e-3,
		ELo:  -1.6, EHi: -1.4,
		RNG:        [3]uint64{uint64(step) * 7, 42, 1},
		ParamsHash: 0xdeadbeefcafe,
	}
	for i := 0; i < n; i++ {
		f := float64(i+1) + float64(step)*0.25
		s.Pos = append(s.Pos, chem.Vec3{f, -f, f * math.Pi})
		s.Vel = append(s.Vel, chem.Vec3{f * 1e-3, 0, -f * 1e-3})
		s.Frc = append(s.Frc, chem.Vec3{-f, f, 0.5})
	}
	return s
}

func sameState(t *testing.T, got, want *MDState) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestStateEncodeDecodeRoundtrip(t *testing.T) {
	want := testState(17, 5)
	got, err := DecodeState(EncodeState(want))
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if _, err := DecodeState(EncodeState(want)[:40]); err == nil {
		t.Fatal("truncated image should not decode")
	}
}

func TestSnapshotRoundtripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	want := testState(8, 3)
	path, err := WriteSnapshot(dir, want, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)

	// Every section must be individually protected by its CRC.
	for _, sec := range sectionOrder {
		p, err := WriteSnapshot(dir, testState(9, 3), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := corruptSection(p, sec); err != nil {
			t.Fatal(err)
		}
		_, err = ReadSnapshot(p)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != sec {
			t.Fatalf("corrupted section %q: got %v", sec, err)
		}
	}

	// Truncation is detected too.
	b, _ := os.ReadFile(path)
	trunc := filepath.Join(dir, SnapshotName(99))
	if err := os.WriteFile(trunc, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := ReadSnapshot(trunc); !errors.As(err, &ce) {
		t.Fatalf("truncated snapshot: got %v", err)
	}
}

func TestWriterRingAndJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 4, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step <= 13; step++ {
		if err := w.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshots at 4, 8, 12 with Keep=2 leave {8, 12}.
	steps, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int64{8, 12}) {
		t.Fatalf("ring = %v, want [8 12]", steps)
	}
	// The journal holds only the post-snapshot tail: step 13.
	recs, err := readJournal(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Step != 13 {
		t.Fatalf("journal records = %d (last %v)", len(recs), recs)
	}

	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 13 || r.SnapshotStep != 12 || r.JournalStep != 13 || r.ReplayedSteps != 1 {
		t.Fatalf("resume = %+v", r)
	}
	sameState(t, r.State, testState(13, 2))
}

func TestLoadPrefersJournalHead(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 100, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step <= 5; step++ {
		if err := w.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 5 || r.SnapshotStep != -1 || r.ReplayedSteps != 6 {
		t.Fatalf("resume = %+v", r)
	}
}

func TestLoadFallsBackPastCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 4, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step <= 8; step++ {
		if err := w.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Corrupt the newest snapshot (step 8); the journal was just reset,
	// so the resume must fall back to the snapshot at step 4.
	if err := corruptSection(filepath.Join(dir, SnapshotName(8)), SectionPositions); err != nil {
		t.Fatal(err)
	}
	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 4 || r.Fallbacks != 1 {
		t.Fatalf("resume = %+v", r)
	}
	sameState(t, r.State, testState(4, 2))
}

func TestTornJournalTailIsDiscardedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 100, Keep: 3,
		Plan: &FaultPlan{CrashAtStep: 3, TornWrite: true}})
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	for step := int64(0); step <= 3; step++ {
		if failed = w.OnStep(testState(step, 2)); failed != nil {
			break
		}
	}
	if !errors.Is(failed, ErrInjectedCrash) {
		t.Fatalf("want injected crash, got %v", failed)
	}
	w.Close()

	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 2 {
		t.Fatalf("torn tail not discarded: resumed at %d", r.State.Step)
	}

	// Re-opening for append must drop the torn bytes so post-resume
	// records stay reachable.
	w2, err := NewWriter(Config{Dir: dir, Every: 100, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.OnStep(testState(3, 2)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, err := readJournal(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Step != 3 {
		t.Fatalf("journal after resume: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestLoadEmptyDir(t *testing.T) {
	if _, err := Load(t.TempDir(), nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestWriterMetrics(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 2, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step <= 4; step++ {
		if err := w.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	reg := w.reg()
	w.Close()
	if got := reg.Counter("ckpt.journal_appends").Value(); got != 5 {
		t.Fatalf("journal_appends = %d", got)
	}
	if got := reg.Counter("ckpt.snapshots").Value(); got != 2 {
		t.Fatalf("snapshots = %d", got)
	}
	if reg.Counter("ckpt.snapshot_bytes").Value() <= 0 {
		t.Fatal("snapshot_bytes not recorded")
	}
	if reg.Timer.Get("ckpt.snapshot_write") <= 0 {
		t.Fatal("snapshot_write wall not charged")
	}
}

// TestJournalWriteBehind: OnStep returns once the record is handed over,
// before it is on disk. A process killed in that window leaves the journal
// it had — a valid prefix ending at the previous record, which restores bit
// for bit — the next OnStep and Close each wait for the record in flight,
// a failed write surfaces at the next call, and no goroutine outlives Close.
func TestJournalWriteBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step <= 3; step++ {
		if err := w.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Hold record 4 back between hand-off and write (record 3 must have
	// landed first: its goroutine would read the hook too).
	if err := w.settle(); err != nil {
		t.Fatal(err)
	}
	reached, release := make(chan struct{}), make(chan struct{})
	w.beforeWrite = func() {
		close(reached)
		<-release
	}
	if err := w.OnStep(testState(4, 2)); err != nil {
		t.Fatal(err)
	}
	<-reached
	w.beforeWrite = nil
	// What a SIGKILL at this instant leaves behind.
	killed := t.TempDir()
	img, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(killed), img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(killed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.JournalStep != 3 || len(img) != validPrefixLen(img) {
		t.Fatalf("killed in flight: journal ends at step %d, %d of %d bytes valid", r.JournalStep, validPrefixLen(img), len(img))
	}
	sameState(t, r.State, testState(3, 2))

	// The next step waits for record 4, and Close for record 5.
	close(release)
	if err := w.OnStep(testState(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readJournal(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("journal holds %d records after Close, want 6", len(recs))
	}
	for i, rec := range recs {
		sameState(t, rec, testState(int64(i), 2))
	}

	// A write that fails is reported by the call that waits for it.
	w2, err := NewWriter(Config{Dir: t.TempDir(), Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	w2.j.f.Close() // the record in flight will find the file gone
	if err := w2.OnStep(testState(0, 2)); err != nil {
		t.Fatalf("hand-off reported %v", err)
	}
	if err := w2.OnStep(testState(1, 2)); err == nil || !strings.Contains(err.Error(), "journal append step 0") {
		t.Fatalf("step 1 did not report step 0's failed write: %v", err)
	}
	w2.Close()

	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

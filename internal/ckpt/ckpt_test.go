package ckpt

import (
	"bytes"
	"encoding/binary"
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

// overflowImage is a well-formed 80-byte version-1 header claiming 2^61
// atoms: 80 + 72·2^61 wraps to 80, so only a bound taken before the
// multiplication rejects it.
func overflowImage() []byte {
	b := make([]byte, 10*8)
	binary.LittleEndian.PutUint64(b, stateVersion)
	binary.LittleEndian.PutUint64(b[16:], 1<<61)
	return b
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
	if _, err := DecodeState(overflowImage()); err == nil {
		t.Fatal("an image claiming 2^61 atoms should not decode")
	}
}

// segmentOf frames states into the bytes of one segment file.
func segmentOf(states ...*MDState) []byte {
	b := []byte(segMagic)
	for _, s := range states {
		b = append(b, Frame(EncodeState(s))...)
	}
	return b
}

// TestSnapshotRoundtripAndCorruption: a segment restores its last intact
// record; a flipped payload byte, a truncation and a corrupt opening
// record each end the valid prefix where they sit.
func TestSnapshotRoundtripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(8))
	img := segmentOf(testState(8, 3), testState(9, 3), testState(10, 3))
	load := func(b []byte) (*Resume, error) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(dir, nil)
	}
	r, err := load(img)
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapshotStep != 8 || r.ReplayedSteps != 2 || r.Fallbacks != 0 {
		t.Fatalf("resume = %+v", r)
	}
	sameState(t, r.State, testState(10, 3))

	rec := len(Frame(EncodeState(testState(8, 3))))
	flipped := append([]byte(nil), img...)
	flipped[len(segMagic)+rec+8+20] ^= 0xff // a payload byte of record 9
	if r, err = load(flipped); err != nil || r.State.Step != 8 {
		t.Fatalf("CRC-bad record 9: resume %+v, %v", r, err)
	}
	if r, err = load(img[:len(img)-10]); err != nil || r.State.Step != 9 {
		t.Fatalf("truncated record 10: resume %+v, %v", r, err)
	}
	if _, err := load(img); err != nil {
		t.Fatal(err)
	}
	if err := corruptOpening(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("corrupt opening record: got %v", err)
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
	// Segments open at 0, 4, 8, 12; Keep=2 leaves {8, 12}.
	steps, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int64{8, 12}) {
		t.Fatalf("ring = %v, want [8 12]", steps)
	}
	// The newest segment holds steps 12 and 13.
	first, last, n, err := readSegment(filepath.Join(dir, segmentName(12)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || first.Step != 12 || last.Step != 13 {
		t.Fatalf("segment 12 holds %d records, %d..%d", n, first.Step, last.Step)
	}

	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 13 || r.SnapshotStep != 12 || r.ReplayedSteps != 1 {
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
	if r.State.Step != 5 || r.SnapshotStep != 0 || r.ReplayedSteps != 5 {
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
	// Corrupt the newest opening record (step 8): the resume falls back
	// to the last record of the segment before, step 7.
	if err := corruptOpening(filepath.Join(dir, segmentName(8))); err != nil {
		t.Fatal(err)
	}
	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 7 || r.Fallbacks != 1 {
		t.Fatalf("resume = %+v", r)
	}
	sameState(t, r.State, testState(7, 2))

	// The resumed writer's first step replaces segment 8 and removes any
	// segment above it: the abandoned future of the fallback.
	if err := os.WriteFile(filepath.Join(dir, segmentName(12)), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(Config{Dir: dir, Every: 4, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.OnStep(testState(8, 2)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if steps, _ := listSegments(dir); !reflect.DeepEqual(steps, []int64{0, 4, 8}) {
		t.Fatalf("ring after resume = %v, want [0 4 8]", steps)
	}
	if r, err = Load(dir, nil); err != nil || r.State.Step != 8 || r.Fallbacks != 0 {
		t.Fatalf("resume after rewrite = %+v, %v", r, err)
	}
}

func TestTornTailIsDiscarded(t *testing.T) {
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

	// The resumed writer never appends behind the torn bytes: its first
	// step opens a segment of its own.
	w2, err := NewWriter(Config{Dir: dir, Every: 100, Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(3); step <= 4; step++ {
		if err := w2.OnStep(testState(step, 2)); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	r, err = Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.State.Step != 4 || r.SnapshotStep != 3 || r.ReplayedSteps != 1 {
		t.Fatalf("resume after restart = %+v", r)
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
	// Steps 0, 2 and 4 open segments; 1 and 3 are appended.
	if got := reg.Counter("ckpt.journal_appends").Value(); got != 2 {
		t.Fatalf("journal_appends = %d", got)
	}
	if got := reg.Counter("ckpt.snapshots").Value(); got != 3 {
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
// before it is on disk. A process killed in that window leaves the segment
// it had — a valid prefix ending at the previous record, which restores bit
// for bit — the next OnStep and Close each wait for the record in flight,
// a failed write surfaces at the next call, and no goroutine outlives Close.
func TestJournalWriteBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	seg := filepath.Join(dir, segmentName(0))
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
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, segmentOf(testState(0, 2), testState(1, 2), testState(2, 2), testState(3, 2))) {
		t.Fatalf("killed in flight: segment is %d bytes, not records 0..3", len(img))
	}
	if err := os.WriteFile(filepath.Join(killed, segmentName(0)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(killed, nil)
	if err != nil {
		t.Fatal(err)
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
	img, err = os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var want []*MDState
	for i := int64(0); i <= 5; i++ {
		want = append(want, testState(i, 2))
	}
	if !bytes.Equal(img, segmentOf(want...)) {
		t.Fatalf("segment after Close is %d bytes, not records 0..5", len(img))
	}

	// A write that fails is reported by the call that waits for it.
	w2, err := NewWriter(Config{Dir: t.TempDir(), Every: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.OnStep(testState(0, 2)); err != nil {
		t.Fatal(err)
	}
	w2.f.Close() // the record in flight will find the file gone
	if err := w2.OnStep(testState(1, 2)); err != nil {
		t.Fatalf("hand-off reported %v", err)
	}
	if err := w2.OnStep(testState(2, 2)); err == nil || !strings.Contains(err.Error(), "journal append step 1") {
		t.Fatalf("step 2 did not report step 1's failed write: %v", err)
	}
	w2.Close()

	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzLoad feeds arbitrary bytes to Load as the one segment of a
// checkpoint directory. Load must never panic; what it restores must be
// the exact payload of a frame of the input; and a directory it cannot
// restore from is ErrNoCheckpoint, nothing else.
func FuzzLoad(f *testing.F) {
	valid := segmentOf(testState(4, 2), testState(5, 2), respaState(6, 2))
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	badCRC := append([]byte(nil), valid...)
	badCRC[len(segMagic)+4] ^= 0xff // the opening record's CRC
	f.Add(badCRC)
	f.Add(append([]byte(segMagic), Frame(overflowImage())...))

	// A worker process runs the target sequentially: one directory serves.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Load(dir, nil)
		if err != nil {
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Load: %v, want ErrNoCheckpoint", err)
			}
			return
		}
		img := EncodeState(r.State)
		for off := len(segMagic); off < len(b); {
			payload, n, _ := NextFrame(b[off:])
			if n == 0 {
				break
			}
			if bytes.Equal(payload, img) {
				return
			}
			off += n
		}
		t.Fatalf("restored step %d is no frame of the input", r.State.Step)
	})
}

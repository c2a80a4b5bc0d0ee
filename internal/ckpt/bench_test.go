package ckpt

import (
	"fmt"
	"path/filepath"
	"testing"

	"hfxmd/internal/chem"
)

// benchState builds a deterministic synthetic state with n atoms — large
// enough that encoding cost is visible, no SCF required.
func benchState(n int, step int64) *MDState {
	s := &MDState{
		Step: step,
		Pos:  make([]chem.Vec3, n),
		Vel:  make([]chem.Vec3, n),
		Frc:  make([]chem.Vec3, n),
		Epot: -76.026, ELo: -76.3, EHi: -76.0,
		RNG:        [3]uint64{0x9e3779b97f4a7c15, 42, 1},
		ParamsHash: 0xfeedface,
	}
	for i := 0; i < n; i++ {
		f := float64(i + 1)
		s.Pos[i] = chem.Vec3{f * 0.1, f * 0.2, f * 0.3}
		s.Vel[i] = chem.Vec3{f * 1e-4, -f * 1e-4, f * 2e-4}
		s.Frc[i] = chem.Vec3{-f * 1e-2, f * 1e-2, -f * 2e-2}
	}
	return s
}

// BenchmarkEncodeState measures the canonical serialisation alone — the
// cost every journal append and snapshot pays before touching the disk.
func BenchmarkEncodeState(b *testing.B) {
	s := benchState(64, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeState(s)
	}
}

// BenchmarkSnapshotWrite measures one durable (fsynced) ring snapshot:
// temp file, fsync, atomic rename, directory sync.
func BenchmarkSnapshotWrite(b *testing.B) {
	dir := b.TempDir()
	s := benchState(64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step = int64(i)
		if _, err := WriteSnapshot(dir, s, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pruneRing(dir, 3)
}

// BenchmarkJournalAppend measures one durable per-step journal record —
// the cost added to every MD step when checkpointing is on. The fsync
// dominates; BenchmarkJournalAppendNoFsync isolates the format cost.
func BenchmarkJournalAppend(b *testing.B) {
	benchJournalAppend(b, true)
}

func BenchmarkJournalAppendNoFsync(b *testing.B) {
	benchJournalAppend(b, false)
}

func benchJournalAppend(b *testing.B, fsync bool) {
	path := filepath.Join(b.TempDir(), "journal.wal")
	j, err := openJournal(path, fsync)
	if err != nil {
		b.Fatal(err)
	}
	defer j.close()
	s := benchState(64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step = int64(i)
		if _, err := j.writeRaw(frame(EncodeState(s))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResumeReplay measures Load on a directory holding one
// snapshot plus a 100-record journal ahead of it — the worst-case
// restore a default cadence (Every=10) never exceeds, padded 10×.
func BenchmarkResumeReplay(b *testing.B) {
	dir := b.TempDir()
	s := benchState(64, 0)
	if _, err := WriteSnapshot(dir, s, false); err != nil {
		b.Fatal(err)
	}
	j, err := openJournal(journalPath(dir), false)
	if err != nil {
		b.Fatal(err)
	}
	for step := int64(1); step <= 100; step++ {
		s.Step = step
		if _, err := j.writeRaw(frame(EncodeState(s))); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Load(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.State.Step != 100 {
			b.Fatalf("resumed at step %d, want 100", r.State.Step)
		}
	}
}

// TestBenchStateRoundTrips keeps the synthetic bench fixture honest: it
// must survive the same encode/decode path the real states use.
func TestBenchStateRoundTrips(t *testing.T) {
	s := benchState(7, 3)
	got, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

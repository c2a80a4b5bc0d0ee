package ckpt

import (
	"fmt"
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

// benchOnSteps times OnStep over b.N steps of a 64-atom state on a
// writer that opens a segment every `every` steps.
func benchOnSteps(b *testing.B, every int64) {
	w, err := NewWriter(Config{Dir: b.TempDir(), Every: every})
	if err != nil {
		b.Fatal(err)
	}
	s := benchState(64, 0)
	if err := w.OnStep(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		s.Step = int64(i)
		if err := w.OnStep(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshotWrite measures one durable segment opening: temp
// file, fsync, atomic rename, directory sync, ring trim.
func BenchmarkSnapshotWrite(b *testing.B) { benchOnSteps(b, 1) }

// BenchmarkJournalAppend measures one durable per-step record appended
// to the open segment — the cost added to every MD step when
// checkpointing is on. The fsync, written behind the step and waited for
// by the next, dominates.
func BenchmarkJournalAppend(b *testing.B) { benchOnSteps(b, 1<<62) }

// BenchmarkResumeReplay measures Load on one segment of 101 records —
// the worst-case restore a default cadence (Every=10) never exceeds,
// padded 10×.
func BenchmarkResumeReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 1000})
	if err != nil {
		b.Fatal(err)
	}
	s := benchState(64, 0)
	for step := int64(0); step <= 100; step++ {
		s.Step = step
		if err := w.OnStep(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
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

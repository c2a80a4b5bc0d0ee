package ckpt

import (
	"encoding/binary"
	"testing"

	"hfxmd/internal/chem"
)

// respaState is testState plus the slow-force section that marks a
// version-2 (RESPA) state.
func respaState(step int64, n int) *MDState {
	s := testState(step, n)
	for i := 0; i < n; i++ {
		f := float64(i+1) * 0.125
		s.Slow = append(s.Slow, chem.Vec3{f, -2 * f, f * f})
	}
	return s
}

func TestRespaStateEncodeDecodeRoundtrip(t *testing.T) {
	want := respaState(23, 4)
	img := EncodeState(want)
	if v := binary.LittleEndian.Uint64(img); v != stateVersionRESPA {
		t.Fatalf("RESPA state encoded as version %d, want %d", v, stateVersionRESPA)
	}
	got, err := DecodeState(img)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if _, err := DecodeState(img[:len(img)-8]); err == nil {
		t.Fatal("truncated RESPA image should not decode")
	}
}

// TestPlainStateImageUnchanged pins the version-1 wire format: a state
// without a slow force must encode exactly as before the RESPA
// extension, so every existing checkpoint, smoke fingerprint and
// bitwise pin stays valid.
func TestPlainStateImageUnchanged(t *testing.T) {
	s := testState(17, 5)
	img := EncodeState(s)
	if v := binary.LittleEndian.Uint64(img); v != stateVersion {
		t.Fatalf("plain state encoded as version %d, want %d", v, stateVersion)
	}
	if want := 10*8 + 3*24*len(s.Pos); len(img) != want {
		t.Fatalf("plain image is %d bytes, want %d (no slow section)", len(img), want)
	}
}

func TestRespaSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Config{Dir: dir, Every: 8})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(7); step <= 8; step++ {
		if err := w.OnStep(respaState(step, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapshotStep != 8 || r.ReplayedSteps != 0 {
		t.Fatalf("resume = %+v", r)
	}
	sameState(t, r.State, respaState(8, 3))
}

func TestRespaCloneCopiesSlow(t *testing.T) {
	s := respaState(3, 2)
	c := s.Clone()
	sameState(t, c, s)
	c.Slow[0][0] = 99
	if s.Slow[0][0] == 99 {
		t.Fatal("Clone must deep-copy the slow force")
	}
}

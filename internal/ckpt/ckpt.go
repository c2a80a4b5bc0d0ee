// Package ckpt is the durability layer for AIMD trajectories: a ring of
// journal segments that hold the complete MD state of every step, and
// fault injection for testing it. The paper's production workload —
// week-long PBE0 dynamics on 96 BG/Q racks — survives node failures by
// persisting the full MD state and replaying forward; this package is
// that mechanism for the md driver.
//
// # Segment format
//
// A checkpoint directory holds segment files step-%012d.wal, each named
// by the step of its first record:
//
//	magic   "HFXJRNL\x01"                      (8 bytes)
//	records:
//	    size uint32 LE                          payload bytes
//	    crc  uint32 LE                          CRC32 (IEEE) of payload
//	    payload                                 EncodeState bytes
//
// Each record carries the *complete* MD state of one step, so a restore
// is bitwise, not a recomputation: the resumed run continues from exactly
// the floats the crashed run last made durable. A segment's first record
// is its snapshot. The Writer opens a segment on its first step and on
// every Every-th step, writing it whole (temp file, fsync, atomic rename,
// directory fsync), and appends every other step's record to the segment
// it opened. A torn tail (short frame, CRC mismatch, undecodable payload)
// ends a segment's valid prefix. The directory keeps the newest Keep
// segments.
//
// # Write-behind
//
// Writer.OnStep encodes and frames the step's record, hands it to a
// goroutine that appends and fsyncs it, and returns: the trajectory
// computes step n+1 while record n goes to disk. OnStep(n+1) and Close
// first wait for record n, so at most one record is ever in flight, a
// failed write is reported by the next of those calls, and the goroutine
// has exited by the time Close returns. Records still reach the file
// whole and in order, so whatever instant the process dies at, the
// segment is a CRC-framed prefix of the run: the resume point is the last
// step handed over or the one before it, and either way the resumed
// trajectory is the uninterrupted one.
//
// # Resume invariant
//
// Load scans the segments newest first and restores the last record of
// the first one whose opening record is intact. A Writer never appends to
// a file it did not create, and opening a segment removes every segment
// named above it — the abandoned future of a fallback — so the newest
// segment always continues the trajectory that wrote it. Because
// velocity-Verlet is deterministic and every state is restored
// bit-for-bit, a resumed trajectory is bitwise identical to the
// uninterrupted run from the restore point on — the md tests enforce
// this to the last ulp for every injected fault mode.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"

	"hfxmd/internal/chem"
)

// MDState is the complete, restartable state of an MD trajectory after
// a given step: everything the integrator needs to continue bit-for-bit.
type MDState struct {
	// Step is the last completed MD step. For a RESPA trajectory it
	// counts *inner* steps, so Step mod k locates the state within the
	// outer cycle.
	Step int64
	// Pos, Vel, Frc are positions, velocities and forces (bohr, a.u.).
	// For a RESPA trajectory Frc holds the cheap reference force.
	Pos, Vel, Frc []chem.Vec3
	// Slow, when non-nil, marks the state as belonging to a RESPA
	// (multiple-time-step) trajectory and holds the slow correction
	// force F_full − F_cheap of the current outer cycle. Its presence
	// switches the encoding to version 2; plain MD states (Slow nil)
	// keep the byte-identical version-1 image.
	Slow []chem.Vec3
	// Epot is the potential energy at Pos in hartree.
	Epot float64
	// ELo/EHi are the accumulated extrema of the conserved total energy
	// over all frames so far — they make EnergyDrift of a resumed run
	// equal that of the uninterrupted run.
	ELo, EHi float64
	// RNG is the serialized velocity-initialisation RNG state.
	RNG [3]uint64
	// ParamsHash fingerprints the run configuration (timestep,
	// thermostat, seed, atom list). Load refuses to hand a state to a
	// run with a different fingerprint.
	ParamsHash uint64
}

// Clone deep-copies the state.
func (s *MDState) Clone() *MDState {
	c := *s
	c.Pos = append([]chem.Vec3(nil), s.Pos...)
	c.Vel = append([]chem.Vec3(nil), s.Vel...)
	c.Frc = append([]chem.Vec3(nil), s.Frc...)
	if s.Slow != nil {
		c.Slow = append([]chem.Vec3(nil), s.Slow...)
	}
	return &c
}

// ---------------------------------------------------------------------------
// State encoding: fixed-layout little-endian float64 bit images. The
// encoding is the durability *and* identity format — the aimd -json
// finalStateSha256 is a hash of exactly these bytes.

// stateVersion is the layout of plain MD states. Version 2 appends the
// RESPA slow-force vectors and is emitted only when MDState.Slow is set,
// so every pre-existing version-1 byte image (and the finalStateSha256
// of plain trajectories) is unchanged.
const (
	stateVersion      = 1
	stateVersionRESPA = 2
)

// stateEncodingVersion returns the layout version a state serialises as.
func stateEncodingVersion(s *MDState) uint64 {
	if s.Slow != nil {
		return stateVersionRESPA
	}
	return stateVersion
}

// EncodeState serialises a state to its canonical binary image.
func EncodeState(s *MDState) []byte {
	n := len(s.Pos)
	buf := make([]byte, 0, 8*8+4*24*n+8*3)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(stateEncodingVersion(s))
	u64(uint64(s.Step))
	u64(uint64(n))
	f64(s.Epot)
	f64(s.ELo)
	f64(s.EHi)
	u64(s.RNG[0])
	u64(s.RNG[1])
	u64(s.RNG[2])
	u64(s.ParamsHash)
	fields := [][]chem.Vec3{s.Pos, s.Vel, s.Frc}
	if s.Slow != nil {
		fields = append(fields, s.Slow)
	}
	for _, vs := range fields {
		for _, v := range vs {
			f64(v[0])
			f64(v[1])
			f64(v[2])
		}
	}
	return buf
}

// DecodeState parses an EncodeState image (either layout version).
func DecodeState(b []byte) (*MDState, error) {
	if len(b) < 10*8 {
		return nil, fmt.Errorf("ckpt: state image too short (%d bytes)", len(b))
	}
	off := 0
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	ver := u64()
	if ver != stateVersion && ver != stateVersionRESPA {
		return nil, fmt.Errorf("ckpt: state version %d, want %d or %d", ver, stateVersion, stateVersionRESPA)
	}
	s := &MDState{}
	s.Step = int64(u64())
	nvec := 3
	if ver == stateVersionRESPA {
		nvec = 4
	}
	// Bound the atom count by the bytes present before multiplying: a
	// count near 2^61 would wrap the expected length back into range.
	n64 := u64()
	if n64 > uint64((len(b)-10*8)/(nvec*24)) {
		return nil, fmt.Errorf("ckpt: state image %d bytes too short for %d atoms (version %d)", len(b), n64, ver)
	}
	n := int(n64)
	if want := 10*8 + nvec*24*n; len(b) != want {
		return nil, fmt.Errorf("ckpt: state image %d bytes, want %d for %d atoms (version %d)", len(b), want, n, ver)
	}
	s.Epot = f64()
	s.ELo = f64()
	s.EHi = f64()
	s.RNG[0] = u64()
	s.RNG[1] = u64()
	s.RNG[2] = u64()
	s.ParamsHash = u64()
	vecs := func() []chem.Vec3 {
		vs := make([]chem.Vec3, n)
		for i := range vs {
			vs[i] = chem.Vec3{f64(), f64(), f64()}
		}
		return vs
	}
	s.Pos = vecs()
	s.Vel = vecs()
	s.Frc = vecs()
	if ver == stateVersionRESPA {
		s.Slow = vecs()
	}
	return s, nil
}

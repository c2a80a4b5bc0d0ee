package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segMagic identifies (and versions) the segment format.
const segMagic = "HFXJRNL\x01"

// Frame returns one record framed for an append-only log: u32 LE payload
// length, u32 LE CRC32-IEEE of the payload, then the payload — the
// concatenation of parts, each copied once. The job journal and the
// store's segments use the same framing.
func Frame(parts ...[]byte) []byte {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	b := make([]byte, 8, 8+size)
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		b = append(b, p...)
	}
	binary.LittleEndian.PutUint32(b, uint32(size))
	binary.LittleEndian.PutUint32(b[4:], crc)
	return b
}

// NextFrame reads the frame at the start of b. n is the frame's length,
// or 0 when b holds no complete frame (a torn tail); ok reports whether
// the payload matches its CRC. Whether a bad frame ends the log or is
// stepped over is the caller's policy.
func NextFrame(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	size := int(binary.LittleEndian.Uint32(b))
	if size > len(b)-8 {
		return nil, 0, false
	}
	payload = b[8 : 8+size]
	return payload, 8 + size, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:])
}

// segmentName returns the filename of the segment opened at step.
func segmentName(step int64) string { return fmt.Sprintf("step-%012d.wal", step) }

// listSegments returns the opening steps of every segment in dir,
// ascending. Validity is not checked; Load does that newest-first.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var steps []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "step-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		if st, err := strconv.ParseInt(name[len("step-"):len(name)-len(".wal")], 10, 64); err == nil && st >= 0 {
			steps = append(steps, st)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, nil
}

// readSegment returns the first and the last state of a segment's valid
// prefix and the number of records in it. The prefix ends at the first
// torn, CRC-bad or undecodable frame; a segment without a magic has none.
func readSegment(path string) (first, last *MDState, n int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, nil, 0, nil
	}
	off := len(segMagic)
	for {
		payload, fl, ok := NextFrame(b[off:])
		if fl == 0 || !ok {
			break
		}
		s, err := DecodeState(payload)
		if err != nil {
			break
		}
		if first == nil {
			first = s
		}
		last, n, off = s, n+1, off+fl
	}
	return first, last, n, nil
}

// corruptOpening flips the first payload byte of a segment's opening
// record and leaves its CRC as written — the corrupt-snapshot mode of the
// fault plan. Load must skip the segment.
func corruptOpening(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	off := int64(len(segMagic) + 8)
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		return err
	}
	return f.Sync()
}

// AtomicWriteFile durably writes name inside dir with the crash-safe
// sequence every whole-file write here uses: temp file in the same
// directory, fsync, atomic rename, directory fsync. Readers never see a
// partial file; a crash leaves either the old content or the new. It is
// exported because the job journal's compaction writes with it too.
func AtomicWriteFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory so a rename is durable; best-effort on
// filesystems that reject directory fsync.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

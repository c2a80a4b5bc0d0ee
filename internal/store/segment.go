package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hfxmd/internal/ckpt"
)

// segMagic identifies (and versions) the segment file format. Every
// segment — sealed or active — starts with it.
const segMagic = "HFXSEG\x01"

// activeName is the append target. It carries the temp suffix on
// purpose: sealing a segment is exactly the ckpt temp+fsync+rename
// dance — records are appended (and fsynced) into the temp file, and
// rotation renames it to its immutable seg-N name in one atomic step.
const activeName = "seg-active.tmp"

// maxRecordBytes is the sanity bound on a single framed record: a
// length field beyond it means the frame itself is garbage, so the
// scanner cannot skip over the record and must stop reading the file.
const maxRecordBytes = 1 << 30

// segName returns the immutable filename of sealed segment n.
func segName(n int64) string { return fmt.Sprintf("seg-%08d.seg", n) }

// segNum parses a sealed segment filename back to its number, or -1.
func segNum(name string) int64 {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
		return -1
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// listSegments returns the numbers of all sealed segments in dir,
// ascending.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []int64
	for _, e := range ents {
		if n := segNum(e.Name()); n >= 0 {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// frameRecord wraps a key/value pair in the ckpt framing (ckpt.Frame):
// u32 payload length, u32 CRC32-IEEE of the payload, payload = u16 key
// length + key + value.
func frameRecord(key string, val []byte) []byte {
	var klen [2]byte
	binary.LittleEndian.PutUint16(klen[:], uint16(len(key)))
	return ckpt.Frame(klen[:], []byte(key), val)
}

// scannedRecord is one record surfaced by scanSegment: the key and the
// byte range of the *value* within the file, so Get can read just the
// payload later.
type scannedRecord struct {
	key string
	off int64 // value offset within the file
	len int32 // value length
}

// scanResult summarises one segment scan.
type scanResult struct {
	records []scannedRecord
	// corrupt counts CRC-mismatched records that were skipped (their
	// frame length was intact, so the scanner could step over them).
	corrupt int64
	// validLen is the byte length of the structurally scannable prefix:
	// everything after it is a torn tail (truncated frame, or a length
	// field too damaged to step over).
	validLen int64
	// torn reports whether the file extends beyond validLen.
	torn bool
}

// scanSegment reads one segment image and indexes its records. A
// CRC-mismatched record whose frame length is plausible is *skipped*
// and counted — one flipped payload byte must not hide the rest of the
// segment — while a frame that cannot be stepped over (length field
// out of range, or a record extending past EOF) ends the scan: that is
// the torn tail an interrupted append leaves.
func scanSegment(b []byte) scanResult {
	res := scanResult{}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		// No usable header: the whole file is a torn tail.
		res.torn = len(b) > 0
		return res
	}
	off := int64(len(segMagic))
	for {
		payload, n, ok := ckpt.NextFrame(b[off:])
		size := int64(len(payload))
		if n == 0 || size < 2 || size > maxRecordBytes {
			break // unsteppable frame: torn tail starts here
		}
		if klen := int64(binary.LittleEndian.Uint16(payload)); ok && 2+klen <= size {
			res.records = append(res.records, scannedRecord{
				key: string(payload[2 : 2+klen]),
				off: off + 8 + 2 + klen,
				len: int32(size - 2 - klen),
			})
		} else {
			res.corrupt++
		}
		off += int64(n)
	}
	res.validLen = off
	res.torn = off < int64(len(b))
	return res
}

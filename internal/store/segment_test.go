package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestRecordBytesPinned pins the on-disk bytes of one store record, so a
// change to the framing cannot silently orphan existing segments.
func TestRecordBytesPinned(t *testing.T) {
	const want = "12000000a453a3e809007363663a776174657264656e73697479"
	if got := hex.EncodeToString(frameRecord("scf:water", []byte("density"))); got != want {
		t.Fatalf("record bytes changed:\n got %s\nwant %s", got, want)
	}
}

// FuzzScanSegment feeds arbitrary bytes to the segment scanner. It must
// never panic, its valid prefix must lie inside the input, every value
// range it indexes must lie inside the file, and re-framing each indexed
// record must reproduce its bytes exactly.
func FuzzScanSegment(f *testing.F) {
	valid := []byte(segMagic)
	for _, kv := range [][2]string{{"a", "alpha"}, {"scf:water", "density"}, {"k", ""}} {
		valid = append(valid, frameRecord(kv[0], []byte(kv[1]))...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(segMagic)+8+3] ^= 0xff // a payload byte of the first record
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[len(segMagic):], ^uint32(0))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		res := scanSegment(b)
		if res.validLen < 0 || res.validLen > int64(len(b)) {
			t.Fatalf("valid length %d outside [0, %d]", res.validLen, len(b))
		}
		for _, r := range res.records {
			start := r.off - 8 - 2 - int64(len(r.key))
			end := r.off + int64(r.len)
			if start < int64(len(segMagic)) || r.len < 0 || end > res.validLen {
				t.Fatalf("record %q spans [%d, %d), outside [%d, %d)", r.key, start, end, len(segMagic), res.validLen)
			}
			if fr := frameRecord(r.key, b[r.off:end]); !bytes.Equal(fr, b[start:end]) {
				t.Fatalf("record %q does not re-frame to its bytes", r.key)
			}
		}
	})
}

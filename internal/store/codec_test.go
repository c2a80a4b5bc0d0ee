package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeMatrix feeds arbitrary bytes to both matrix decoders. Neither
// may panic, and a matrix either returns must re-encode to exactly the
// bytes it was decoded from: the whole input for DecodeMatrix, the input
// less the returned rest for DecodeMatrixPrefix.
func FuzzDecodeMatrix(f *testing.F) {
	valid := EncodeMatrix(2, []float64{1, -0.5, math.Inf(1), math.Copysign(0, -1)})
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), "trailer"...))
	f.Add(valid[:len(valid)-3])
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[len(matMagic):], ^uint32(0))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		if n, data, err := DecodeMatrix(b); err == nil {
			if enc := EncodeMatrix(n, data); !bytes.Equal(enc, b) {
				t.Fatalf("DecodeMatrix: n=%d does not re-encode to its %d input bytes", n, len(b))
			}
		}
		n, data, rest, err := DecodeMatrixPrefix(b)
		if err != nil {
			return
		}
		if len(rest) > len(b) {
			t.Fatalf("DecodeMatrixPrefix: %d bytes of rest from %d of input", len(rest), len(b))
		}
		if enc := EncodeMatrix(n, data); !bytes.Equal(enc, b[:len(b)-len(rest)]) {
			t.Fatalf("DecodeMatrixPrefix: n=%d does not re-encode to the %d bytes it consumed", n, len(b)-len(rest))
		}
	})
}

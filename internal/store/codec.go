package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// matMagic versions the dense-matrix payload encoding. Integrity is the
// segment layer's job (CRC-framed records); the codec only has to make
// the round trip bitwise-exact, because the density prefix-reuse path
// feeds decoded matrices straight back into SCF as initial guesses.
const matMagic = "HFXMAT\x01"

// EncodeMatrix serializes an n×n dense matrix (row-major, len n*n) to
// a store payload. Float64 bit patterns are preserved exactly.
func EncodeMatrix(n int, data []float64) []byte {
	b := make([]byte, 0, len(matMagic)+4+8*len(data))
	b = append(b, matMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeMatrix parses an EncodeMatrix payload back to (n, data).
func DecodeMatrix(b []byte) (int, []float64, error) {
	n, data, rest, err := DecodeMatrixPrefix(b)
	if err == nil && len(rest) != 0 {
		return 0, nil, fmt.Errorf("store: %d bytes after a matrix payload of n=%d", len(rest), n)
	}
	return n, data, err
}

// DecodeMatrixPrefix parses an EncodeMatrix payload at the front of b and
// returns what follows it, for payloads that append their own trailer.
func DecodeMatrixPrefix(b []byte) (n int, data []float64, rest []byte, err error) {
	if len(b) < len(matMagic)+4 || string(b[:len(matMagic)]) != matMagic {
		return 0, nil, nil, fmt.Errorf("store: not a matrix payload")
	}
	n = int(binary.LittleEndian.Uint32(b[len(matMagic):]))
	body := b[len(matMagic)+4:]
	if n < 0 || n > 1<<15 || len(body) < 8*n*n {
		return 0, nil, nil, fmt.Errorf("store: matrix payload length %d does not match n=%d", len(body), n)
	}
	data = make([]float64, n*n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return n, data, body[8*n*n:], nil
}

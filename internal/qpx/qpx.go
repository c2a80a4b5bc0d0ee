// Package qpx emulates the Blue Gene/Q QPX short-vector unit: a 4-wide
// double-precision SIMD datapath. The paper's integral kernels gather four
// primitive quartets at a time, evaluate the Boys function and Hermite
// recurrences across all four lanes, and scatter the results back. The
// integral kernel (package integrals) runs that gather/evaluate/scatter
// pipeline over flat primitive lists of any length; what this package
// keeps of the 4-wide view is
//
//   - the Vec4 lane type and the 4-lane Boys entry point BoysBatch;
//   - lane-utilisation accounting, because screening produces ragged
//     batches: the final batch of a screened quartet list is usually
//     partially full, and the paper's vector efficiency depends on the
//     fraction of useful lanes.
package qpx

import (
	"sync/atomic"

	"hfxmd/internal/boys"
)

// Width is the QPX vector width in doubles.
const Width = 4

// Vec4 is a 4-lane double-precision vector.
type Vec4 [Width]float64

// BoysBatch evaluates the Boys function orders 0..m for four T arguments
// at once, writing out[k][lane] = F_k(t[lane]). out must have length m+1.
// The lanes go through boys.EvalBatch — the arithmetic of boys.Eval, so
// each lane is bitwise the scalar value whatever its neighbours are — and
// are transposed to order-major on the way out.
func BoysBatch(m int, t Vec4, out []Vec4) {
	if m > boys.MaxOrder {
		panic("qpx: order exceeds boys.MaxOrder")
	}
	m1 := m + 1
	var buf [Width * (boys.MaxOrder + 1)]float64
	boys.EvalBatch(m, t[:], buf[:Width*m1])
	for k := range out[:m1] {
		for lane := range t {
			out[k][lane] = buf[lane*m1+k]
		}
	}
}

// Stats accumulates lane-utilisation counters across batched kernels. It
// is safe for concurrent use.
type Stats struct {
	batches     atomic.Int64
	activeLanes atomic.Int64
}

// Record notes batches batches that together carried active useful lanes
// (clamped to [0, batches×Width]) — one pair of shared atomic adds for a
// whole gathered primitive list, not one per batch.
func (s *Stats) Record(batches, active int) {
	batches = max(batches, 0)
	active = min(max(active, 0), batches*Width)
	s.batches.Add(int64(batches))
	s.activeLanes.Add(int64(active))
}

// Batches returns the number of batches recorded.
func (s *Stats) Batches() int64 { return s.batches.Load() }

// Utilization returns the mean fraction of useful lanes, in [0,1].
func (s *Stats) Utilization() float64 {
	b := s.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(s.activeLanes.Load()) / float64(b*Width)
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.batches.Store(0)
	s.activeLanes.Store(0)
}

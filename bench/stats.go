package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (nearest rank on the sorted copy) of
// xs, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample times n calls of f and returns the per-call durations.
func sample(n int, f func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0)
	}
	return out
}

func medianMS(ds []time.Duration) float64 { return median(mapDur(ds, ms)) }
func medianUS(ds []time.Duration) float64 { return median(mapDur(ds, us)) }

func mapDur(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

// rng is splitmix64: the benchmark's only randomness, so the same seed
// gives the same op list on every Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inverting the
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) draw(r *rng) int {
	return sort.SearchFloat64s(z.cdf, r.float())
}

// hashOf fingerprints words (float64 bit patterns, counts) and strings.
func hashOf(parts ...any) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			w(math.Float64bits(v))
		case int:
			w(uint64(v))
		case int64:
			w(uint64(v))
		case uint64:
			w(v)
		case string:
			h.Write([]byte(v))
		case []float64:
			for _, f := range v {
				w(math.Float64bits(f))
			}
		default:
			panic("bench: hashOf: unsupported part type")
		}
	}
	return h.Sum64()
}

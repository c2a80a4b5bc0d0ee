package md

import "math"

// rng is the velocity-initialisation random source: xorshift64* with a
// Box–Muller second-variate cache. Unlike math/rand it is fully
// serializable — state() captures every bit — which is what lets a
// checkpoint capture the generator mid-stream.
type rng struct {
	s        uint64
	gauss    float64
	hasGauss bool
}

// newRNG seeds the generator through a splitmix64 scramble so nearby
// integer seeds decorrelate; a zero post-scramble state (which would
// pin xorshift at zero forever) is remapped.
func newRNG(seed int64) *rng {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &rng{s: z}
}

// uint64 advances the xorshift64* stream.
func (r *rng) uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *rng) float64() float64 { return float64(r.uint64()>>11) / (1 << 53) }

// NormFloat64 returns a standard normal variate (polar Box–Muller; the
// paired second variate is cached and therefore part of the state).
func (r *rng) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.float64() - 1
		v := 2*r.float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// state serialises the generator: stream word, cached variate bits,
// cache-valid flag.
func (r *rng) state() [3]uint64 {
	var h uint64
	if r.hasGauss {
		h = 1
	}
	return [3]uint64{r.s, math.Float64bits(r.gauss), h}
}

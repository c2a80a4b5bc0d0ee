package steal

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Calibrator fits per-work-class correction factors from measured block
// walls: the online feedback loop the paper's static scheme assumes but
// a cold cost model lacks. Each Observe folds one (class, raw predicted
// cost, measured wall) sample into an exponential moving average of the
// measured/predicted ratio for that class; Scale then sharpens any raw
// cost vector into calibrated units, which feed sched.Balance (better
// placement), sched.PredictMakespan (better admission pricing and
// Retry-After) and the fleet's cost-weighted router.
//
// The calibrator is concurrency-safe and serializable (JSON via
// MarshalBinary/UnmarshalBinary), so it survives process restarts
// through internal/store or internal/ckpt.
type Calibrator struct {
	mu      sync.Mutex
	alpha   float64
	factors map[int]float64
	obs     map[int]int64
	// errEMA tracks |measured − calibrated prediction| / calibrated
	// prediction, updated *before* each factor update: the residual error
	// of the model as it was when the prediction was made. A sample's
	// error is capped at maxSampleErr.
	errEMA  float64
	errInit bool
	epoch   uint64

	// Window accumulators: per-build mean absolute relative error of the
	// calibrated and the raw (factor-1) model over the same samples,
	// reset by BeginWindow. The raw/calibrated pair is what makes the
	// improvement measurable on noisy walls — scheduling jitter hits both
	// alike, the systematic model bias only the raw one.
	winCal, winRaw float64
	winN           int64
}

// DefaultAlpha is the EMA weight used when NewCalibrator gets 0.
const DefaultAlpha = 0.25

// maxSampleErr caps the relative error one sample contributes to the
// error EMA and the window means: past a factor of two the prediction has
// simply missed. A task lasts tens of microseconds, so a descheduled one
// measures 20–100× slow; uncapped, |m − c|/c charges that one sample 1/f
// times more to the calibrated model than to a raw model that over-predicts
// the class (factor f < 1, its own error bounded by 1), and a single
// preemption outweighs a build's worth of samples in either mean.
const maxSampleErr = 1

// NewCalibrator returns an empty calibrator (all factors 1).
func NewCalibrator(alpha float64) *Calibrator {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Calibrator{
		alpha:   alpha,
		factors: make(map[int]float64),
		obs:     make(map[int]int64),
	}
}

// Observe folds one measured block wall into the class's correction
// factor. predictedNS must be the *raw* (uncalibrated) cost-model
// prediction; measuredNS the wall that block actually took. Ratios are
// clamped to [1/64, 64] so one wild outlier (GC pause, page fault)
// cannot wreck a factor.
func (c *Calibrator) Observe(class int, predictedNS, measuredNS float64) {
	if c == nil || predictedNS <= 0 || measuredNS <= 0 {
		return
	}
	r := measuredNS / predictedNS
	if r < 1.0/64 {
		r = 1.0 / 64
	} else if r > 64 {
		r = 64
	}
	c.mu.Lock()
	f, ok := c.factors[class]
	if !ok {
		f = 1
	}
	// Residual against the prediction the calibrated model would have
	// made with the pre-update factor.
	cal := predictedNS * f
	e := (measuredNS - cal) / cal
	if e < 0 {
		e = -e
	}
	e = min(e, maxSampleErr)
	if !c.errInit {
		c.errEMA, c.errInit = e, true
	} else {
		c.errEMA += c.alpha * (e - c.errEMA)
	}
	eRaw := (measuredNS - predictedNS) / predictedNS
	if eRaw < 0 {
		eRaw = -eRaw
	}
	eRaw = min(eRaw, maxSampleErr)
	c.winCal += e
	c.winRaw += eRaw
	c.winN++
	if !ok {
		f = r // first sample snaps the factor onto the measurement
	} else {
		f += c.alpha * (r - f)
	}
	c.factors[class] = f
	c.obs[class]++
	c.epoch++
	c.mu.Unlock()
}

// Factor returns the class's correction factor (1 when unobserved).
func (c *Calibrator) Factor(class int) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.factors[class]; ok {
		return f
	}
	return 1
}

// SetFactor overrides one class factor — the restore/test seam.
func (c *Calibrator) SetFactor(class int, f float64) {
	c.mu.Lock()
	c.factors[class] = f
	c.epoch++
	c.mu.Unlock()
}

// Scale returns a calibrated copy of costs: costs[i]×Factor(classes[i]).
// With a nil calibrator (or nil classes) the input is returned unscaled.
func (c *Calibrator) Scale(classes []int, costs []float64) []float64 {
	if c == nil || classes == nil {
		return costs
	}
	c.mu.Lock()
	if len(c.factors) == 0 {
		c.mu.Unlock()
		return costs
	}
	out := make([]float64, len(costs))
	for i, cost := range costs {
		f, ok := c.factors[classes[i]]
		if !ok {
			f = 1
		}
		out[i] = cost * f
	}
	c.mu.Unlock()
	return out
}

// Epoch returns a monotone version that advances on every Observe and
// SetFactor — memoised consumers (the fleet price cache) re-price when
// it moves.
func (c *Calibrator) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// BeginWindow starts a fresh error window (typically one build).
func (c *Calibrator) BeginWindow() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.winCal, c.winRaw, c.winN = 0, 0, 0
	c.mu.Unlock()
}

// WindowErr returns the mean absolute relative prediction error of the
// calibrated and the raw (uncalibrated) model over the samples observed
// since BeginWindow (each sample's error capped at maxSampleErr), plus the
// sample count. Zero errors when the window
// is empty.
func (c *Calibrator) WindowErr() (cal, raw float64, n int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.winN == 0 {
		return 0, 0, 0
	}
	return c.winCal / float64(c.winN), c.winRaw / float64(c.winN), c.winN
}

// MeanAbsErr returns the EMA of the relative residual |measured −
// calibrated| / calibrated — the calibration-error gauge surfaced in
// /metrics and gated by the w1 experiment.
func (c *Calibrator) MeanAbsErr() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errEMA
}

// Observations returns the total sample count across classes.
func (c *Calibrator) Observations() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, v := range c.obs {
		n += v
	}
	return n
}

// calibratorState is the serialized form.
type calibratorState struct {
	Version int                `json:"version"`
	Alpha   float64            `json:"alpha"`
	Factors map[string]float64 `json:"factors"`
	Obs     map[string]int64   `json:"obs"`
	ErrEMA  float64            `json:"errEma"`
	ErrInit bool               `json:"errInit"`
	Epoch   uint64             `json:"epoch"`
}

// MarshalBinary serializes the calibrator (JSON under the hood) so it
// can be persisted through internal/store or internal/ckpt.
func (c *Calibrator) MarshalBinary() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := calibratorState{
		Version: 1,
		Alpha:   c.alpha,
		Factors: make(map[string]float64, len(c.factors)),
		Obs:     make(map[string]int64, len(c.obs)),
		ErrEMA:  c.errEMA,
		ErrInit: c.errInit,
		Epoch:   c.epoch,
	}
	for k, v := range c.factors {
		st.Factors[fmt.Sprint(k)] = v
	}
	for k, v := range c.obs {
		st.Obs[fmt.Sprint(k)] = v
	}
	return json.Marshal(st)
}

// UnmarshalBinary restores a serialized calibrator in place.
func (c *Calibrator) UnmarshalBinary(data []byte) error {
	var st calibratorState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("steal: calibrator decode: %w", err)
	}
	if st.Version != 1 {
		return fmt.Errorf("steal: calibrator version %d not supported", st.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.Alpha > 0 && st.Alpha <= 1 {
		c.alpha = st.Alpha
	}
	c.factors = make(map[int]float64, len(st.Factors))
	c.obs = make(map[int]int64, len(st.Obs))
	for k, v := range st.Factors {
		var class int
		if _, err := fmt.Sscanf(k, "%d", &class); err != nil {
			return fmt.Errorf("steal: calibrator class key %q: %w", k, err)
		}
		c.factors[class] = v
	}
	for k, v := range st.Obs {
		var class int
		if _, err := fmt.Sscanf(k, "%d", &class); err != nil {
			return fmt.Errorf("steal: calibrator class key %q: %w", k, err)
		}
		c.obs[class] = v
	}
	c.errEMA, c.errInit, c.epoch = st.ErrEMA, st.ErrInit, st.Epoch
	return nil
}

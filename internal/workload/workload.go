// Package workload generates synthetic client populations for the hfxd
// fleet: mixed job types drawn from a weighted mix, Poisson or Gamma
// inter-arrival processes with burst phases, and SLO classes. A
// generated trace is a plain value — recordable to JSON and replayable
// bit-for-bit — so the same client population can be thrown at every
// routing policy and the runs compared event by event.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"hfxmd/internal/server"
)

// MixEntry is one job type in the workload mix.
type MixEntry struct {
	// Name labels the entry in traces and reports.
	Name string `json:"name"`
	// Class is the SLO class events of this entry are accounted under
	// (e.g. "interactive", "batch"); defaults to Name.
	Class string `json:"class,omitempty"`
	// Weight is the relative draw probability (> 0).
	Weight float64 `json:"weight"`
	// Request is the job template.
	Request server.JobRequest `json:"request"`
	// KeyPool > 1 spreads the entry over that many distinct canonical
	// keys by varying MaxIter (which is part of the result-cache key), so
	// a trace can model repeated-key traffic with a controlled key
	// cardinality. 0 or 1 leaves the template untouched: every draw is
	// the same key, the cache-affinity router's best case.
	KeyPool int `json:"keyPool,omitempty"`
}

// PhaseSpec is one arrival phase. Phases run in order, sharing the
// trace clock, which is how bursts are modelled: a high-rate phase
// sandwiched between low-rate ones.
type PhaseSpec struct {
	// Events is the number of arrivals generated in this phase.
	Events int `json:"events"`
	// RateHz is the mean arrival rate in trace time.
	RateHz float64 `json:"rateHz"`
	// GammaShape shapes the inter-arrival distribution (Gamma with this
	// shape, scaled to mean 1/RateHz). 1 (the default) is a Poisson
	// process; < 1 is burstier than Poisson, > 1 more regular.
	GammaShape float64 `json:"gammaShape,omitempty"`
}

// Spec is a complete workload description: everything Generate needs,
// so trace files are reproducible from their embedded spec alone.
type Spec struct {
	Name    string      `json:"name,omitempty"`
	Seed    uint64      `json:"seed"`
	Clients int         `json:"clients"`
	Mix     []MixEntry  `json:"mix"`
	Phases  []PhaseSpec `json:"phases"`
}

// Event is one generated arrival.
type Event struct {
	// Seq is the 0-based position in the trace.
	Seq int `json:"seq"`
	// Client is the submitting client, in [0, Spec.Clients).
	Client int `json:"client"`
	// AtNS is the arrival offset from trace start, trace-time ns.
	AtNS int64 `json:"atNs"`
	// Mix and Class echo the generating MixEntry.
	Mix   string `json:"mix"`
	Class string `json:"class"`
	// Request is the concrete job (template + key-pool variation).
	Request server.JobRequest `json:"request"`
}

// Trace is a recorded client population: the generating spec plus the
// concrete event sequence.
type Trace struct {
	Spec   Spec    `json:"spec"`
	Events []Event `json:"events"`
}

// Generate expands a spec into its trace. The same spec always yields
// the same trace: the generator runs on a self-contained xorshift64*
// stream seeded from Spec.Seed, never on global randomness.
func Generate(spec Spec) (*Trace, error) {
	if spec.Clients <= 0 {
		spec.Clients = 1
	}
	if len(spec.Mix) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	var totalW float64
	for i, m := range spec.Mix {
		if m.Weight <= 0 {
			return nil, fmt.Errorf("workload: mix[%d] %q has weight %g", i, m.Name, m.Weight)
		}
		totalW += m.Weight
	}
	if len(spec.Phases) == 0 {
		return nil, fmt.Errorf("workload: no phases")
	}
	total := 0
	for i, p := range spec.Phases {
		if p.Events < 0 || p.RateHz <= 0 {
			return nil, fmt.Errorf("workload: phase %d needs events >= 0 and rateHz > 0", i)
		}
		total += p.Events
	}
	r := newRNG(spec.Seed)
	tr := &Trace{Spec: spec, Events: make([]Event, 0, total)}
	var t float64 // trace clock, seconds
	seq := 0
	for _, p := range spec.Phases {
		shape := p.GammaShape
		if shape == 0 {
			shape = 1
		}
		for k := 0; k < p.Events; k++ {
			// Gamma(shape) has mean = shape, so dividing by shape·rate
			// gives mean inter-arrival 1/rate at every burstiness.
			t += r.gamma(shape) / (shape * p.RateHz)
			m := pickMix(spec.Mix, totalW, r.float64())
			req := m.Request
			if m.KeyPool > 1 {
				// MaxIter is part of the canonical cache key, so offsetting
				// it fans the template out over KeyPool distinct keys. The
				// base keeps SCF-kind variants convergent.
				req.MaxIter = keyPoolBaseIter + int(r.uint64()%uint64(m.KeyPool))
			}
			class := m.Class
			if class == "" {
				class = m.Name
			}
			tr.Events = append(tr.Events, Event{
				Seq:     seq,
				Client:  int(r.uint64() % uint64(spec.Clients)),
				AtNS:    int64(t * 1e9),
				Mix:     m.Name,
				Class:   class,
				Request: req,
			})
			seq++
		}
	}
	return tr, nil
}

// keyPoolBaseIter is the MaxIter floor of key-pool variants: high enough
// that SCF-kind jobs still converge, low enough to stay distinct from
// the 0 ("server default") sentinel.
const keyPoolBaseIter = 50

func pickMix(mix []MixEntry, totalW, u float64) *MixEntry {
	x := u * totalW
	for i := range mix {
		x -= mix[i].Weight
		if x < 0 {
			return &mix[i]
		}
	}
	return &mix[len(mix)-1]
}

// Save records the trace as JSON.
func (tr *Trace) Save(path string) error {
	b, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTrace reads a recorded trace.
func LoadTrace(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := DecodeTrace(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// DecodeTrace parses a JSON trace and rejects any that Generate could
// not have produced in shape: at least one client, every event's client
// in range, events numbered by position, and arrival offsets
// non-negative and non-decreasing.
func DecodeTrace(b []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		return nil, fmt.Errorf("workload: parse trace: %w", err)
	}
	if tr.Spec.Clients < 1 {
		return nil, fmt.Errorf("workload: trace has %d clients, need >= 1", tr.Spec.Clients)
	}
	var prev int64
	for i, ev := range tr.Events {
		switch {
		case ev.Seq != i:
			return nil, fmt.Errorf("workload: event %d has seq %d", i, ev.Seq)
		case ev.Client < 0 || ev.Client >= tr.Spec.Clients:
			return nil, fmt.Errorf("workload: event %d client %d outside [0, %d)", i, ev.Client, tr.Spec.Clients)
		case ev.AtNS < prev:
			return nil, fmt.Errorf("workload: event %d arrives at %d ns, before %d ns", i, ev.AtNS, prev)
		}
		prev = ev.AtNS
	}
	return &tr, nil
}

// Classes returns the distinct SLO classes of the trace, in first-seen
// order.
func (tr *Trace) Classes() []string {
	seen := map[string]bool{}
	var out []string
	for i := range tr.Events {
		if c := tr.Events[i].Class; !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Deterministic random source: xorshift64* behind a splitmix64 seed
// scramble (the same construction internal/md uses for reproducible
// velocity draws), plus the variate shapes the generator needs.

type rng struct {
	s uint64
}

func newRNG(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &rng{s: z}
}

func (r *rng) uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *rng) float64() float64 { return float64(r.uint64()>>11) / (1 << 53) }

// norm returns a standard normal variate (polar Box–Muller, second
// variate discarded to keep the stream position simple).
func (r *rng) norm() float64 {
	for {
		u := 2*r.float64() - 1
		v := 2*r.float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// gamma samples Gamma(shape, 1) by Marsaglia–Tsang squeeze for
// shape >= 1, boosted from shape+1 for shape < 1.
func (r *rng) gamma(shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a)
		return r.gamma(shape+1) * math.Pow(r.float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

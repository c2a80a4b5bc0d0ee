// Package mprt is an in-process message-passing runtime: the layer that
// *executes* the paper's rank decomposition instead of modelling it. A
// World joins N ranks — plain goroutines — through Comm handles with real
// collectives (Barrier, Bcast, Allreduce, ReduceScatter, Allgatherv),
// each available in two schedules:
//
//   - Binomial: the latency-oriented binomial tree over linear ranks;
//   - DimExchange: the BG/Q-style torus schedule, partners chosen by
//     dimension-ordered exchange over the rank→coordinate embedding of a
//     torus.Shape (fastest row-major dimension first, coordinate distance
//     doubling within each dimension).
//
// Point-to-point delivery is typed channels; there are no background
// goroutines, so a World leaks nothing once its rank functions return.
// Every send records bytes, torus hops and schedule steps into a
// trace.Registry, which is what lets the d1 experiment validate measured
// collective traffic against the analytic bgq.AllreduceTime model.
//
// Determinism rule (load-bearing for the hfx execution core): every
// reduction sums in the canonical binary-tree order over rank indices —
// the same ((r0+r1)+(r2+r3))+… association as the hfx execution core's
// stride-doubling slot tree — regardless of schedule. The two schedules
// move the data along different partner sequences, but the DimExchange
// embedding produced by torus.ShapeForNodes keeps every dimension except
// the slowest at a power-of-two length, which makes its nested
// dimension-ordered tree coincide exactly with the canonical one. Results
// are therefore bitwise identical across schedules and independent of
// goroutine interleaving.
package mprt

import (
	"fmt"
	"math/bits"
	"sync"

	"hfxmd/internal/torus"
	"hfxmd/internal/trace"
)

// Schedule selects the collective communication schedule.
type Schedule int

const (
	// Binomial is the binomial tree over linear rank indices.
	Binomial Schedule = iota
	// DimExchange is the torus dimension-ordered exchange schedule.
	DimExchange
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Binomial:
		return "binomial"
	case DimExchange:
		return "dim-exchange"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Options configures a World.
type Options struct {
	// Ranks is the number of ranks (required, ≥ 1).
	Ranks int
	// Schedule selects the collective schedule (default Binomial).
	Schedule Schedule
	// Shape is the torus the ranks are embedded onto. The zero value
	// picks torus.ShapeForNodes(Ranks), whose power-of-two fast
	// dimensions guarantee the canonical reduction order (see the package
	// comment); a custom shape must cover exactly Ranks nodes.
	Shape torus.Shape
	// Registry receives the traffic counters (default: a fresh one).
	Registry *trace.Registry
}

// message is one point-to-point delivery. The payload slice is borrowed,
// not copied: the receiver may read it until its next send to (or
// receive from) establishes a new ordering with the sender, which is the
// discipline all collectives follow.
type message struct {
	tag  int
	data []float64
}

// op is one rank's action in one schedule level: receive-and-accumulate
// from a child, or send the local partial to the parent (always the last
// op of a rank's sequence).
type op struct {
	partner int
	recv    bool
	level   int // global level index (for step accounting)
	hops    int // torus hop distance to the partner
}

// World is a set of ranks joined by channels. Create with NewWorld, hand
// the Comm handles to goroutines (or use Run), and Close when done.
type World struct {
	n     int
	sched Schedule
	tor   *torus.Torus
	reg   *trace.Registry

	coords []torus.Coord
	chans  [][]chan message // chans[to][from]
	comms  []*Comm

	// reduceOps[r] is rank r's action sequence for one canonical tree
	// reduction to rank 0; levels is the total number of schedule levels
	// (= message rounds of one reduce phase). block[r] is the contiguous
	// rank range [r, block[r]) absorbed into r by a full reduction.
	reduceOps [][]op
	levels    int
	block     []int

	closeOnce sync.Once
	closed    chan struct{}
}

// NewWorld creates a world of opts.Ranks ranks.
func NewWorld(opts Options) (*World, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("mprt: need at least 1 rank, got %d", opts.Ranks)
	}
	shape := opts.Shape
	if shape == (torus.Shape{}) {
		s, err := torus.ShapeForNodes(opts.Ranks)
		if err != nil {
			return nil, err
		}
		shape = s
	}
	if shape.Nodes() != opts.Ranks {
		return nil, fmt.Errorf("mprt: shape %v holds %d nodes, want %d ranks",
			shape, shape.Nodes(), opts.Ranks)
	}
	tor, err := torus.New(shape)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = trace.NewRegistry()
	}
	w := &World{
		n:      opts.Ranks,
		sched:  opts.Schedule,
		tor:    tor,
		reg:    reg,
		coords: make([]torus.Coord, opts.Ranks),
		chans:  make([][]chan message, opts.Ranks),
		comms:  make([]*Comm, opts.Ranks),
		closed: make(chan struct{}),
	}
	for r := 0; r < opts.Ranks; r++ {
		w.coords[r] = tor.Coords(r)
		w.chans[r] = make([]chan message, opts.Ranks)
		for from := 0; from < opts.Ranks; from++ {
			w.chans[r][from] = make(chan message, 1)
		}
	}
	for r := 0; r < opts.Ranks; r++ {
		w.comms[r] = &Comm{w: w, rank: r}
	}
	w.buildSchedule()
	// Pre-create every counter the collectives touch.
	for _, name := range []string{
		"mprt.sends", "mprt.bytes", "mprt.hops",
		"mprt.barrier.calls", "mprt.bcast.calls", "mprt.allreduce.calls",
		"mprt.reducescatter.calls", "mprt.allgatherv.calls",
		"mprt.allreduce.steps", "mprt.reducescatter.steps",
		"mprt.allgatherv.steps", "mprt.bcast.steps", "mprt.barrier.steps",
	} {
		reg.Counter(name)
	}
	return w, nil
}

// buildSchedule precomputes each rank's canonical-tree action sequence
// under the world's schedule, the level count, and the subtree blocks.
func (w *World) buildSchedule() {
	w.reduceOps = make([][]op, w.n)
	type pair struct{ parent, child int }
	var levels [][]pair

	switch w.sched {
	case Binomial:
		for s := 1; s < w.n; s *= 2 {
			var lv []pair
			for r := 0; r+s < w.n; r += 2 * s {
				lv = append(lv, pair{r, r + s})
			}
			levels = append(levels, lv)
		}
	case DimExchange:
		// Fastest row-major dimension (E) first. Only ranks whose faster
		// coordinates are already 0 participate in a dimension's levels,
		// and within a dimension the coordinate distance doubles — the
		// nested tree this produces is canonical for ShapeForNodes shapes.
		shape := w.tor.Shape
		for d := torus.Dims - 1; d >= 0; d-- {
			for q := 1; q < shape[d]; q *= 2 {
				var lv []pair
				for r := 0; r < w.n; r++ {
					c := w.coords[r]
					eligible := true
					for fd := d + 1; fd < torus.Dims; fd++ {
						if c[fd] != 0 {
							eligible = false
							break
						}
					}
					if !eligible || c[d]%(2*q) != 0 || c[d]+q >= shape[d] {
						continue
					}
					pc := c
					pc[d] += q
					lv = append(lv, pair{r, w.tor.Rank(pc)})
				}
				if len(lv) > 0 {
					levels = append(levels, lv)
				}
			}
		}
	default:
		panic(fmt.Sprintf("mprt: unknown schedule %v", w.sched))
	}

	w.levels = len(levels)
	span := make([]int, w.n)
	for r := range span {
		span[r] = 1
	}
	for li, lv := range levels {
		for _, p := range lv {
			h := w.tor.HopDistance(w.coords[p.parent], w.coords[p.child])
			w.reduceOps[p.parent] = append(w.reduceOps[p.parent],
				op{partner: p.child, recv: true, level: li, hops: h})
			w.reduceOps[p.child] = append(w.reduceOps[p.child],
				op{partner: p.parent, recv: false, level: li, hops: h})
			span[p.parent] += span[p.child]
		}
	}
	w.block = make([]int, w.n)
	for r := range w.block {
		w.block[r] = r + span[r]
	}
	if w.block[0] != w.n {
		panic(fmt.Sprintf("mprt: schedule %v does not cover all %d ranks", w.sched, w.n))
	}
}

// Size returns the rank count.
func (w *World) Size() int { return w.n }

// Schedule returns the collective schedule.
func (w *World) Schedule() Schedule { return w.sched }

// Shape returns the torus shape the ranks are embedded onto.
func (w *World) Shape() torus.Shape { return w.tor.Shape }

// CoordOf returns the torus coordinate of a rank.
func (w *World) CoordOf(rank int) torus.Coord { return w.coords[rank] }

// Registry exposes the traffic counters.
func (w *World) Registry() *trace.Registry { return w.reg }

// PredictedReduceSteps returns the message rounds of one tree reduction
// under the schedule — the quantity the bgq machine model predicts as
// ceil(log2 N) rounds (binomial) or torus.DimExchangeSteps (dimension
// exchange). One Allreduce measures 2× this (reduce + broadcast phases),
// matching the factor in bgq.AllreduceTime.
func (w *World) PredictedReduceSteps() int {
	switch w.sched {
	case DimExchange:
		return w.tor.DimExchangeSteps()
	default:
		if w.n <= 1 {
			return 0
		}
		return bits.Len(uint(w.n - 1)) // ceil(log2 n)
	}
}

// Comm returns the handle for one rank. Each handle must be driven by a
// single goroutine at a time; collectives must be entered by all ranks.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("mprt: rank %d outside world of %d", rank, w.n))
	}
	return w.comms[rank]
}

// Run spawns one goroutine per rank, invokes f with its Comm, and waits
// for all of them. The first non-nil error (lowest rank) is returned.
func (w *World) Run(f func(*Comm) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	for r := 0; r < w.n; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = f(w.comms[r])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close marks the world closed: subsequent sends and receives panic.
// The world owns no goroutines, so Close frees nothing else — it exists
// to turn use-after-close into a loud failure instead of a deadlock.
func (w *World) Close() {
	w.closeOnce.Do(func() { close(w.closed) })
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	w    *World
	rank int

	// Per-rank traffic, written only by this rank's goroutine; read them
	// after Run returns (or any other happens-before edge).
	bytesSent int64
	sends     int64
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world's rank count.
func (c *Comm) Size() int { return c.w.n }

// BytesSent returns the total payload bytes this rank has sent.
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// Sends returns the number of messages this rank has sent.
func (c *Comm) Sends() int64 { return c.sends }

// Send delivers data to the given rank under a tag. The slice is
// borrowed by the receiver, not copied: the sender must not write to it
// until a later message from the receiver (or Run returning) establishes
// an ordering. All collectives obey this discipline internally.
func (c *Comm) Send(to, tag int, data []float64) {
	c.sendHops(to, tag, data, c.w.tor.HopDistance(c.w.coords[c.rank], c.w.coords[to]))
}

func (c *Comm) sendHops(to, tag int, data []float64, hops int) {
	select {
	case <-c.w.closed:
		panic("mprt: send on closed world")
	default:
	}
	b := int64(8 * len(data))
	c.bytesSent += b
	c.sends++
	c.w.reg.Counter("mprt.sends").Add(1)
	c.w.reg.Counter("mprt.bytes").Add(b)
	c.w.reg.Counter("mprt.hops").Add(int64(hops))
	c.w.chans[to][c.rank] <- message{tag: tag, data: data}
}

// Recv blocks for the next message from the given rank and checks its
// tag; a mismatch is a protocol bug and panics.
func (c *Comm) Recv(from, tag int) []float64 {
	select {
	case <-c.w.closed:
		panic("mprt: recv on closed world")
	case m := <-c.w.chans[c.rank][from]:
		if m.tag != tag {
			panic(fmt.Sprintf("mprt: rank %d expected tag %d from %d, got %d",
				c.rank, tag, from, m.tag))
		}
		return m.data
	}
}

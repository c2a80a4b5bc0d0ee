// Package sched provides the static load-balancing algorithms at the
// heart of the paper's parallelization scheme, plus the metrics used to
// judge them. The key observation of the paper is that HFX task costs are
// *predictable* from the screened pair list, so a static cost-sorted
// greedy assignment (LPT) achieves near-perfect balance across millions of
// threads without any runtime migration; block and round-robin layouts are
// kept as the ablation baselines, and an online list scheduler models the
// work-stealing fallback.
package sched

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Assignment maps each worker to the indices of the tasks it executes.
type Assignment struct {
	// Workers[w] lists task indices assigned to worker w.
	Workers [][]int
	// Loads[w] is the summed cost on worker w.
	Loads []float64
}

// NWorkers returns the worker count.
func (a *Assignment) NWorkers() int { return len(a.Workers) }

// MaxLoad returns the largest per-worker load (the makespan under the
// cost model).
func (a *Assignment) MaxLoad() float64 {
	var m float64
	for _, l := range a.Loads {
		if l > m {
			m = l
		}
	}
	return m
}

// MeanLoad returns the average per-worker load.
func (a *Assignment) MeanLoad() float64 {
	if len(a.Loads) == 0 {
		return 0
	}
	var s float64
	for _, l := range a.Loads {
		s += l
	}
	return s / float64(len(a.Loads))
}

// BalanceRatio returns max/mean load; 1.0 is perfect balance. The paper's
// parallel efficiency at P workers is ≈ 1/BalanceRatio when communication
// is negligible.
func (a *Assignment) BalanceRatio() float64 {
	mean := a.MeanLoad()
	if mean == 0 {
		return 1
	}
	return a.MaxLoad() / mean
}

// Algorithm names a balancing strategy.
type Algorithm int

const (
	// Block splits the task list into contiguous equal-count chunks —
	// the naive layout of data-distributed codes.
	Block Algorithm = iota
	// RoundRobin deals tasks cyclically, ignoring costs.
	RoundRobin
	// LPT (longest processing time first) sorts tasks by descending cost
	// and greedily assigns each to the least-loaded worker. This is the
	// paper's static scheme; it is a 4/3-approximation of the optimal
	// makespan and in practice near-perfect for heavy-tailed HFX costs.
	LPT
	// Steal models the dynamic fallback: an online list scheduler where
	// idle workers take the next task from a shared queue in list order.
	Steal
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Block:
		return "block"
	case RoundRobin:
		return "round-robin"
	case LPT:
		return "lpt"
	case Steal:
		return "steal"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Balance assigns tasks with the given costs to nWorkers workers.
func Balance(alg Algorithm, costs []float64, nWorkers int) *Assignment {
	if nWorkers < 1 {
		panic("sched: need at least one worker")
	}
	a := &Assignment{
		Workers: make([][]int, nWorkers),
		Loads:   make([]float64, nWorkers),
	}
	switch alg {
	case Block:
		per := (len(costs) + nWorkers - 1) / nWorkers
		for i := range costs {
			w := i / max(per, 1)
			if w >= nWorkers {
				w = nWorkers - 1
			}
			a.assign(w, i, costs[i])
		}
	case RoundRobin:
		for i := range costs {
			a.assign(i%nWorkers, i, costs[i])
		}
	case LPT:
		order := make([]int, len(costs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return costs[order[x]] > costs[order[y]] })
		h := newLoadHeap(nWorkers)
		for _, i := range order {
			w := h.popMin()
			a.assign(w, i, costs[i])
			h.push(w, a.Loads[w])
		}
	case Steal:
		// Online greedy in list order: each task goes to the worker that
		// becomes free first. Equivalent to simulating a shared queue.
		h := newLoadHeap(nWorkers)
		for i := range costs {
			w := h.popMin()
			a.assign(w, i, costs[i])
			h.push(w, a.Loads[w])
		}
	default:
		panic(fmt.Sprintf("sched: unknown algorithm %v", alg))
	}
	return a
}

func (a *Assignment) assign(w, task int, cost float64) {
	a.Workers[w] = append(a.Workers[w], task)
	a.Loads[w] += cost
}

// loadHeap is a min-heap of (load, worker).
type loadHeap struct {
	loads   []float64
	workers []int
}

func newLoadHeap(n int) *loadHeap {
	h := &loadHeap{loads: make([]float64, n), workers: make([]int, n)}
	for i := range h.workers {
		h.workers[i] = i
	}
	return h
}

func (h *loadHeap) Len() int { return len(h.workers) }
func (h *loadHeap) Less(i, j int) bool {
	if h.loads[i] != h.loads[j] {
		return h.loads[i] < h.loads[j]
	}
	return h.workers[i] < h.workers[j] // deterministic tie-break
}
func (h *loadHeap) Swap(i, j int) {
	h.loads[i], h.loads[j] = h.loads[j], h.loads[i]
	h.workers[i], h.workers[j] = h.workers[j], h.workers[i]
}
func (h *loadHeap) Push(x any) {
	p := x.([2]float64)
	h.loads = append(h.loads, p[0])
	h.workers = append(h.workers, int(p[1]))
}
func (h *loadHeap) Pop() any {
	n := len(h.workers) - 1
	v := [2]float64{h.loads[n], float64(h.workers[n])}
	h.loads = h.loads[:n]
	h.workers = h.workers[:n]
	return v
}

func (h *loadHeap) popMin() int {
	v := heap.Pop(h).([2]float64)
	return int(v[1])
}

func (h *loadHeap) push(w int, load float64) {
	heap.Push(h, [2]float64{load, float64(w)})
}

// TotalCost returns the summed task cost — the serial wall-clock
// prediction of the cost model.
func TotalCost(costs []float64) float64 {
	var s float64
	for _, c := range costs {
		s += c
	}
	return s
}

// PredictMakespan returns the cost model's wall-clock prediction for
// executing tasks with the given costs on nWorkers workers under alg:
// the maximum per-worker load of the resulting assignment. This is the
// exported cost-prediction hook of the scheduling layer — the paper's
// observation that HFX cost is predictable from the screened pair list
// means a serving layer can price a job *before* running it, which the
// hfxd admission queue uses for shortest-predicted-job-first ordering.
func PredictMakespan(alg Algorithm, costs []float64, nWorkers int) float64 {
	if len(costs) == 0 {
		return 0
	}
	return Balance(alg, costs, nWorkers).MaxLoad()
}

// TheoreticalEfficiency returns the parallel efficiency implied by an
// assignment's balance alone (ignoring communication): mean/max.
func (a *Assignment) TheoreticalEfficiency() float64 {
	m := a.MaxLoad()
	if m == 0 {
		return 1
	}
	return a.MeanLoad() / m
}

// CostStats summarises a task-cost distribution (used in reports).
type CostStats struct {
	N               int
	Total, Max, Min float64
	Mean, CV        float64 // CV = stddev/mean, the heavy-tail indicator
}

// Summarize computes CostStats over costs.
func Summarize(costs []float64) CostStats {
	st := CostStats{N: len(costs), Min: math.Inf(1)}
	if len(costs) == 0 {
		st.Min = 0
		return st
	}
	for _, c := range costs {
		st.Total += c
		if c > st.Max {
			st.Max = c
		}
		if c < st.Min {
			st.Min = c
		}
	}
	st.Mean = st.Total / float64(st.N)
	var ss float64
	for _, c := range costs {
		d := c - st.Mean
		ss += d * d
	}
	if st.Mean > 0 {
		st.CV = math.Sqrt(ss/float64(st.N)) / st.Mean
	}
	return st
}

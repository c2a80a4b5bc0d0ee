package server

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"
)

// Queue admission errors.
var (
	// ErrQueueFull reports that the bounded admission queue is at
	// capacity; the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining reports that the server has stopped accepting jobs.
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// job is one admitted unit of work flowing through the queue.
type job struct {
	id  string
	req JobRequest // resolved: its key is the job's canonical cache key

	prep      *prepared
	predicted float64 // cost-model ns
	// rank is the static heap key implementing shortest-predicted-job-
	// first with starvation aging (see queue docs).
	rank float64
	seq  int64 // FIFO tie-break for equal ranks

	enq    time.Time
	ctx    context.Context
	cancel context.CancelFunc

	// result is written by the worker (or the cache path) before done is
	// closed; the submitting handler only reads it after <-done.
	result *JobResult
	done   chan struct{}
}

// outcome is the result of a run that returned err, before its payload:
// done on nil, cancelled once the job's context has ended, else failed.
func (j *job) outcome(err error) *JobResult {
	switch {
	case err == nil:
		return &JobResult{State: StateDone}
	case j.ctx.Err() != nil:
		return &JobResult{State: StateCancelled, Error: err.Error()}
	default:
		return &JobResult{State: StateFailed, Error: err.Error()}
	}
}

// queue is the bounded, cost-aware admission queue. Ordering is
// shortest-predicted-job-first with starvation aging: the heap key is
//
//	rank = predictedCost + aging·t_enqueue
//
// where t_enqueue is seconds since server start. Because every job's
// rank is fixed at admission, the relative order of two queued jobs
// never changes (a heap-stable formulation), yet aging still bounds
// starvation: a job that arrives Δt seconds after an expensive one must
// be at least aging·Δt cheaper to overtake it, so an expensive job can
// be overtaken for at most predicted/aging seconds of arrivals.
type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    jobHeap
	cap      int
	draining bool
	// queuedNS sums the predicted cost of queued jobs (Retry-After).
	queuedNS float64
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job or reports why it cannot.
func (q *queue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return ErrDraining
	}
	if len(q.items) >= q.cap {
		return ErrQueueFull
	}
	heap.Push(&q.items, j)
	q.queuedNS += j.predicted
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is drained empty; the
// second return is false when the caller (a worker) should exit.
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.draining {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := heap.Pop(&q.items).(*job)
	q.queuedNS -= j.predicted
	return j, true
}

// drain stops admission and wakes every sleeping worker so they can
// finish the remaining queued jobs and exit.
func (q *queue) drain() {
	q.mu.Lock()
	q.draining = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the number of queued jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// queuedCost returns the summed predicted cost of queued jobs in ns.
func (q *queue) queuedCost() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queuedNS
}

// jobHeap orders jobs by ascending rank, sequence-number tie-broken so
// equal-rank jobs stay FIFO and the order is deterministic.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old) - 1
	j := old[n]
	old[n] = nil
	*h = old[:n]
	return j
}

// Package fleet grows hfxd from a single process into a cluster: N
// instances, each a full server.Server (bounded cost-priced admission
// queue, worker pool, result store whose hot tier answers repeats)
// listening on its own loopback port, behind a router with one rule:
// cache affinity. A job goes to an instance already holding its
// canonical result key, else to the key's stable rendezvous home, else
// to the instance with the least predicted work outstanding, counted in
// the cost-model nanoseconds each instance's admission queue already
// holds — the paper's claim that HFX job cost is predictable from the
// screened pair list. The router itself never screens a job or computes
// its cost.
package fleet

import "hash/fnv"

// Policy names the routing rule of a Cluster. CacheAffinity, the zero
// value, is the only rule; New rejects any other value. The type stays
// only because bench/ names fleet.CacheAffinity, and goes when bench/
// is next edited (ROADMAP 1(d)).
type Policy int

// CacheAffinity routes a job to the instance already holding its
// canonical result key (a guaranteed free hit), else to the job's stable
// rendezvous-hash home so repeats warm one instance's caches and
// builders; a draining or overloaded home falls back to the instance
// with the least outstanding predicted work.
const CacheAffinity Policy = 0

// Load is one instance's routing-relevant state snapshot: the live
// signals the server exports (queue depth, queued and in-flight
// predicted cost, drain flag) plus whether its result store holds the
// job's canonical key.
type Load struct {
	Depth      int
	QueuedNS   float64
	InflightNS float64
	Draining   bool
	HoldsKey   bool
}

// outstanding is the predicted work an instance has committed to.
func (l Load) outstanding() float64 { return l.QueuedNS + l.InflightNS }

// decide picks the target instance for one submission attempt, or -1
// when no instance is eligible (every one draining or excluded). It is a
// pure function of its snapshot, so routing is deterministic — and
// unit-testable — for a given cluster state; excluded marks instances
// this failover sweep has already rejected.
func decide(loads []Load, key string, overloadDepth int, excluded func(int) bool) int {
	n := len(loads)
	eligible := func(i int) bool { return !loads[i].Draining && !excluded(i) }
	// A resident result key answers without queueing or builder work:
	// route there regardless of load.
	for i := 0; i < n; i++ {
		if eligible(i) && loads[i].HoldsKey {
			return i
		}
	}
	// Otherwise the key's stable home, so repeats of this key warm one
	// instance's result cache and builder instead of all of them.
	home := rendezvous(key, n, eligible)
	if home >= 0 && loads[home].Depth < overloadDepth {
		return home
	}
	// Overloaded (or no) home: pay the affinity loss, go to the least
	// outstanding predicted work, ties broken by index.
	best := -1
	for i := 0; i < n; i++ {
		if eligible(i) && (best < 0 || loads[i].outstanding() < loads[best].outstanding()) {
			best = i
		}
	}
	return best
}

// rendezvous returns the highest-random-weight home instance for a key
// among the eligible ones: every router maps the key to the same home
// without coordination, and removing an instance only remaps the keys
// it owned.
func rendezvous(key string, n int, eligible func(int) bool) int {
	best, bestScore := -1, uint64(0)
	for i := 0; i < n; i++ {
		if !eligible(i) {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{'#', byte(i), byte(i >> 8)})
		if s := h.Sum64(); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

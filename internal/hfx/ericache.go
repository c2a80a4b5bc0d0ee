package hfx

import (
	"sort"
	"sync/atomic"

	"hfxmd/internal/basis"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
)

// eriCache is the semi-direct ERI block cache: a memory-budgeted store of
// surviving quartet integral blocks, filled the first time each quartet is
// computed and replayed on later builds so the re-contraction against a new
// density skips ERI evaluation entirely.
//
// The cache is sharded by the construction-time static assignment: every
// task belongs to exactly one shard (the slot the balancer first gave it
// to), and a quartet's entry is only ever written by the executor running
// that task, which runs once per build wherever its unit lands. Builds are
// barrier-separated, so the hot path needs no locks and performs no
// allocation.
//
// Admission is decided once, at NewBuilder time, in descending priority
// order (Schwarz bound × predicted block cost): the quartets most likely to
// survive screening and most expensive to recompute are cached first, until
// the byte budget is exhausted. The budget charges the block payload, the
// per-entry metadata, and the fixed per-quartet slot index. The builder is
// per-geometry, so a geometry change means a new builder and hence a fresh
// cache; InvalidateCache covers in-place invalidation (e.g. basis rescale
// experiments) by dropping every resident block.
type eriCache struct {
	budget    int64
	usedBytes int64 // admission-time accounting: payload + metadata + indices
	admitted  int64 // quartets with a reserved slot

	// taskSlots[ti][ji-KetLo] is the shard-local slot of that quartet, or
	// -1 when it was not admitted. taskShard[ti] is the owning shard.
	taskSlots [][]int32
	taskShard []int32
	shards    []cacheShard

	filled    atomic.Int64 // blocks currently resident across all shards
	evictions atomic.Int64 // lifetime blocks dropped by InvalidateCache
}

// cacheShard is the slice of the cache holding the tasks of one
// construction-time slot. Shards are not owned by an executor: each entry
// belongs to one task, and only the executor running that task in a build
// touches it. offs/lens/filled are indexed by entry; slab holds the
// concatenated block payloads.
type cacheShard struct {
	slab   []float64
	offs   []int64
	lens   []int32
	filled []bool
}

// cacheEntryOverhead approximates the per-admitted-quartet metadata cost
// charged against the budget (offset, length, filled flag, slab headers).
const cacheEntryOverhead = 24

// cacheSlotIndexBytes is the fixed per-canonical-quartet cost of the slot
// index (one int32 each), paid up front whenever the cache is enabled.
const cacheSlotIndexBytes = 4

// eriBlockLen returns the number of integrals in the (ab|cd) shell block.
func eriBlockLen(set *basis.Set, a, b, c, d int) int {
	return set.Shells[a].NFuncs() * set.Shells[b].NFuncs() *
		set.Shells[c].NFuncs() * set.Shells[d].NFuncs()
}

type cacheCand struct {
	task int32
	koff int32 // quartet index within the task: ji - KetLo
	blen int32
	prio float64
}

// newERICache plans the admission and allocates the shard slabs. Returns
// nil when the budget cannot hold even the slot index plus one block.
func newERICache(set *basis.Set, pairs []screen.Pair, tasks []Task,
	asn *sched.Assignment, pr *pricer, budget int64) *eriCache {
	nq := 0
	for i := range tasks {
		nq += tasks[i].QuartetsInTask
	}
	if nq == 0 {
		return nil
	}
	base := int64(nq) * cacheSlotIndexBytes
	if base >= budget {
		return nil
	}

	// Rank every canonical quartet: the Schwarz product bounds how likely
	// the block is to survive screening (and how large its contribution
	// is), the cost model predicts how expensive it is to recompute.
	cands := make([]cacheCand, 0, nq)
	for ti := range tasks {
		t := &tasks[ti]
		bra := pairs[t.Bra]
		for ji := t.KetLo; ji < t.KetHi; ji++ {
			ket := pairs[ji]
			cands = append(cands, cacheCand{
				task: int32(ti),
				koff: int32(ji - t.KetLo),
				blen: int32(eriBlockLen(set, bra.A, bra.B, ket.A, ket.B)),
				prio: bra.Q * ket.Q * pr.quartet(t.Bra, ji),
			})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio > cands[j].prio
		}
		if cands[i].task != cands[j].task {
			return cands[i].task < cands[j].task
		}
		return cands[i].koff < cands[j].koff
	})

	c := &eriCache{budget: budget, usedBytes: base}
	c.taskShard = make([]int32, len(tasks))
	for w, list := range asn.Workers {
		for _, ti := range list {
			c.taskShard[ti] = int32(w)
		}
	}
	c.taskSlots = make([][]int32, len(tasks))
	backing := make([]int32, nq)
	for i := range backing {
		backing[i] = -1
	}
	for ti := range tasks {
		q := tasks[ti].QuartetsInTask
		c.taskSlots[ti] = backing[:q:q]
		backing = backing[q:]
	}

	c.shards = make([]cacheShard, asn.NWorkers())
	shardFloats := make([]int64, len(c.shards))
	for i := range cands {
		cd := &cands[i]
		cost := int64(cd.blen)*8 + cacheEntryOverhead
		if c.usedBytes+cost > budget {
			continue // greedy: a smaller lower-priority block may still fit
		}
		c.usedBytes += cost
		c.admitted++
		w := c.taskShard[cd.task]
		sh := &c.shards[w]
		c.taskSlots[cd.task][cd.koff] = int32(len(sh.offs))
		sh.offs = append(sh.offs, shardFloats[w])
		sh.lens = append(sh.lens, cd.blen)
		shardFloats[w] += int64(cd.blen)
	}
	if c.admitted == 0 {
		return nil
	}
	for w := range c.shards {
		sh := &c.shards[w]
		sh.slab = make([]float64, shardFloats[w])
		sh.filled = make([]bool, len(sh.offs))
	}
	return c
}

// slabBytes is the total payload capacity across all shards.
func (c *eriCache) slabBytes() int64 {
	var n int64
	for i := range c.shards {
		n += int64(len(c.shards[i].slab)) * 8
	}
	return n
}

// CacheStats reports the semi-direct ERI block cache state for one build.
type CacheStats struct {
	// Enabled is true when the builder runs semi-direct (a non-zero budget
	// that admitted at least one quartet).
	Enabled bool
	// BudgetBytes echoes Options.CacheBudgetBytes.
	BudgetBytes int64
	// UsedBytes is the admission-time accounting total: block payloads plus
	// per-entry metadata plus the per-quartet slot index.
	UsedBytes int64
	// AdmittedQuartets counts quartets with a reserved cache slot.
	AdmittedQuartets int64
	// ResidentBlocks counts slots currently holding a computed block.
	ResidentBlocks int64
	// Hits and Misses count quartets in this build that replayed a resident
	// block vs. had to evaluate ERIs (cold slot or not admitted).
	Hits   int64
	Misses int64
	// Evictions is the lifetime count of resident blocks dropped by
	// InvalidateCache.
	Evictions int64
}

// HitRatio returns Hits/(Hits+Misses), or 0 for an idle build.
func (s CacheStats) HitRatio() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}

// InvalidateCache drops every resident ERI block, forcing the next build
// to re-evaluate (and re-fill) all cached quartets. Admission decisions
// and slab memory are kept. Use it when the integrals behind the blocks
// change without a new builder. Must not be called concurrently with
// BuildJK.
func (b *Builder) InvalidateCache() {
	pl := b.pl
	if pl.cache == nil {
		return
	}
	var n int64
	for si := range pl.cache.shards {
		sh := &pl.cache.shards[si]
		for i := range sh.filled {
			if sh.filled[i] {
				sh.filled[i] = false
				n++
			}
		}
	}
	pl.cache.filled.Add(-n)
	pl.cache.evictions.Add(n)
	pl.reg.Counter("ericache.evictions").Add(n)
}

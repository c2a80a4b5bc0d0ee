package server

import (
	"encoding/json"

	"hfxmd/internal/store"
)

// Store key namespaces. One store directory holds three kinds of
// content-addressed entries, distinguished by prefix: finished job
// results, converged densities for prefix reuse, and spilled ERI cache
// images (whose "eri:" prefix is minted by hfx.Builder.SpillKey). A store
// written by an older server may also hold a "calib:model" entry; nothing
// reads it.
const (
	resultKeyPrefix  = "result:"
	densityKeyPrefix = "density:"
)

// resultCache adapts the tiered content-addressed store to the server's
// result cache: canonical job hash → JSON-encoded finished JobResult.
// The store's byte-budgeted hot tier replaces the old entry-count LRU
// (results vary ~100× in payload size, so an entry count left worst-case
// memory unbounded), and its disk tier is what lets canonical results
// survive restarts and be shared across fleet instances pointing at one
// store directory.
type resultCache struct {
	st *store.Store
}

// get returns the cached result for key, marking it hot. A result read
// from the disk tier decodes like a fresh one — the disk-warm hit that
// answers a repeated job after a restart with zero builder work.
func (c *resultCache) get(key string) (JobResult, bool) {
	b, ok := c.st.Get(resultKeyPrefix + key)
	if !ok {
		return JobResult{}, false
	}
	var res JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		return JobResult{}, false
	}
	return res, true
}

// put stores a finished result in both tiers.
func (c *resultCache) put(key string, res JobResult) {
	b, err := json.Marshal(res)
	if err != nil {
		return
	}
	c.st.Put(resultKeyPrefix+key, b)
}

// contains reports whether either tier holds the key without refreshing
// its hot-tier position: an affinity probe must not make an entry look
// hot.
func (c *resultCache) contains(key string) bool {
	return c.st.Contains(resultKeyPrefix + key)
}

// entries counts the addressable keys (all namespaces): the disk index
// when a disk tier exists, the hot tier otherwise.
func (c *resultCache) entries() int {
	st := c.st.Stats()
	if c.st.Dir() != "" {
		return st.DiskEntries
	}
	return st.HotEntries
}

// bytes is the hot-tier resident size — the cache.bytes gauge.
func (c *resultCache) bytes() int64 {
	return c.st.Stats().HotBytes
}

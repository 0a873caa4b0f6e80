package engine

import "sync"

// Engine-wide shared plan cache, the L2 behind every session's L1
// (plancache.go). Keys are the canonical, auto-parameterized statement
// texts produced by lexer.Normalize, so `WHERE id = 7` and
// `WHERE id = 9` share one entry. Each canonical text maps to a small
// list of planEntry variants, one per distinct knobs value; a variant
// also records the catalog version it was planned under and is dropped
// on sight when DDL has bumped it since.
//
// An entry's plan is an immutable template: it is never executed.
// Sessions adopt a template by deep-cloning its node tree
// (plan.CloneNode) into their own L1 cache, because the copy carries
// the session's own audit probes and operator instance. Many sessions
// may clone one template concurrently; nothing ever writes to it.
//
// The map is sharded by a hash of the canonical bytes so that adopting
// sessions contend on 1/sharedCacheShards of the lock traffic.

const (
	sharedCacheShards = 16
	// sharedShardCap bounds the canonical texts per shard. Eviction is
	// wholesale per shard, same policy as the session cache: a workload
	// cycling through thousands of distinct shapes is not repeat-heavy,
	// and wholesale reset costs nothing on the hit path.
	sharedShardCap = 256
)

type sharedShard struct {
	mu sync.RWMutex
	m  map[string][]*planEntry
}

type sharedPlanCache struct {
	shards [sharedCacheShards]sharedShard
}

// shardOf picks the shard for a canonical text (FNV-1a over the bytes).
func (c *sharedPlanCache) shardOf(canon []byte) *sharedShard {
	h := uint32(2166136261)
	for _, b := range canon {
		h = (h ^ uint32(b)) * 16777619
	}
	return &c.shards[h%sharedCacheShards]
}

// lookup returns the variant for canon under the given knobs, valid at
// version, or nil. The hot path allocates nothing: map access through
// string(canon) compiles to a lookup without materializing the key.
func (c *sharedPlanCache) lookup(canon []byte, k knobs, version int64) *planEntry {
	sh := c.shardOf(canon)
	sh.mu.RLock()
	variants := sh.m[string(canon)]
	sh.mu.RUnlock()
	for _, v := range variants {
		if !v.matches(k) {
			continue
		}
		if !v.bypass && v.version != version {
			return nil // stale; the store after re-planning replaces it
		}
		return v
	}
	return nil
}

// store publishes a variant for canon, replacing any variant with the
// same knobs (typically a stale-version predecessor). It returns the
// number of canonical texts evicted (0, or a whole shard's worth when
// the shard hit its cap) and the net entry-count delta.
func (c *sharedPlanCache) store(canon []byte, v *planEntry) (evicted, delta int) {
	sh := c.shardOf(canon)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[string][]*planEntry)
	}
	key := string(canon)
	variants, ok := sh.m[key]
	if !ok && len(sh.m) >= sharedShardCap {
		evicted = len(sh.m)
		delta -= evicted
		sh.m = make(map[string][]*planEntry)
	}
	for i, old := range variants {
		if old.bypass == v.bypass && old.matches(v.knobs) {
			// Copy on write: lookup scans the slice it fetched after
			// dropping the shard lock, so a published slice is never
			// modified in place.
			variants = append([]*planEntry(nil), variants...)
			variants[i] = v
			sh.m[key] = variants
			return evicted, delta
		}
	}
	if len(variants) == 0 {
		delta++
	}
	sh.m[key] = append(variants, v)
	return evicted, delta
}

// entries counts the canonical texts currently cached across shards.
func (c *sharedPlanCache) entries() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += int64(len(sh.m))
		sh.mu.RUnlock()
	}
	return n
}

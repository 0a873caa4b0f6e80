package engine

import (
	"sync"

	"auditdb/internal/core"
	"auditdb/internal/plan"
)

// Engine-wide shared plan cache. Keys are the canonical,
// auto-parameterized statement texts produced by lexer.Normalize, so
// `WHERE id = 7` and `WHERE id = 9` share one entry. Each canonical
// text maps to a small list of variants, one per distinct combination
// of the knobs that steer planning (placement heuristic, audit-all,
// worker budget, parallel threshold); a variant also records the
// catalog version it was planned under and is dropped on sight when
// DDL has bumped it since.
//
// An entry's plan is an immutable template: it is never executed.
// Sessions adopt a template by deep-cloning its node tree
// (plan.CloneNode) into their own L1 cache, because execution rebinds
// the audit operators' sinks in place. Many sessions may clone one
// template concurrently; nothing ever writes to it.
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

// sharedPlan is one planned variant of a canonical statement. root is
// the immutable template; bypass marks a canonical shape that must not
// be auto-parameterized (constant folding would change the plan shape
// against the original text), telling sessions to fall back to the
// ordinary raw-text path for every statement normalizing to it.
type sharedPlan struct {
	heuristic core.Heuristic
	auditAll  bool
	workers   int
	minRows   int
	version   int64

	bypass       bool
	root         plan.Node
	targets      []*core.AuditExpression
	conservative bool
	hasAudit     bool
	parallel     bool
	slots        int // parameter slots (auto + user) the plan binds
}

// matches reports whether the variant was planned under the given
// knobs. bypass markers are knob-independent: fold sensitivity is a
// property of the statement shape alone.
func (v *sharedPlan) matches(heur core.Heuristic, auditAll bool, workers, minRows int) bool {
	if v.bypass {
		return true
	}
	return v.heuristic == heur && v.auditAll == auditAll &&
		v.workers == workers && v.minRows == minRows
}

type sharedShard struct {
	mu sync.RWMutex
	m  map[string][]*sharedPlan
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
func (c *sharedPlanCache) lookup(canon []byte, heur core.Heuristic, auditAll bool, workers, minRows int, version int64) *sharedPlan {
	sh := c.shardOf(canon)
	sh.mu.RLock()
	variants := sh.m[string(canon)]
	sh.mu.RUnlock()
	for _, v := range variants {
		if !v.matches(heur, auditAll, workers, minRows) {
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
func (c *sharedPlanCache) store(canon []byte, v *sharedPlan) (evicted, delta int) {
	sh := c.shardOf(canon)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[string][]*sharedPlan)
	}
	key := string(canon)
	variants, ok := sh.m[key]
	if !ok && len(sh.m) >= sharedShardCap {
		evicted = len(sh.m)
		delta -= evicted
		sh.m = make(map[string][]*sharedPlan)
	}
	for i, old := range variants {
		if old.bypass == v.bypass && old.matches(v.heuristic, v.auditAll, v.workers, v.minRows) {
			// Copy on write: lookup scans the slice it fetched after
			// dropping the shard lock, so a published slice is never
			// modified in place.
			variants = append([]*sharedPlan(nil), variants...)
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

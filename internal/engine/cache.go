package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fraccascade/internal/catalog"
	"fraccascade/internal/obs"
	"fraccascade/internal/tree"
)

// entryCache is one shard's exact-LRU entry-point cache. Each cached slot
// records that every query key in the half-open interval (lo, hi] enters
// the cascade at position pos of the entry node's augmented catalog — hi is
// the catalog key at pos and lo its predecessor, so the intervals of one
// node are disjoint and a hit reproduces exactly what the Step-1
// cooperative binary search would compute. A hit therefore lets the search
// skip the top-of-skeleton entry rounds and pay a single verification step.
//
// Slots live in a fixed array of at most cap entries, threaded on an
// index-linked recency list (head = most recently used), so a touch, an
// insert and an eviction of the least-recently-used slot are O(1) list
// operations. Per entry node (the query-path prefix, path[0]) the slot
// indices are kept sorted by hi, and a lookup binary-searches them by key.
//
// Batches see the cache with snapshot-then-apply semantics. Lookups never
// touch the mutable state: they read an immutable cacheView, republished
// after every batch that changed the lookup index. A batch loads each
// shard's view once at its start, and every lookup and finger probe of its
// queries reads that view, recording what it would have done in a
// cacheEffect. After the batch the caller applies the effects in query
// index order under the mutex and publishes the next view. Fills
// therefore become visible from the next batch, answers, reports and
// counters do not depend on how the pool scheduled the queries, and
// concurrent batches never wait on each other's searches.
//
// Every effect carries the backend generation observed by its query; an
// effect under a newer generation purges the cache wholesale before it
// applies (the backend's static structure was replaced by dynamic.Flush,
// so every cached position is potentially stale), and lookups under a
// generation the cache does not hold miss. Correctness never rests on
// this: the search re-validates the hinted position against the live
// catalog in O(1) and falls back to the full entry search if it fails —
// the generation check exists so stale hits cost a purge, not a useless
// validation per query.
type entryCache struct {
	mu  sync.Mutex // guards everything below but view
	cap int
	gen uint64

	slots      []entrySlot // len == live slot count, never above cap
	head, tail int32       // recency list ends; -1 when empty
	perNode    map[tree.NodeID][]int32
	stamp      uint64 // last fill stamp handed out
	dirty      bool   // the lookup index changed since view was published

	view atomic.Pointer[cacheView]

	hits, misses, stale, evictions, fingerHits uint64

	// obs mirrors (nil-safe no-ops when no registry is attached): the
	// struct counters above stay the CacheStats ground truth; these export
	// the same increments under engine.shard.<i>.cache.* names.
	obsHits, obsMisses, obsStale, obsEvictions, obsFingerHits *obs.Counter
}

// entrySlot caches one resolved entry interval (lo, hi] → pos at node.
// stamp identifies this fill, so a deferred touch can tell whether the
// slot it hit still holds the same entry.
type entrySlot struct {
	lo, hi     catalog.Key
	pos        int
	node       tree.NodeID
	prev, next int32
	stamp      uint64
}

// cacheView is an immutable lookup snapshot of an entryCache: per entry
// node, the cached intervals sorted by hi, each with the slot and stamp a
// deferred touch needs.
type cacheView struct {
	gen     uint64
	perNode map[tree.NodeID][]viewEntry
}

// viewEntry is one cached interval (lo, hi] → pos as published.
type viewEntry struct {
	lo, hi catalog.Key
	pos    int
	slot   int32
	stamp  uint64
}

// cacheEffect is what one catalog query did to its shard's cache, recorded
// against the batch-start state and applied after the batch in query index
// order.
type cacheEffect struct {
	// looked marks a query that consulted the cache; it counts a hit or a
	// miss, and a generation change purges the cache before it applies.
	looked bool
	gen    uint64
	// hit touches slot if it still carries stamp.
	hit   bool
	slot  int32
	stamp uint64
	// finger counts a miss served by the finger gallop.
	finger bool
	// fill caches (lo, hi] → pos at node.
	fill   bool
	node   tree.NodeID
	lo, hi catalog.Key
	pos    int
}

// CacheStats is a point-in-time snapshot of one shard's cache counters.
type CacheStats struct {
	// Hits and Misses count lookups; Stale counts wholesale purges caused
	// by a generation change; Evictions counts LRU evictions.
	Hits, Misses, Stale, Evictions uint64
	// FingerHits counts exact misses that were instead served by galloping
	// from a nearby cached entry (distance-sensitive finger search). A
	// finger hit is also counted as a Miss — it is the miss path made
	// cheap, not a cache hit.
	FingerHits uint64
	// Size is the current number of cached entry intervals.
	Size int
}

// HitRate returns Hits/(Hits+Misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// newEntryCache builds shard's cache. With a non-nil registry the counters
// are mirrored as metrics and the live size exported as a func gauge.
func newEntryCache(capacity int, r *obs.Registry, shard int) *entryCache {
	c := &entryCache{cap: capacity, head: -1, tail: -1, perNode: make(map[tree.NodeID][]int32)}
	c.view.Store(&cacheView{})
	if r != nil {
		prefix := fmt.Sprintf("engine.shard.%d.cache.", shard)
		c.obsHits = r.Counter(prefix + "hits")
		c.obsMisses = r.Counter(prefix + "misses")
		c.obsStale = r.Counter(prefix + "stale_purges")
		c.obsEvictions = r.Counter(prefix + "evictions")
		c.obsFingerHits = r.Counter(prefix + "finger_hits")
		r.RegisterFunc(prefix+"size", func() int64 { return int64(c.statsSnapshot().Size) })
	}
	return c
}

// search returns the first index i of idx whose slot has hi ≥ y.
func (c *entryCache) search(idx []int32, y catalog.Key) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.slots[idx[mid]].hi >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// snapshot returns the current published view.
func (c *entryCache) snapshot() *cacheView { return c.view.Load() }

// publish makes the lookup index visible to later batches as a fresh
// immutable view, if anything changed it. Callers hold mu.
func (c *entryCache) publish() {
	if !c.dirty {
		return
	}
	v := &cacheView{gen: c.gen, perNode: make(map[tree.NodeID][]viewEntry, len(c.perNode))}
	entries := make([]viewEntry, 0, len(c.slots))
	for node, idx := range c.perNode {
		if len(idx) == 0 {
			continue
		}
		start := len(entries)
		for _, slot := range idx {
			s := &c.slots[slot]
			entries = append(entries, viewEntry{lo: s.lo, hi: s.hi, pos: s.pos, slot: slot, stamp: s.stamp})
		}
		v.perNode[node] = entries[start:len(entries):len(entries)]
	}
	c.view.Store(v)
	c.dirty = false
}

// searchEntries returns the first index i of es with es[i].hi ≥ y.
func searchEntries(es []viewEntry, y catalog.Key) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].hi >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// probe returns the cached interval holding y at node under gen.
func (v *cacheView) probe(node tree.NodeID, y catalog.Key, gen uint64) (viewEntry, bool) {
	if gen != v.gen {
		return viewEntry{}, false
	}
	es := v.perNode[node]
	i := searchEntries(es, y)
	if i < len(es) && es[i].lo < y {
		return es[i], true
	}
	return viewEntry{}, false
}

// nearest returns the cached position whose interval endpoint is
// key-closest to y at node, as a finger for the gallop entry after an
// exact lookup miss, along with the key distance d = |y − endpoint| (the
// quantity the finger gallop's O(log d) bound is sensitive to — the
// flight recorder retains it so live traffic can confirm the bound). A
// finger is not an answer, so its effect touches no LRU state.
func (v *cacheView) nearest(node tree.NodeID, y catalog.Key, gen uint64) (pos int, dist catalog.Key, ok bool) {
	if gen != v.gen {
		return 0, 0, false
	}
	es := v.perNode[node]
	if len(es) == 0 {
		return 0, 0, false
	}
	i := searchEntries(es, y)
	switch {
	case i == len(es):
		return es[i-1].pos, y - es[i-1].hi, true
	case i == 0:
		return es[0].pos, es[0].hi - y, true
	}
	if y-es[i-1].hi <= es[i].hi-y {
		return es[i-1].pos, y - es[i-1].hi, true
	}
	return es[i].pos, es[i].hi - y, true
}

// apply folds one deferred effect into the cache. Callers hold mu, apply a
// batch's effects in query index order, then publish.
func (c *entryCache) apply(ef *cacheEffect) {
	if !ef.looked {
		return
	}
	c.syncGen(ef.gen)
	if ef.hit {
		c.hits++
		c.obsHits.Inc()
		if int(ef.slot) < len(c.slots) && c.slots[ef.slot].stamp == ef.stamp {
			c.moveToFront(ef.slot)
		}
	} else {
		c.misses++
		c.obsMisses.Inc()
	}
	if ef.finger {
		c.fingerHits++
		c.obsFingerHits.Inc()
	}
	if ef.fill {
		c.insert(ef.node, ef.lo, ef.hi, ef.pos)
	}
}

// syncGen purges everything if the backend generation moved. Callers hold
// mu.
func (c *entryCache) syncGen(gen uint64) {
	if gen == c.gen {
		return
	}
	c.dirty = true
	if len(c.slots) > 0 {
		c.slots = c.slots[:0]
		c.head, c.tail = -1, -1
		for node, idx := range c.perNode {
			c.perNode[node] = idx[:0]
		}
	}
	c.stale++
	c.obsStale.Inc()
	c.gen = gen
}

// insert caches (lo, hi] → pos for node as the most recently used slot,
// evicting the least-recently-used slot of the shard when full. Callers
// hold mu.
func (c *entryCache) insert(node tree.NodeID, lo, hi catalog.Key, pos int) {
	c.stamp++
	c.dirty = true
	idx := c.perNode[node]
	i := c.search(idx, hi)
	if i < len(idx) && c.slots[idx[i]].hi == hi {
		s := &c.slots[idx[i]]
		s.lo, s.pos, s.stamp = lo, pos, c.stamp
		c.moveToFront(idx[i])
		return
	}
	var slot int32
	if len(c.slots) < c.cap {
		slot = int32(len(c.slots))
		c.slots = append(c.slots, entrySlot{})
	} else {
		slot = c.evictLRU()
		// The victim may have shared node's index list.
		idx = c.perNode[node]
		i = c.search(idx, hi)
	}
	c.slots[slot] = entrySlot{lo: lo, hi: hi, pos: pos, node: node, prev: -1, next: -1, stamp: c.stamp}
	c.pushFront(slot)
	idx = append(idx, 0)
	copy(idx[i+1:], idx[i:])
	idx[i] = slot
	c.perNode[node] = idx
}

// evictLRU unlinks the least-recently-used slot and returns it for reuse.
// Callers hold mu and guarantee the cache is non-empty.
func (c *entryCache) evictLRU() int32 {
	slot := c.tail
	s := &c.slots[slot]
	idx := c.perNode[s.node]
	i := c.search(idx, s.hi)
	c.perNode[s.node] = append(idx[:i], idx[i+1:]...)
	c.unlink(slot)
	c.evictions++
	c.obsEvictions.Inc()
	return slot
}

// unlink removes slot from the recency list.
func (c *entryCache) unlink(slot int32) {
	s := &c.slots[slot]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// pushFront links an unlinked slot as the most recently used.
func (c *entryCache) pushFront(slot int32) {
	s := &c.slots[slot]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = slot
	} else {
		c.tail = slot
	}
	c.head = slot
}

// moveToFront marks slot most recently used.
func (c *entryCache) moveToFront(slot int32) {
	if c.head == slot {
		return
	}
	c.unlink(slot)
	c.pushFront(slot)
}

// statsSnapshot returns the current counters.
func (c *entryCache) statsSnapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Stale: c.stale, Evictions: c.evictions, FingerHits: c.fingerHits, Size: len(c.slots)}
}

package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// FuzzBatchSearch drives the batched engine with fuzzer-chosen workload
// seed, batch size, processor budget, and query mix, replaying every answer
// against the sequential oracles — the fuzz companion of the
// oracle-differential harness, in the style of core.FuzzDegradedSearch.
func FuzzBatchSearch(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(256), uint8(0))
	f.Add(int64(2), uint8(1), uint16(1), uint8(77))
	f.Add(int64(3), uint8(64), uint16(4096), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, bRaw uint8, pRaw uint16, mix uint8) {
		fx := buildFixture(t, seed, 8, 200)
		procs := int(pRaw)%4096 + 1
		e := fx.newEngine(t, Config{Procs: procs, CacheSize: 16})
		rng := rand.New(rand.NewSource(seed ^ int64(mix)))
		b := int(bRaw)%48 + 1
		for round := 0; round < 3; round++ {
			qs := make([]Query, b)
			for i := range qs {
				qs[i] = fx.randomQuery(rng)
			}
			answers, rep, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatalf("seed=%d b=%d procs=%d: %v", seed, b, procs, err)
			}
			if rep.Errors != 0 {
				t.Fatalf("seed=%d b=%d procs=%d: %d query errors", seed, b, procs, rep.Errors)
			}
			for i := range answers {
				fx.checkAnswer(t, fmt.Sprintf("seed=%d b=%d procs=%d round=%d query=%d", seed, b, procs, round, i), qs[i], answers[i])
			}
			fx.churnDynamic(t, rng)
		}
	})
}

// FuzzEntryCache drives the entry cache the way batches do — lookups and
// finger probes against the view published at batch start, then the
// recorded effects (hits, misses, finger hits, fills) applied in query
// order and the next view published, with generation bumps purging
// between batches — and checks every answer, the counters, the full
// recency order and the published view against a model: a naive exact
// LRU that scans for its victim.
func FuzzEntryCache(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 5, 0, 3, 6, 0, 5})
	f.Add(int64(9), []byte{7, 7, 7, 5, 0, 0, 7, 5, 6, 7, 5})
	f.Add(int64(42), []byte{0, 2, 0, 2, 5, 3, 0, 1, 3, 5, 0, 4, 4, 4, 4, 4, 5})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		capacity := 1 + int(uint64(seed)%6)
		c := newEntryCache(capacity, nil, 0)
		m := &modelCache{cap: capacity}
		rng := rand.New(rand.NewSource(seed))
		gen := uint64(0)
		var effects []cacheEffect
		view := c.snapshot()
		flush := func() {
			c.mu.Lock()
			for i := range effects {
				c.apply(&effects[i])
				m.apply(&effects[i])
			}
			c.publish()
			c.mu.Unlock()
			effects = effects[:0]
			view = c.snapshot()
			checkAgainstModel(t, c, m)
		}
		for step, op := range ops {
			switch op % 8 {
			case 5:
				flush()
				continue
			case 6:
				flush()
				gen++
				continue
			}
			node := tree.NodeID(op & 1)
			y := catalog.Key(rng.Intn(120))
			ef := cacheEffect{looked: true, gen: gen}
			ent, hit := view.probe(node, y, gen)
			mpos, mid, mhit := m.probe(node, y, gen)
			if hit != mhit || ent.pos != mpos {
				t.Fatalf("step %d: probe(%d, %d) = (%d, %v), model (%d, %v)", step, node, y, ent.pos, hit, mpos, mhit)
			}
			if hit {
				ef.hit, ef.slot, ef.stamp = true, ent.slot, ent.stamp
				m.hitIDs = append(m.hitIDs, mid)
			} else {
				m.hitIDs = append(m.hitIDs, 0)
				if op%8 == 7 {
					pos, dist, ok := view.nearest(node, y, gen)
					mpos, mdist, mok := m.nearest(node, y, gen)
					if ok != mok || pos != mpos || dist != mdist {
						t.Fatalf("step %d: nearest(%d, %d) = (%d, %d, %v), model (%d, %d, %v)",
							step, node, y, pos, dist, ok, mpos, mdist, mok)
					}
					ef.finger = ok
				}
			}
			if !hit || op%8 == 4 {
				// A fill of the entry interval holding y in this
				// generation's catalog (a stale hit refreshes its slot).
				lo, hi, pos := modelInterval(node, gen, y)
				ef.fill, ef.node, ef.lo, ef.hi, ef.pos = true, node, lo, hi, pos
			}
			effects = append(effects, ef)
		}
		flush()
	})
}

// modelInterval is the entry interval (lo, hi] → pos holding y in a
// synthetic catalog of node under gen: keys every 7 from an offset that
// moves with the node and generation.
func modelInterval(node tree.NodeID, gen uint64, y catalog.Key) (lo, hi catalog.Key, pos int) {
	off := catalog.Key((int64(node)*3 + int64(gen)*5) % 7)
	i := (y - off + 6) / 7 // first key off+7i ≥ y
	if y <= off {
		i = 0
	}
	hi = off + 7*i
	lo = hi - 7
	if i == 0 {
		lo = catalog.MinusInf
	}
	return lo, hi, int(i)
}

// modelCache is the reference exact LRU: a flat list scanned for the
// least recently used entry. Entries carry a fill id so a deferred touch
// applies only to the fill it hit, as the stamp check does.
type modelCache struct {
	cap, nextID int
	gen, clock  uint64
	entries     []modelEntry
	stats       CacheStats
	hitIDs      []int // per pending effect: the fill id it hit, or 0
}

type modelEntry struct {
	node    tree.NodeID
	lo, hi  catalog.Key
	pos, id int
	lastUse uint64
}

func (m *modelCache) probe(node tree.NodeID, y catalog.Key, gen uint64) (pos, id int, ok bool) {
	if gen != m.gen {
		return 0, 0, false
	}
	for _, e := range m.entries {
		if e.node == node && e.lo < y && y <= e.hi {
			return e.pos, e.id, true
		}
	}
	return 0, 0, false
}

func (m *modelCache) nearest(node tree.NodeID, y catalog.Key, gen uint64) (pos int, dist catalog.Key, ok bool) {
	if gen != m.gen {
		return 0, 0, false
	}
	// Closest endpoint; ties go to the lower one.
	var best *modelEntry
	for i := range m.entries {
		e := &m.entries[i]
		if e.node != node {
			continue
		}
		d := e.hi - y
		if d < 0 {
			d = -d
		}
		if best == nil {
			best, dist = e, d
			continue
		}
		if d < dist || (d == dist && e.hi < best.hi) {
			best, dist = e, d
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return best.pos, dist, true
}

func (m *modelCache) apply(ef *cacheEffect) {
	hitID := m.hitIDs[0]
	m.hitIDs = m.hitIDs[1:]
	if ef.gen != m.gen {
		m.entries = nil
		m.stats.Stale++
		m.gen = ef.gen
	}
	m.clock++
	if ef.hit {
		m.stats.Hits++
		for i := range m.entries {
			if m.entries[i].id == hitID {
				m.entries[i].lastUse = m.clock
			}
		}
	} else {
		m.stats.Misses++
	}
	if ef.finger {
		m.stats.FingerHits++
	}
	if !ef.fill {
		return
	}
	m.nextID++
	for i := range m.entries {
		if e := &m.entries[i]; e.node == ef.node && e.hi == ef.hi {
			e.lo, e.pos, e.id, e.lastUse = ef.lo, ef.pos, m.nextID, m.clock
			return
		}
	}
	m.entries = append(m.entries, modelEntry{node: ef.node, lo: ef.lo, hi: ef.hi, pos: ef.pos, id: m.nextID, lastUse: m.clock})
	if len(m.entries) > m.cap {
		victim := 0
		for i := range m.entries {
			if m.entries[i].lastUse < m.entries[victim].lastUse {
				victim = i
			}
		}
		m.entries = append(m.entries[:victim], m.entries[victim+1:]...)
		m.stats.Evictions++
	}
}

// checkAgainstModel compares counters, the recency order, the per-node
// index invariants and the published view of the cache with the model.
func checkAgainstModel(t *testing.T, c *entryCache, m *modelCache) {
	t.Helper()
	want := m.stats
	want.Size = len(m.entries)
	if got := c.statsSnapshot(); got != want {
		t.Fatalf("stats %+v, model %+v", got, want)
	}
	order := append([]modelEntry(nil), m.entries...)
	sort.Slice(order, func(a, b int) bool { return order[a].lastUse > order[b].lastUse })
	i := 0
	for s := c.head; s >= 0; s = c.slots[s].next {
		if i >= len(order) {
			t.Fatalf("recency list longer than the model's %d entries", len(order))
		}
		sl, e := c.slots[s], order[i]
		if sl.node != e.node || sl.lo != e.lo || sl.hi != e.hi || sl.pos != e.pos {
			t.Fatalf("recency rank %d: slot %+v, model %+v", i, sl, e)
		}
		i++
	}
	if i != len(order) {
		t.Fatalf("recency list has %d slots, model %d", i, len(order))
	}
	indexed := 0
	for node, idx := range c.perNode {
		for k, s := range idx {
			if c.slots[s].node != node || (k > 0 && c.slots[idx[k-1]].hi >= c.slots[s].hi) {
				t.Fatalf("node %d index %v not sorted by hi or holds a foreign slot", node, idx)
			}
		}
		indexed += len(idx)
	}
	if indexed != len(c.slots) {
		t.Fatalf("per-node indices hold %d slots, cache %d", indexed, len(c.slots))
	}
	v := c.snapshot()
	if v.gen != m.gen {
		t.Fatalf("view generation %d, model %d", v.gen, m.gen)
	}
	published := 0
	for node, es := range v.perNode {
		idx := c.perNode[node]
		if len(es) != len(idx) {
			t.Fatalf("node %d: view holds %d entries, index %d", node, len(es), len(idx))
		}
		for k, ent := range es {
			s := c.slots[idx[k]]
			if ent.slot != idx[k] || ent.lo != s.lo || ent.hi != s.hi || ent.pos != s.pos || ent.stamp != s.stamp {
				t.Fatalf("node %d: view entry %+v, slot %+v", node, ent, s)
			}
		}
		published += len(es)
	}
	if published != len(c.slots) {
		t.Fatalf("view holds %d entries, cache %d", published, len(c.slots))
	}
}

// FuzzFlushInvalidation interleaves clustered catalog queries on a dynamic
// shard with fuzzer-driven mutations and Flush invalidations, asserting no
// stale entry-point cache hit can ever surface: every answer is compared
// with the dynamic.Find oracle, which always reflects committed + pending
// state.
func FuzzFlushInvalidation(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 3, 0})
	f.Add(int64(9), []byte{3, 3, 3, 0, 0})
	f.Add(int64(42), []byte{0, 2, 0, 2, 3, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		fx := buildFixture(t, seed, 8, 200)
		e := fx.newEngine(t, Config{Procs: 64, CacheSize: 8})
		rng := rand.New(rand.NewSource(seed))
		n := fx.trees[1].N()
		for step, op := range ops {
			switch op % 4 {
			case 0: // a small batch of clustered dynamic-shard queries
				qs := make([]Query, 4)
				for i := range qs {
					qs[i] = CatalogQuery(1, fx.clusteredKey(rng), randomPath(fx.trees[1], rng))
				}
				answers, _, err := e.ExecuteBatch(qs)
				if err != nil {
					t.Fatalf("seed=%d step=%d: %v", seed, step, err)
				}
				for i := range answers {
					fx.checkAnswer(t, fmt.Sprintf("seed=%d step=%d query=%d", seed, step, i), qs[i], answers[i])
				}
			case 1:
				_ = fx.dyn.Insert(tree.NodeID(rng.Intn(n)), catalog.Key(rng.Int63n(fx.bound)), int32(step))
			case 2:
				v := tree.NodeID(rng.Intn(n))
				if k, _ := fx.dyn.Find(v, catalog.Key(rng.Int63n(fx.bound))); k != catalog.PlusInf {
					_ = fx.dyn.Delete(v, k)
				}
			case 3:
				if err := fx.dyn.Flush(); err != nil {
					t.Fatalf("seed=%d step=%d flush: %v", seed, step, err)
				}
			}
		}
	})
}

// Package wl is the benchmark's workload definition, shared by the runner
// (cmd/bench) and the layer arms (cmd/layers): the data shape passed to
// coopserve, the seeded query streams of each workload, the constructors that
// reproduce coopserve's data in-process, and the brute-force oracles every
// answer is checked against.
//
// The data is fixed (DataSeed) and the query streams are pure functions of
// the run seed, so the runner and the layer arms replay exactly the same
// queries against exactly the same data.
package wl

import (
	"fmt"
	"math/rand"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/geom"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// Data shape. The served workloads pass the first three to coopserve as
// -shards, -leaves and -entries; Regions and Tiles are coopserve's defaults
// for the planar subdivision and the box complex, and Procs is the
// processor budget coopserve and the engine's callers use by default.
const (
	Shards  = 2
	Leaves  = 128
	Entries = 400000
	Regions = 64
	Tiles   = 60
	Procs   = 4096

	// KeySpace bounds catalog keys: coopserve draws them from [0, 8·entries).
	KeySpace = 8 * Entries
	// HotKeys is the per-shard hot-set size of serve-hot-b1.
	HotKeys = 32
	// HotRate is serve-hot-b1's mean Poisson arrival rate, requests/s.
	HotRate = 3000
	// PoolSize is the number of distinct 64-query requests (or batches) a
	// closed-loop workload cycles through.
	PoolSize = 1024

	// DataSeed generates the dataset (coopserve's -seed). It is fixed: the
	// run seed varies the queries, not the data. The generator draws every
	// node's catalog size at random, so the dataset's size — and with it
	// memory and build time — moves by several percent from one generator
	// seed to the next, a spread no change to the code would have caused.
	DataSeed = 1
)

// Workload describes one benchmark workload.
type Workload struct {
	Name string
	// Served workloads drive a coopserve daemon over HTTP; the others call
	// the engine in-process.
	Served bool
	// Restore boots the timed daemons from a snapshot an untimed boot
	// wrote; otherwise every timed boot builds from the seed.
	Restore bool
	// Open selects an open loop at HotRate; otherwise a closed loop.
	Open bool
	// Conns is the number of concurrent connections (served workloads; the
	// in-process workload has one caller).
	Conns int
}

// Workloads lists the benchmark's workloads by name.
var Workloads = []Workload{
	{Name: "serve-hot-b1", Served: true, Restore: true, Open: true, Conns: 2},
	{Name: "serve-uniform-b64", Served: true, Conns: 2},
	{Name: "engine-mixed-b64"},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Query is one query in coopserve's wire form. Catalog queries search the
// root-to-Leaf path of shard Shard's tree (Leaf is any tree node).
type Query struct {
	Kind  string `json:"kind"`
	Shard int    `json:"shard,omitempty"`
	Key   int64  `json:"key,omitempty"`
	Leaf  int64  `json:"leaf,omitempty"`
	X     int64  `json:"x,omitempty"`
	Y     int64  `json:"y,omitempty"`
	Z     int64  `json:"z,omitempty"`
}

// Query kinds, as coopserve names them.
const (
	KindCatalog = "catalog"
	KindPoint   = "point"
	KindSpatial = "spatial"
)

// rngFor derives an independent stream per purpose from the run seed.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9e3779b1 + purpose))
}

// Stream purposes.
const (
	purposeHotSet = iota + 1
	purposeHotSchedule
	purposeUniform
	purposeMixed
)

// nodes is the node count of every shard's tree.
func nodes() int64 { return 2*Leaves - 1 }

// HotSchedule returns serve-hot-b1's open-loop stream over d: the Poisson
// send offsets from the loop's start and one single-query request each.
// Keys come from a per-shard hot set; path endpoints are uniform over nodes.
func HotSchedule(seed int64, d time.Duration) ([]time.Duration, []Query) {
	hr := rngFor(seed, purposeHotSet)
	var hot [Shards][HotKeys]int64
	for s := range hot {
		for i := range hot[s] {
			hot[s][i] = hr.Int63n(KeySpace)
		}
	}
	r := rngFor(seed, purposeHotSchedule)
	var offs []time.Duration
	var qs []Query
	for t := 0.0; ; {
		t += r.ExpFloat64() / HotRate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return offs, qs
		}
		s := r.Intn(Shards)
		offs = append(offs, off)
		qs = append(qs, Query{Kind: KindCatalog, Shard: s, Key: hot[s][r.Intn(HotKeys)], Leaf: r.Int63n(nodes())})
	}
}

// uniformCatalog draws a catalog query with a uniform shard, key and node.
func uniformCatalog(r *rand.Rand) Query {
	return Query{Kind: KindCatalog, Shard: r.Intn(Shards), Key: r.Int63n(KeySpace), Leaf: r.Int63n(nodes())}
}

// UniformPool returns serve-uniform-b64's PoolSize requests of 64 catalog
// queries with uniform keys and path endpoints.
func UniformPool(seed int64) [][]Query {
	r := rngFor(seed, purposeUniform)
	pool := make([][]Query, PoolSize)
	for i := range pool {
		pool[i] = make([]Query, 64)
		for j := range pool[i] {
			pool[i][j] = uniformCatalog(r)
		}
	}
	return pool
}

// MixedPool returns engine-mixed-b64's PoolSize batches of 64 queries:
// 32 catalog queries drawn like serve-uniform-b64's, 16 point queries
// inside the subdivision and 16 spatial queries inside the complex, in a
// seeded order.
func MixedPool(seed int64, g *Geometry) [][]Query {
	r := rngFor(seed, purposeMixed)
	pool := make([][]Query, PoolSize)
	for i := range pool {
		b := make([]Query, 0, 64)
		for j := 0; j < 32; j++ {
			b = append(b, uniformCatalog(r))
		}
		for j := 0; j < 16; j++ {
			pt, _ := g.Sub.RandomInteriorPoint(r)
			b = append(b, Query{Kind: KindPoint, X: pt.X, Y: pt.Y})
		}
		for j := 0; j < 16; j++ {
			x, y, z, _ := g.Cx.RandomInteriorPoint(r)
			b = append(b, Query{Kind: KindSpatial, X: x, Y: y, Z: z})
		}
		r.Shuffle(len(b), func(a, c int) { b[a], b[c] = b[c], b[a] })
		pool[i] = b
	}
	return pool
}

// Catalogs is coopserve's catalog data for one seed: one balanced tree and
// one native catalog per node, per shard.
type Catalogs struct {
	Trees  []*tree.Tree
	Native [][]catalog.Catalog
}

// GenCatalogs reproduces coopserve's seeded shard generation, so the
// in-process workload serves the same data as a daemon started with
// -seed DataSeed and the shape flags.
func GenCatalogs() (*Catalogs, error) {
	rng := rand.New(rand.NewSource(DataSeed))
	c := &Catalogs{}
	for i := 0; i < Shards; i++ {
		t, err := tree.NewBalancedBinary(Leaves)
		if err != nil {
			return nil, err
		}
		c.Trees = append(c.Trees, t)
		c.Native = append(c.Native, randomCatalogs(t, Entries, rng))
	}
	return c, nil
}

// randomCatalogs mirrors coopserve's generator draw for draw: skewed
// per-node sizes, distinct keys from [0, 8·total).
func randomCatalogs(t *tree.Tree, total int, rng *rand.Rand) []catalog.Catalog {
	cats := make([]catalog.Catalog, t.N())
	for v := range cats {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = rng.Intn(4)
		case 1:
			size = rng.Intn(2*total/(t.N()+1) + 1)
		default:
			size = rng.Intn(4 * total / (t.N() + 1))
		}
		seen := map[catalog.Key]bool{}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := catalog.Key(rng.Intn(total * 8))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cats[v] = catalog.MustFromKeys(keys, nil)
	}
	return cats
}

// Build builds the cooperative-search structure of every shard.
func (c *Catalogs) Build() ([]*core.Structure, error) {
	out := make([]*core.Structure, len(c.Trees))
	for i, t := range c.Trees {
		st, err := core.Build(t, c.Native[i], core.Config{})
		if err != nil {
			return nil, fmt.Errorf("build shard %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// CatalogsOf recovers the native catalogs from built (or restored)
// structures, for the oracle and for rebuilds.
func CatalogsOf(sts []*core.Structure) *Catalogs {
	c := &Catalogs{}
	for _, st := range sts {
		t := st.Tree()
		cats := make([]catalog.Catalog, t.N())
		for v := range cats {
			cats[v] = st.Cascade().Native(tree.NodeID(v))
		}
		c.Trees = append(c.Trees, t)
		c.Native = append(c.Native, cats)
	}
	return c
}

// Geometry is coopserve's planar subdivision and box complex for a seed.
type Geometry struct {
	Sub *subdivision.Subdivision
	Cx  *spatial.Complex
}

// GenGeometry draws the geometry from the same stream coopserve uses.
func GenGeometry() (*Geometry, error) {
	r := rand.New(rand.NewSource(DataSeed ^ 0x67656f6d)) // "geom", as in coopserve
	sub, err := subdivision.Generate(Regions, 24, r)
	if err != nil {
		return nil, err
	}
	cx, err := spatial.Generate(Tiles, 4, r)
	if err != nil {
		return nil, err
	}
	return &Geometry{Sub: sub, Cx: cx}, nil
}

// Locators builds the point-location and spatial locators over g.
func (g *Geometry) Locators() (*pointloc.Locator, *spatial.Locator, error) {
	pl, err := pointloc.Build(g.Sub, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	sp, err := spatial.NewLocator(g.Cx)
	if err != nil {
		return nil, nil, err
	}
	return pl, sp, nil
}

// EngineQuery converts a wire query the way coopserve does.
func EngineQuery(q Query, trees []*tree.Tree) engine.Query {
	switch q.Kind {
	case KindCatalog:
		return engine.CatalogQuery(q.Shard, q.Key, trees[q.Shard].RootPath(tree.NodeID(q.Leaf)))
	case KindPoint:
		return engine.PointQuery(geom.Point{X: q.X, Y: q.Y})
	default:
		return engine.SpatialQuery(q.X, q.Y, q.Z)
	}
}

// EngineBatches converts a pool of wire requests to engine batches.
func EngineBatches(pool [][]Query, trees []*tree.Tree) [][]engine.Query {
	out := make([][]engine.Query, len(pool))
	for i, req := range pool {
		out[i] = make([]engine.Query, len(req))
		for j, q := range req {
			out[i][j] = EngineQuery(q, trees)
		}
	}
	return out
}

// StaticStructures returns the static shard structures of a snapshot store,
// the form coopserve saves by default.
func StaticStructures(store *snapshot.Store) ([]*core.Structure, error) {
	out := make([]*core.Structure, len(store.Shards))
	for i, sh := range store.Shards {
		if sh.Static == nil {
			return nil, fmt.Errorf("snapshot shard %d is not static", i)
		}
		out[i] = sh.Static
	}
	return out, nil
}

// Command layers runs the benchmark's layer arms for one workload: it
// replays the workload's seeded query stream against the same data (the
// daemon's snapshot for served workloads, the seeded build otherwise)
// through each layer on its own — the backend search, the frozen flat
// layout, the engine bare and with coopserve's telemetry, the geometric
// locators — and times set-up steps (build, snapshot save and load). Each
// call into a layer is recorded as a span; per-layer figures are computed
// from the spans. The runner (cmd/bench) runs this only for traced runs and
// reads the JSON object printed as the last line of standard output.
//
// Usage:
//
//	layers -workload serve-uniform-b64 -seed 1 -seconds 10 -batch 32 -procs 4096 -snapshot run/shards.snap -dir run -spans spans.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fraccascade/internal/cascade"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/spatial"
	"fraccascade/perfbench/internal/span"
	"fraccascade/perfbench/internal/wl"
)

// repeats is how many times each set-up step is timed (median reported)
// and how many fresh engines replay the stream.
const repeats = 3

// chunk is the number of raw-search calls one span covers: a span per
// sub-microsecond call would time the tracer more than the search.
const chunk = 64

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "the workload's measured seconds (sizes the open-loop stream and the arm budgets)")
	batch := flag.Int("batch", 64, "queries per engine batch in the measured program: each request is split into batches of this size")
	procs := flag.Int("procs", wl.Procs, "simulated processors the measured program's engine splits over each batch")
	snap := flag.String("snapshot", "", "served workloads: the daemon's snapshot")
	dir := flag.String("dir", ".", "scratch directory")
	spans := flag.String("spans", "", "write the arms' spans here as JSON lines")
	flag.Parse()
	if *batch < 1 || *procs < 1 {
		fmt.Fprintln(os.Stderr, "layers: need -batch ≥ 1 and -procs ≥ 1")
		os.Exit(2)
	}
	m, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *batch, *procs, *snap, *dir, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", b)
}

// arms records spans and resource counts for every layer call.
type arms struct {
	rec    *span.Recorder
	budget time.Duration
	allocs map[string]float64 // raw-search arm → allocations per call
}

func run(name string, seed int64, seconds time.Duration, batch, procs int, snapPath, dir, spansPath string) (map[string]float64, error) {
	w, err := wl.Lookup(name)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	a := &arms{rec: span.New(time.Now(), 1<<16), budget: seconds / 20, allocs: map[string]float64{}}

	// Data, and the set-up steps timed on it.
	tmp := filepath.Join(dir, "layers.snap")
	defer os.Remove(tmp)
	var sts []*core.Structure
	if w.Served {
		var store *snapshot.Store
		ms, err := a.median("snapshot.Load", func() (err error) { store, err = snapshot.Load(snapPath); return err })
		if err != nil {
			return nil, err
		}
		m["snapshot.load_ms"] = ms
		if sts, err = wl.StaticStructures(store); err != nil {
			return nil, err
		}
	} else {
		cats, err := wl.GenCatalogs()
		if err != nil {
			return nil, err
		}
		if sts, err = cats.Build(); err != nil {
			return nil, err
		}
		if err := snapshot.Save(tmp, storeOf(sts)); err != nil {
			return nil, err
		}
		ms, err := a.median("snapshot.Load", func() error { _, err := snapshot.Load(tmp); return err })
		if err != nil {
			return nil, err
		}
		m["snapshot.load_ms"] = ms
	}
	cats := wl.CatalogsOf(sts)
	if m["core.build_ms"], err = a.median("core.Build", func() error { _, err := cats.Build(); return err }); err != nil {
		return nil, err
	}
	if m["snapshot.save_ms"], err = a.median("snapshot.Save", func() error { return snapshot.Save(tmp, storeOf(sts)) }); err != nil {
		return nil, err
	}

	// The workload's stream, and the geometry queries of its seed.
	geo, err := wl.GenGeometry()
	if err != nil {
		return nil, err
	}
	pl, sp, err := geo.Locators()
	if err != nil {
		return nil, err
	}
	mixed := wl.MixedPool(seed, geo)
	var reqs [][]wl.Query
	switch {
	case w.Open:
		_, qs := wl.HotSchedule(seed, seconds)
		for _, q := range qs {
			reqs = append(reqs, []wl.Query{q})
		}
	case w.Served:
		reqs = wl.UniformPool(seed)
	default:
		reqs = mixed
	}
	// The engine batches the measured program ran (coopserve splits each
	// request into batches of its batch size), and their catalog queries,
	// each with the processor share its batch gave it. The catalog-only
	// batches of the overhead arm regroup those queries into batches of the
	// same size, so the engine gives each the same share as the raw arms.
	var batches [][]engine.Query
	for _, b := range wl.EngineBatches(reqs, cats.Trees) {
		for lo := 0; lo < len(b); lo += batch {
			batches = append(batches, b[lo:min(lo+batch, len(b))])
		}
	}
	var catQs []engine.Query
	var catPs []int
	for _, b := range batches {
		for _, q := range b {
			if q.Kind == engine.KindCatalog {
				catQs = append(catQs, q)
				catPs = append(catPs, max(1, procs/len(b)))
			}
		}
	}
	var catBatches [][]engine.Query
	for lo := 0; lo < len(catQs); lo += batch {
		catBatches = append(catBatches, catQs[lo:min(lo+batch, len(catQs))])
	}
	var pointQs, spatialQs []engine.Query
	for _, b := range wl.EngineBatches(mixed, cats.Trees) {
		for _, q := range b {
			switch q.Kind {
			case engine.KindPoint:
				pointQs = append(pointQs, q)
			case engine.KindSpatial:
				spatialQs = append(spatialQs, q)
			}
		}
	}

	// Raw searches, outermost backend call first.
	shards := make([]engine.CatalogBackend, len(sts))
	flats := make([]*engine.FlatShard, len(sts))
	for i, st := range sts {
		shards[i] = engine.StaticShard{St: st}
		if flats[i], err = engine.NewFlatShard(shards[i]); err != nil {
			return nil, err
		}
	}
	catArm := func(name string, fn func(q engine.Query, p int) error) error {
		return a.loop(name, len(catQs), func(i int) error { return fn(catQs[i], catPs[i]) })
	}
	if err := catArm("core.SearchExplicit", func(q engine.Query, p int) error {
		_, _, err := shards[q.Shard].SearchExplicit(q.Key, q.Path, p)
		return err
	}); err != nil {
		return nil, err
	}
	if err := catArm("backend.FlatShard", func(q engine.Query, p int) error {
		_, _, err := flats[q.Shard].SearchExplicit(q.Key, q.Path, p)
		return err
	}); err != nil {
		return nil, err
	}
	buf := make([]cascade.Result, 64)
	if err := catArm("flat.SearchExplicitInto", func(q engine.Query, p int) error {
		f, err := flats[q.Shard].Flat()
		if err != nil {
			return err
		}
		_, err = f.SearchExplicitInto(q.Key, q.Path, p, buf)
		return err
	}); err != nil {
		return nil, err
	}
	// The geometric arms replay engine-mixed-b64's queries at the share its
	// 64-query batches give them.
	geoP := wl.Procs / 64
	if err := a.loop("pointloc.LocateCoop", len(pointQs), func(i int) error {
		_, _, err := pl.LocateCoop(pointQs[i].Point, geoP)
		return err
	}); err != nil {
		return nil, err
	}
	if err := a.loop("spatial.LocateCoop", len(spatialQs), func(i int) error {
		q := spatialQs[i]
		_, _, err := sp.LocateCoop(q.SX, q.SY, q.SZ, geoP)
		return err
	}); err != nil {
		return nil, err
	}

	// The engine: fresh bare engines replaying the stream, a catalog-only
	// replay for the overhead ratio, and one with coopserve's telemetry.
	var reps []replay
	for r := 0; r < repeats; r++ {
		rp, err := a.replay("engine.ExecuteBatch", engine.Config{Procs: procs}, shards, pl, sp, batches)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
	}
	if _, err := a.replay("engine.ExecuteBatch.catalog", engine.Config{Procs: procs}, shards, pl, sp, catBatches); err != nil {
		return nil, err
	}
	tel := engine.Config{
		Procs:    procs,
		Obs:      obs.NewRegistry(),
		Tracer:   obs.NewRing(4096),
		Recorder: obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: 2048}),
	}
	telRep, err := a.replay("engine.ExecuteBatch.telemetry", tel, shards, pl, sp, batches)
	if err != nil {
		return nil, err
	}

	sum := span.Summarize(a.rec.Spans())
	ns := func(n string) float64 { return sum[n].NsPerQuery() }
	m["core.search_ns_per_query"] = ns("core.SearchExplicit")
	m["backend.flat_ns_per_query"] = ns("backend.FlatShard")
	m["flat.search_ns_per_query"] = ns("flat.SearchExplicitInto")
	m["flat.allocs_per_query"] = a.allocs["flat.SearchExplicitInto"]
	m["pointloc.locate_ns_per_query"] = ns("pointloc.LocateCoop")
	m["spatial.locate_ns_per_query"] = ns("spatial.LocateCoop")
	m["engine.ns_per_query"] = ns("engine.ExecuteBatch")
	var allocs, bytes float64
	for _, r := range reps {
		allocs += r.allocs / repeats
		bytes += r.bytes / repeats
	}
	m["engine.allocs_per_query"] = allocs
	m["engine.bytes_per_query"] = bytes
	m["engine.overhead_ratio"] = ns("engine.ExecuteBatch.catalog") / ns("flat.SearchExplicitInto")
	m["obs.telemetry_ns_per_query"] = ns("engine.ExecuteBatch.telemetry") - ns("engine.ExecuteBatch")
	m["obs.telemetry_allocs_per_query"] = telRep.allocs - allocs

	first := reps[0]
	m["engine.cache_hit_rate"] = first.hitRate()
	m["engine.cache_evictions_per_query"] = float64(first.evictions) / float64(max(1, first.hits+first.misses))
	m["engine.pool_steals_per_task"] = float64(first.steals) / float64(max(1, first.tasks))
	for label, metric := range wl.PhaseMetrics {
		m[metric] = float64(first.phases[label]) / float64(first.queries)
	}
	// Queries of one batch fill the shared entry cache concurrently, so
	// replays of the same stream on fresh engines may disagree. Reported
	// as measured.
	lo, hi := spread(reps, replay.hitRate)
	m["engine.cache_hit_rate_spread"] = hi - lo
	lo, hi = spread(reps, replay.stepsPerQuery)
	m["sim.steps_per_query_spread"] = hi - lo

	if spansPath != "" {
		if err := span.Write(spansPath, a.rec.Spans()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// storeOf wraps static structures as a snapshot store, as coopserve saves.
func storeOf(sts []*core.Structure) *snapshot.Store {
	st := &snapshot.Store{}
	for _, s := range sts {
		st.Shards = append(st.Shards, snapshot.Shard{Kind: snapshot.KindStatic, Static: s})
	}
	return st
}

// median times fn repeats times, each as a span, and returns the median in
// milliseconds.
func (a *arms) median(name string, fn func() error) (float64, error) {
	var ms []float64
	for r := 0; r < repeats; r++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		a.rec.Add(name, t0, t1, 0)
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	return wl.Median(ms), nil
}

// loop calls fn over indices 0..n-1 cyclically, in spans of chunk calls,
// until the arm budget is spent, and records allocations per call.
func (a *arms) loop(name string, n int, fn func(i int) error) error {
	if n == 0 {
		return fmt.Errorf("%s: empty stream", name)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ops := 0
	for start := time.Now(); ops == 0 || time.Since(start) < a.budget; {
		t0 := time.Now()
		for c := 0; c < chunk; c++ {
			if err := fn((ops + c) % n); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		t1 := time.Now()
		a.rec.Add(name, t0, t1, chunk)
		ops += chunk
	}
	runtime.ReadMemStats(&after)
	a.allocs[name] = float64(after.Mallocs-before.Mallocs) / float64(ops)
	return nil
}

// replay is one fresh engine's pass over the stream.
type replay struct {
	queries, steps          int64
	phases                  map[string]int64
	hits, misses, evictions uint64
	steals, tasks           int64
	allocs, bytes           float64 // per query
}

func (r replay) hitRate() float64 {
	return float64(r.hits) / float64(max(1, r.hits+r.misses))
}

func (r replay) stepsPerQuery() float64 { return float64(r.steps) / float64(max(1, r.queries)) }

func spread(rs []replay, f func(replay) float64) (lo, hi float64) {
	lo, hi = f(rs[0]), f(rs[0])
	for _, r := range rs[1:] {
		lo, hi = min(lo, f(r)), max(hi, f(r))
	}
	return lo, hi
}

// replay builds a fresh engine and runs every batch once, one span per
// ExecuteBatch call.
func (a *arms) replay(name string, cfg engine.Config, shards []engine.CatalogBackend, pl *pointloc.Locator, sp *spatial.Locator, batches [][]engine.Query) (replay, error) {
	eng, err := engine.New(cfg, shards, pl, sp)
	if err != nil {
		return replay{}, err
	}
	r := replay{phases: map[string]int64{}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		t0 := time.Now()
		answers, _, err := eng.ExecuteBatch(b)
		t1 := time.Now()
		if err != nil {
			return replay{}, fmt.Errorf("%s: %w", name, err)
		}
		a.rec.Add(name, t0, t1, len(b))
		for i := range answers {
			if answers[i].Err != nil {
				return replay{}, fmt.Errorf("%s: %w", name, answers[i].Err)
			}
			r.queries++
			r.steps += int64(answers[i].Steps)
			for k, v := range answers[i].PhaseSteps {
				r.phases[k] += int64(v)
			}
		}
	}
	runtime.ReadMemStats(&after)
	r.allocs = float64(after.Mallocs-before.Mallocs) / float64(r.queries)
	r.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(r.queries)
	met := eng.Metrics()
	for _, c := range met.Cache {
		r.hits += c.Hits
		r.misses += c.Misses
		r.evictions += c.Evictions
	}
	r.steals, r.tasks = met.Steals, met.Tasks
	return r, nil
}

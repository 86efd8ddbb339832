package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fraccascade/internal/engine"
	"fraccascade/perfbench/internal/span"
	"fraccascade/perfbench/internal/wl"
)

// runEmbedded drives engine.ExecuteBatch in-process: one caller, a closed
// loop over the seeded mixed batches, the library-default engine config.
// The engine is built setupRepeats times, timing each build, and every
// build serves an equal share of the measured load. Each batch is timed
// around the ExecuteBatch call alone; its answers are checked against the
// oracle between calls, outside that window.
func runEmbedded(ctx context.Context, sup *supervisor, o *options) (*outcome, error) {
	cats, err := wl.GenCatalogs()
	if err != nil {
		return nil, err
	}
	geo, err := wl.GenGeometry()
	if err != nil {
		return nil, err
	}
	pool := wl.MixedPool(o.seed, geo)
	run := &embeddedRun{pool: pool, batches: wl.EngineBatches(pool, cats.Trees)}
	if run.expect, err = (&wl.Oracle{Cat: cats, Geo: geo}).AnswerAll(pool); err != nil {
		return nil, err
	}

	share := o.seconds / setupRepeats
	plain, traced := newPassStats(false), newPassStats(false)
	var rec *span.Recorder
	if o.trace {
		rec = span.New(time.Now(), 1<<16)
	}
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		run.eng = nil
		runtime.GC()
		start := time.Now()
		if run.eng, err = buildEngine(cats, geo); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		warm := newPassStats(false)
		if err := run.pass(ctx, warmup, warm, nil); err != nil {
			return nil, err
		}
		if warm.wrong > 0 {
			return nil, fmt.Errorf("%d wrong answers during warm-up", warm.wrong)
		}
		if k == 0 {
			log.Printf("%s: load started", o.w.Name)
		}
		if err := run.pass(ctx, share, plain, nil); err != nil {
			return nil, err
		}
		if o.trace {
			if err := run.pass(ctx, share, traced, rec); err != nil {
				return nil, err
			}
		}
	}
	run.eng = nil
	runtime.GC()

	out := &outcome{metrics: map[string]float64{}, info: map[string]any{
		"setup_s_each": setups, "latency_samples": len(plain.lat),
	}}
	out.add(plain)
	if !o.trace {
		rss, err := vmHWM(os.Getpid())
		if err != nil {
			return nil, err
		}
		plain.e2e(out.metrics)
		out.metrics["setup_s"] = wl.Median(setups)
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}
	out.add(traced)
	spans := rec.Spans()
	if err := span.Write(filepath.Join(o.results, fmt.Sprintf("%s-seed%d-spans.jsonl", o.w.Name, o.seed)), spans); err != nil {
		return nil, err
	}
	m := out.metrics
	sum := span.Summarize(spans)
	out.info["spans"] = sum
	m["engine.batch_wall_us"] = sum["engine.ExecuteBatch"].NsPerSpan() / 1e3
	m["client.error_rate"] = ratio(float64(traced.failed+traced.wrong), float64(traced.attempted))
	// No daemon and no generator schedule on this workload.
	for _, n := range []string{"coopserve.overhead_us_per_req", "coopserve.resp_bytes_per_query", "coopserve.shed_rate", "client.lag_p99_ms"} {
		m[n] = 0
	}
	traceOverhead(m, plain, traced)
	if err := runLayers(ctx, sup, o, "", len(run.batches[0]), wl.Procs, m); err != nil {
		return nil, err
	}
	e2eU, e2eT := map[string]float64{}, map[string]float64{}
	plain.e2e(e2eU)
	traced.e2e(e2eT)
	out.info["untraced"], out.info["traced"] = e2eU, e2eT
	return out, nil
}

// buildEngine builds the structures and the engine from the catalogs and
// geometry: the set-up the in-process workload times.
func buildEngine(cats *wl.Catalogs, geo *wl.Geometry) (*engine.Engine, error) {
	sts, err := cats.Build()
	if err != nil {
		return nil, err
	}
	shards := make([]engine.CatalogBackend, len(sts))
	for i, st := range sts {
		shards[i] = engine.StaticShard{St: st}
	}
	pl, sp, err := geo.Locators()
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{Procs: wl.Procs}, shards, pl, sp)
}

// embeddedRun is the in-process workload's engine and prepared batches.
type embeddedRun struct {
	eng     *engine.Engine
	pool    [][]wl.Query
	batches [][]engine.Query
	expect  [][]wl.Expect
	next    int // the next batch, cycling the pool
}

// pass runs batches back to back until d has been spent inside
// ExecuteBatch, accumulating into p. With rec non-nil each call is traced.
func (r *embeddedRun) pass(ctx context.Context, d time.Duration, p *passStats, rec *span.Recorder) error {
	var busy time.Duration
	start := time.Now()
	for ; busy < d; r.next++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := r.next % len(r.batches)
		t0 := time.Now()
		answers, _, err := r.eng.ExecuteBatch(r.batches[k])
		t1 := time.Now()
		if err != nil {
			return err
		}
		busy += t1.Sub(t0)
		if rec != nil {
			rec.Add("engine.ExecuteBatch", t0, t1, len(answers))
		}
		p.lat = append(p.lat, timed{p.wall.Nanoseconds() + t0.Sub(start).Nanoseconds(), float64(t1.Sub(t0).Nanoseconds()) / 1e6})
		r.check(k, answers, p)
	}
	p.elapsed += busy
	p.wall += time.Since(start)
	return nil
}

// check scores one batch's answers against the oracle.
func (r *embeddedRun) check(k int, answers []engine.Answer, p *passStats) {
	p.attempted += int64(len(r.batches[k]))
	if len(answers) != len(r.batches[k]) {
		p.wrong += int64(len(r.batches[k]))
		return
	}
	for j := range answers {
		a, want := &answers[j], r.expect[k][j]
		if a.Err != nil {
			p.failed++
			continue
		}
		ok := false
		switch r.pool[k][j].Kind {
		case wl.KindCatalog:
			ok = len(a.Results) == len(want.Results)
			for n := 0; ok && n < len(a.Results); n++ {
				got := a.Results[n]
				ok = wl.Result{Node: int64(got.Node), Key: got.Key, Payload: int64(got.Payload)} == want.Results[n]
			}
		case wl.KindPoint:
			ok = a.Region == want.Region
		case wl.KindSpatial:
			ok = a.Cell == want.Cell
		}
		if !ok {
			p.wrong++
			continue
		}
		p.correct++
		p.steps += int64(a.Steps)
	}
}

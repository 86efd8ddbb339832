package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fraccascade/internal/snapshot"
	"fraccascade/perfbench/internal/span"
	"fraccascade/perfbench/internal/wl"
)

// daemon is a running coopserve.
type daemon struct {
	*child
	addr string
}

// servedInput is a served workload's prepared load: every request body is
// JSON-encoded before any clock starts.
type servedInput struct {
	w        wl.Workload
	reqs     [][]wl.Query
	requests [][]byte        // each request, HTTP framing included
	offs     []time.Duration // open loop: send offsets from the loop's start
	expect   [][]wl.Expect   // oracle answers, one per request
	// expectJSON holds each expected results array encoded as coopserve
	// encodes it.
	expectJSON [][][]byte
	snapSum    [sha256.Size]byte // of the snapshot expect was computed from
	next       atomic.Int64      // closed loop: the next request, cycling the pool
}

// runServed boots coopserve setupRepeats times, timing each boot to its
// first ready, and drives every boot with an equal share of the measured
// load, so one daemon's luck with memory layout or GC timing moves one
// share, not the run. Every answer is checked against the daemon's own
// snapshot.
func runServed(ctx context.Context, sup *supervisor, o *options) (*outcome, error) {
	in, err := prepareServed(o)
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(o.workdir, "shards.snap")
	args := []string{
		"-seed", strconv.Itoa(wl.DataSeed), "-snapshot", snap,
		"-shards", strconv.Itoa(wl.Shards), "-leaves", strconv.Itoa(wl.Leaves), "-entries", strconv.Itoa(wl.Entries),
	}
	if o.w.Restore {
		// The untimed boot builds and writes the snapshot the timed boots
		// restore from.
		d, _, err := boot(ctx, sup, o, args, "seed")
		if err != nil {
			return nil, err
		}
		sup.stop(d.child)
	}
	share := o.seconds / setupRepeats
	plain, traced := newPassStats(false), newPassStats(true)
	counters := map[string]float64{}
	var recs []*span.Recorder
	// Each timed boot's VmHWM is read after its load; peak_rss_mb is the
	// median over the boots.
	var setups, peaks []float64
	for k := 0; k < setupRepeats; k++ {
		if !o.w.Restore {
			for _, p := range []string{snap, snap + ".flat"} {
				if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
					return nil, err
				}
			}
		}
		d, took, err := boot(ctx, sup, o, args, strconv.Itoa(k))
		if err != nil {
			return nil, err
		}
		log.Printf("%s: boot %d ready in %v", o.w.Name, k, took)
		setups = append(setups, took.Seconds())
		err = func() error {
			defer sup.stop(d.child)
			if err := in.answer(snap); err != nil {
				return err
			}
			warm := newPassStats(false)
			if err := in.pass(ctx, d.addr, 0, warmup, warm, nil); err != nil {
				return err
			}
			if warm.wrong > 0 {
				return fmt.Errorf("%d wrong answers during warm-up", warm.wrong)
			}
			if k == 0 {
				log.Printf("%s: load started", o.w.Name)
			}
			from := time.Duration(k) * share
			if err := in.pass(ctx, d.addr, from, share, plain, nil); err != nil {
				return err
			}
			if o.trace {
				// The traced share covers the same stretch of the open
				// loop's schedule; a closed loop continues through its pool.
				before, err := scrape(ctx, d.addr)
				if err != nil {
					return err
				}
				if err := in.pass(ctx, d.addr, from, share, traced, &recs); err != nil {
					return err
				}
				after, err := scrape(ctx, d.addr)
				if err != nil {
					return err
				}
				for name, v := range after {
					counters[name] += v - before[name]
				}
			}
			rss, err := vmHWM(d.pid)
			peaks = append(peaks, rss)
			return err
		}()
		if err != nil {
			return nil, err
		}
	}

	out := &outcome{metrics: map[string]float64{}, info: map[string]any{
		"setup_s_each": setups, "peak_rss_mb_each": peaks, "latency_samples": len(plain.lat),
		"check_s": (plain.checking + traced.checking).Seconds(),
	}}
	out.add(plain)
	if !o.trace {
		plain.e2e(out.metrics)
		out.metrics["setup_s"] = wl.Median(setups)
		out.metrics["peak_rss_mb"] = wl.Median(peaks)
		return out, nil
	}
	out.add(traced)
	spans := span.Merge(recs...)
	if err := span.Write(filepath.Join(o.results, fmt.Sprintf("%s-seed%d-spans.jsonl", o.w.Name, o.seed)), spans); err != nil {
		return nil, err
	}
	sum := span.Summarize(spans)
	out.info["spans"] = sum
	tracedLayers(out.metrics, plain, traced, sum, counters)
	if traced.batch == 0 {
		return nil, fmt.Errorf("the traced pass saw no engine batch in coopserve's responses")
	}
	out.info["daemon_batch"], out.info["daemon_procs"] = traced.batch, traced.procs
	if err := runLayers(ctx, sup, o, snap, traced.batch, traced.procs, out.metrics); err != nil {
		return nil, err
	}
	e2eU, e2eT := map[string]float64{}, map[string]float64{}
	plain.e2e(e2eU)
	traced.e2e(e2eT)
	out.info["untraced"], out.info["traced"] = e2eU, e2eT
	return out, nil
}

// answer computes the oracle's answer to every request from the serving
// daemon's snapshot, before the clock starts, and drops the structures. A
// boot whose snapshot has the same bytes as the one already answered from
// keeps those answers.
func (in *servedInput) answer(snap string) error {
	b, err := os.ReadFile(snap)
	if err != nil {
		return fmt.Errorf("read the daemon's snapshot: %w", err)
	}
	sum := sha256.Sum256(b)
	if in.expect != nil && sum == in.snapSum {
		return nil
	}
	in.snapSum = sum
	store, err := snapshot.Decode(b)
	b = nil
	if err != nil {
		return fmt.Errorf("decode the daemon's snapshot: %w", err)
	}
	sts, err := wl.StaticStructures(store)
	if err != nil {
		return err
	}
	oracle := &wl.Oracle{Cat: wl.CatalogsOf(sts)}
	if in.expect, err = oracle.AnswerAll(in.reqs); err != nil {
		return err
	}
	in.expectJSON = make([][][]byte, len(in.expect))
	for i, req := range in.expect {
		in.expectJSON[i] = make([][]byte, len(req))
		for j, e := range req {
			if in.expectJSON[i][j], err = json.Marshal(e.Results); err != nil {
				return err
			}
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// tracedLayers derives the served workloads' per-layer metrics from the
// traced pass, its spans, and the daemon's /metrics counters over it.
func tracedLayers(m map[string]float64, plain, traced *passStats, sum map[string]span.Layer, c map[string]float64) {
	post := sum["coopserve.post"]
	reqs := float64(post.Count)
	m["coopserve.overhead_us_per_req"] = ratio(float64(post.Total)-c["engine_batch_wall_ns_sum"], reqs) / 1e3
	m["coopserve.resp_bytes_per_query"] = ratio(float64(traced.respBytes), float64(traced.attempted))
	m["coopserve.shed_rate"] = ratio(c["serve_shed_total"], reqs)
	m["engine.batch_wall_us"] = ratio(c["engine_batch_wall_ns_sum"], c["engine_batch_wall_ns_count"]) / 1e3
	hits, misses := c["cache_hits"], c["cache_misses"]
	m["engine.cache_hit_rate"] = ratio(hits, hits+misses)
	m["engine.cache_evictions_per_query"] = ratio(c["cache_evictions"], hits+misses)
	m["engine.pool_steals_per_task"] = ratio(c["engine_pool_steals"], c["engine_pool_tasks"])
	for label, name := range wl.PhaseMetrics {
		m[name] = ratio(float64(traced.phases[label]), float64(traced.correct))
	}
	m["client.lag_p99_ms"] = wl.Quantile(traced.lag, 0.99)
	m["client.error_rate"] = ratio(float64(traced.failed+traced.wrong), float64(traced.attempted))
	traceOverhead(m, plain, traced)
}

// traceOverhead reports what the benchmark's own tracing cost: the traced
// pass's latencies minus the untraced pass's, and the throughput it lost.
// It also reports the untraced pass's p99 latency, which is a per-layer
// figure rather than an end-to-end one because on a shared host it tracks
// the host's stalls more than the code (README.md, Measurement notes).
func traceOverhead(m map[string]float64, plain, traced *passStats) {
	u, t := map[string]float64{}, map[string]float64{}
	plain.e2e(u)
	traced.e2e(t)
	m["client.latency_p99_ms"] = u["latency_p99_ms"]
	m["trace.overhead_latency_p50_ms"] = t["latency_p50_ms"] - u["latency_p50_ms"]
	m["trace.overhead_latency_p99_ms"] = t["latency_p99_ms"] - u["latency_p99_ms"]
	m["trace.overhead_queries_per_s"] = u["queries_per_s"] - t["queries_per_s"]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// prepareServed generates and encodes the workload's requests.
func prepareServed(o *options) (*servedInput, error) {
	in := &servedInput{w: o.w}
	if o.w.Open {
		offs, qs := wl.HotSchedule(o.seed, o.seconds)
		in.offs = offs
		for _, q := range qs {
			in.reqs = append(in.reqs, []wl.Query{q})
		}
	} else {
		in.reqs = wl.UniformPool(o.seed)
	}
	for _, req := range in.reqs {
		b, err := json.Marshal(map[string][]wl.Query{"queries": req})
		if err != nil {
			return nil, err
		}
		in.requests = append(in.requests, encodeRequest(b))
	}
	return in, nil
}

// boot starts coopserve on a free loopback port and waits for its first 200
// on /readyz, returning the time from exec to ready. A lost race for the
// port is retried on another.
func boot(ctx context.Context, sup *supervisor, o *options, args []string, tag string) (*daemon, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		logPath := filepath.Join(o.workdir, fmt.Sprintf("coopserve-%s-%d.log", tag, attempt))
		lf, err := os.Create(logPath)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		c, err := sup.start("coopserve", filepath.Join(o.bin, "coopserve"), append(args, "-addr", addr), lf, lf)
		lf.Close()
		if err != nil {
			return nil, 0, err
		}
		d := &daemon{child: c, addr: addr}
		err = waitReady(ctx, d)
		took := time.Since(start)
		if err == nil {
			return d, took, nil
		}
		sup.stop(c)
		b, _ := os.ReadFile(logPath)
		if attempt < 4 && bytes.Contains(b, []byte("address already in use")) {
			continue
		}
		return nil, 0, fmt.Errorf("coopserve did not become ready: %w\n%s", err, b)
	}
}

// freePort picks a loopback port the kernel reports free.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls /readyz every millisecond until it answers 200.
func waitReady(ctx context.Context, d *daemon) error {
	cl := newClient()
	defer cl.CloseIdleConnections()
	url := "http://" + d.addr + "/readyz"
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.exited() {
			return fmt.Errorf("coopserve exited: %v", d.err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := cl.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
}

// newClient returns the client for the daemon's control endpoints
// (/readyz, /metrics): one keep-alive connection, never proxied.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// sample is one request as the client saw it; times are nanoseconds from
// the pass's start.
type sample struct {
	idx             int32 // request index into servedInput.reqs
	code            int32 // HTTP status; 0 after a transport error
	due, start, end int64
	body            []byte
}

// passStats accumulates measured load, after its answers were checked.
type passStats struct {
	attempted, correct, failed, wrong int64 // queries
	lat                               []timed
	lag                               []float64     // ms, open loop only
	elapsed                           time.Duration // the time queries_per_s divides by
	wall                              time.Duration // the pass's length on the clock
	steps                             int64
	phases                            map[string]int64
	respBytes                         int64
	// batch and procs are the daemon's engine batch geometry, from a
	// traced pass's responses: its largest batch and the processor budget
	// it splits (batch × per-query share).
	batch, procs int
	checking     time.Duration // spent checking answers, outside the timed window
}

// newPassStats returns an accumulator; withPhases also sums the answers'
// per-phase steps.
func newPassStats(withPhases bool) *passStats {
	p := &passStats{}
	if withPhases {
		p.phases = map[string]int64{}
	}
	return p
}

// timed is one latency, in ms, of a request or batch sent at nanosecond
// offset at into its pass.
type timed struct {
	at int64
	ms float64
}

// latencyWindow is the length of the consecutive windows a pass's
// latencies are split into. Each percentile is taken per window and the
// median over the windows reported, so a stall of the shared host moves a
// few windows, not the figure. Half a second holds at least a thousand
// requests or batches on every workload, so a window's p99 has ten
// samples beyond it.
const latencyWindow = 500 * time.Millisecond

// latency returns the median over the pass's windows of each window's
// q-quantile latency.
func (p *passStats) latency(q float64) float64 {
	per := make([][]float64, p.wall/latencyWindow+1)
	for _, t := range p.lat {
		w := min(len(per)-1, int(time.Duration(t.at)/latencyWindow))
		per[w] = append(per[w], t.ms)
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, wl.Quantile(xs, q))
		}
	}
	return wl.Median(qs)
}

// e2e writes the pass's end-to-end figures.
func (p *passStats) e2e(m map[string]float64) {
	m["queries_per_s"] = ratio(float64(p.correct), p.elapsed.Seconds())
	m["latency_p50_ms"] = p.latency(0.50)
	m["latency_p99_ms"] = p.latency(0.99)
	m["success_rate"] = ratio(float64(p.correct), float64(p.attempted))
	m["sim_steps_per_query"] = ratio(float64(p.steps), float64(p.correct))
}

// noteBatch records an engine batch of b queries that split procs.
func (p *passStats) noteBatch(b, procs int) {
	if b > p.batch {
		p.batch, p.procs = b, procs
	}
}

// merge adds q's checked answers to p.
func (p *passStats) merge(q *passStats) {
	p.noteBatch(q.batch, q.procs)
	p.attempted += q.attempted
	p.correct += q.correct
	p.failed += q.failed
	p.wrong += q.wrong
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.steps += q.steps
	p.respBytes += q.respBytes
	for k, v := range q.phases {
		p.phases[k] += v
	}
}

// add accumulates a pass's counts into the run's.
func (out *outcome) add(p *passStats) {
	out.attempted += p.attempted
	out.succeeded += p.correct
	out.failed += p.failed + p.wrong
	out.wrong += p.wrong
}

// heldBudget bounds the response bytes a closed loop holds for checking.
// When it is reached the load pauses, the held answers are checked and
// released, and the load resumes; the pauses are outside the timed window.
const heldBudget = 64 << 20

// pass drives the daemon for d of load, accumulating into p, and checks
// every answer outside the timed window. An open loop sends the schedule's
// requests due in [from, from+d), each at its offset on whichever of the
// workload's connections is free, and times it from that due time; a
// closed loop sends back to back on each connection, continuing through
// the request pool, in segments bounded by heldBudget. With rec non-nil
// every request is traced.
func (in *servedInput) pass(ctx context.Context, addr string, from, d time.Duration, p *passStats, rec *[]*span.Recorder) error {
	epoch := time.Now()
	recs := make([]*span.Recorder, in.w.Conns)
	if rec != nil {
		for c := range recs {
			recs[c] = span.New(epoch, 1<<14)
		}
		*rec = append(*rec, recs...)
	}
	for done := time.Duration(0); done < d; {
		per, elapsed := in.segment(ctx, addr, from, d-done, recs)
		if err := ctx.Err(); err != nil {
			return err
		}
		// The daemon is idle while the answers are checked, so every
		// connection's share is checked on its own goroutine.
		t := time.Now()
		parts := make([]*passStats, len(per))
		var wg sync.WaitGroup
		for c, ss := range per {
			parts[c] = newPassStats(p.phases != nil)
			parts[c].wall = p.wall
			wg.Add(1)
			go func(q *passStats, ss []sample) {
				defer wg.Done()
				for i := range ss {
					in.check(&ss[i], q, d)
				}
			}(parts[c], ss)
		}
		wg.Wait()
		for _, q := range parts {
			p.merge(q)
		}
		p.checking += time.Since(t)
		p.wall += elapsed
		p.elapsed += elapsed
		done += elapsed
		if in.w.Open {
			break
		}
	}
	return nil
}

// segment runs the load until limit passes (open loop: until the schedule
// within limit is sent) or the held responses reach heldBudget. Sample
// times are offsets from the segment's start; check rebases them.
func (in *servedInput) segment(ctx context.Context, addr string, from, limit time.Duration, recs []*span.Recorder) ([][]sample, time.Duration) {
	per := make([][]sample, in.w.Conns)
	var held atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	// An open loop's requests come from a dispatcher that sleeps until each
	// is due. Only the dispatcher sleeps in a system call, so the
	// connections' goroutines always find a free processor when a response
	// arrives.
	var dueIdx chan int
	if in.w.Open {
		lo := sort.Search(len(in.offs), func(i int) bool { return in.offs[i] >= from })
		hi := sort.Search(len(in.offs), func(i int) bool { return in.offs[i] >= from+limit })
		dueIdx = make(chan int, hi-lo) // one slot per send: the dispatcher never waits on a busy connection
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(dueIdx)
			for i := lo; i < hi && ctx.Err() == nil; i++ {
				sleepUntil(start.Add(in.offs[i] - from))
				dueIdx <- i
			}
		}()
	}
	for c := 0; c < in.w.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc := &loadConn{addr: addr}
			defer lc.close()
			var buf bytes.Buffer
			var ar arena
			for ctx.Err() == nil {
				var i int
				var due time.Duration
				if in.w.Open {
					var ok bool
					if i, ok = <-dueIdx; !ok {
						return
					}
					due = in.offs[i] - from
				} else if time.Since(start) >= limit || held.Load() >= heldBudget {
					return
				} else {
					i = int(in.next.Add(1) - 1)
				}
				idx := i % len(in.requests)
				t0 := time.Now()
				code := lc.post(in.requests[idx], &buf)
				t1 := time.Now()
				held.Add(int64(buf.Len()))
				s := sample{idx: int32(idx), code: int32(code), start: t0.Sub(start).Nanoseconds(), end: t1.Sub(start).Nanoseconds(), body: ar.copy(buf.Bytes())}
				s.due = s.start
				if in.w.Open {
					s.due = due.Nanoseconds()
				}
				per[c] = append(per[c], s)
				if r := recs[c]; r != nil {
					r.Add("coopserve.post", t0, t1, len(in.reqs[idx]))
				}
			}
		}(c)
	}
	wg.Wait()
	return per, time.Since(start)
}

// sleepUntil blocks the calling thread until t. The runtime timer wakes
// up to a millisecond late on some kernels; nanosleep stays within tens of
// microseconds, which keeps the open loop's generator lag small.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// loadConn is one keep-alive HTTP/1.1 connection that writes pre-encoded
// requests and parses responses in the calling goroutine, so the client
// adds no goroutine hand-offs and little CPU to what it measures. It
// redials after any error.
type loadConn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
}

// requestTimeout bounds one round trip; coopserve's own default deadline is
// 10 s.
const requestTimeout = 15 * time.Second

// post sends one encoded request and reads the whole response body into
// buf, returning the status (0 on a transport error).
func (lc *loadConn) post(req []byte, buf *bytes.Buffer) int {
	buf.Reset()
	if lc.c == nil {
		c, err := net.DialTimeout("tcp", lc.addr, requestTimeout)
		if err != nil {
			return 0
		}
		lc.c, lc.r = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := lc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		lc.close()
		return 0
	}
	if _, err := lc.c.Write(req); err != nil {
		lc.close()
		return 0
	}
	resp, err := http.ReadResponse(lc.r, nil)
	if err != nil {
		lc.close()
		return 0
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		lc.close()
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

func (lc *loadConn) close() {
	if lc.c != nil {
		lc.c.Close()
		lc.c, lc.r = nil, nil
	}
}

// encodeRequest renders a complete POST /query request.
func encodeRequest(body []byte) []byte {
	head := fmt.Sprintf("POST /query HTTP/1.1\r\nHost: coopserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	return append([]byte(head), body...)
}

// arena keeps response bodies in large chunks so storing them costs the
// client a copy, not an allocation per request.
type arena struct{ cur []byte }

const arenaChunk = 4 << 20

func (a *arena) copy(b []byte) []byte {
	if len(b) > arenaChunk {
		return append([]byte(nil), b...)
	}
	if cap(a.cur)-len(a.cur) < len(b) {
		a.cur = make([]byte, 0, arenaChunk)
	}
	off := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[off:len(a.cur):len(a.cur)]
}

// wireAnswer is the part of coopserve's per-query answer the check reads.
// Results stays raw: it is first compared byte for byte with the oracle's
// answer encoded the way coopserve encodes it, and decoded only when the
// bytes differ.
type wireAnswer struct {
	Kind    string          `json:"kind"`
	Steps   int64           `json:"steps"`
	Results json.RawMessage `json:"results"`
	Err     string          `json:"err"`
}

// sameResults reports whether a raw wire results array equals want.
func sameResults(raw, wantJSON []byte, want []wl.Result) bool {
	if bytes.Equal(raw, wantJSON) {
		return true
	}
	var got []wl.Result
	return json.Unmarshal(raw, &got) == nil && wl.SameResults(got, want)
}

// tracedAnswer adds the per-phase steps, decoded for traced passes only:
// the map costs the check as much as the rest of the answer.
type tracedAnswer struct {
	wireAnswer
	PhaseSteps map[string]int64 `json:"phase_steps"`
}

// engineBatch is the daemon's report of one engine batch it ran for a
// request: the batch size and each query's processor share.
type engineBatch struct {
	B      int `json:"b"`
	PShare int `json:"p_share"`
}

// decodeAnswers decodes a /query response. With withPhases (traced passes)
// it also decodes the answers' per-phase steps and the daemon's engine
// batches.
func decodeAnswers(body []byte, withPhases bool) ([]tracedAnswer, []engineBatch, error) {
	if withPhases {
		var resp struct {
			Batches []engineBatch  `json:"batches"`
			Answers []tracedAnswer `json:"answers"`
		}
		err := json.Unmarshal(body, &resp)
		return resp.Answers, resp.Batches, err
	}
	var resp struct {
		Answers []wireAnswer `json:"answers"`
	}
	err := json.Unmarshal(body, &resp)
	out := make([]tracedAnswer, len(resp.Answers))
	for i, a := range resp.Answers {
		out[i].wireAnswer = a
	}
	return out, nil, err
}

// check decodes one response and scores its answers, then releases the
// body. A non-200, a transport error or an engine error fails every query
// of the request; an answer that differs from the oracle's is wrong. A
// failed request's latency is raised to the pass length d, so it counts as
// missing any limit. Sample times are rebased onto the pass's load time.
func (in *servedInput) check(s *sample, p *passStats, d time.Duration) {
	nq := int64(len(in.reqs[s.idx]))
	p.attempted += nq
	at := p.wall.Nanoseconds() + s.due
	lat := float64(s.end-s.due) / 1e6
	if in.w.Open {
		p.lag = append(p.lag, float64(s.start-s.due)/1e6)
	}
	body := s.body
	s.body = nil
	var answers []tracedAnswer
	var batches []engineBatch
	var err error
	if s.code == http.StatusOK {
		answers, batches, err = decodeAnswers(body, p.phases != nil)
	}
	if s.code != http.StatusOK || err != nil || int64(len(answers)) != nq {
		p.failed += nq
		p.lat = append(p.lat, timed{at, math.Max(lat, float64(d)/1e6)})
		return
	}
	p.respBytes += int64(len(body))
	p.lat = append(p.lat, timed{at, lat})
	for _, b := range batches {
		p.noteBatch(b.B, b.B*b.PShare)
	}
	for j, a := range answers {
		want := in.expect[s.idx][j]
		switch {
		case a.Err != "":
			p.failed++
		case a.Kind != wl.KindCatalog || !sameResults(a.Results, in.expectJSON[s.idx][j], want.Results):
			p.wrong++
		default:
			p.correct++
			p.steps += a.Steps
			for k, v := range a.PhaseSteps {
				p.phases[k] += v
			}
		}
	}
}

// scrape reads the daemon's /metrics counters, summing the per-shard cache
// counters.
func scrape(ctx context.Context, addr string) (map[string]float64, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			continue
		}
		m[name] = v
		if strings.HasPrefix(name, "engine_shard_") {
			for _, k := range []string{"hits", "misses", "evictions"} {
				if strings.HasSuffix(name, "_cache_"+k+"_total") {
					m["cache_"+k] += v
				}
			}
		}
	}
	return m, sc.Err()
}

// Command bench is the repository's benchmark runner. It runs one workload
// (see perfbench/README.md) for a fixed number of seconds, checks every
// answer against a brute-force oracle, and prints as its last line of
// standard output one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, from a traced pass plus the layer arms of cmd/layers.
// Every process the runner starts is supervised: it is stopped on every exit
// path (success, error, panic, SIGINT/SIGTERM, deadline), and a run fails if
// any of them is still alive at the end.
//
// Usage (normally through perfbench/run.sh, which builds the binaries):
//
//	bench -root . -bin .bench_build/bin --workload serve-hot-b1 --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"fraccascade/perfbench/internal/wl"
)

// setupRepeats is how many times a run sets up its serving process; setup_s
// is their median.
const setupRepeats = 5

// warmup is the untimed load each set-up serves before its measured
// share, so connections, caches and the heap are in steady state when the
// clock starts.
const warmup = 500 * time.Millisecond

// options are the parsed flags.
type options struct {
	w        wl.Workload
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: holds cmd/coopserve
	bin      string // built coopserve and layers binaries
	workdir  string // this run's scratch files (snapshot, logs)
	results  string // where result and span files are written
	deadline time.Duration
	metrics  []metricSpec // what the run prints, from BENCHMARK.json
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, succeeded, failed, wrong int64
	metrics                             map[string]float64
	// info is written to the summary line and result file only: the
	// end-to-end figures of a traced run, spreads, sample counts.
	info map[string]any
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the benchmark and returns the exit code.
func run(args []string, stdout io.Writer) int {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("bench: ")
	o, err := parseFlags(args)
	if err != nil {
		log.Print(err)
		return 2
	}
	total0, steal0 := cpuTimes()
	sup := newSupervisor()
	ctx, cancel := context.WithTimeout(context.Background(), o.deadline)
	defer cancel()

	// SIGINT/SIGTERM: stop everything now; the workload then unwinds on
	// the cancelled context and no result is printed.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		select {
		case s := <-sigc:
			log.Printf("caught %v: stopping", s)
			interrupted.Store(true)
			cancel()
			sup.shutdown()
		case <-quit:
		}
	}()
	// Watchdog for a run wedged somewhere the context cannot reach.
	wd := time.AfterFunc(o.deadline+10*time.Second, func() {
		log.Print("deadline passed and the run did not unwind: killing children")
		sup.shutdown()
		os.Exit(1)
	})
	defer wd.Stop()

	out, err := func() (out *outcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		if o.w.Served {
			return runServed(ctx, sup, o)
		}
		return runEmbedded(ctx, sup, o)
	}()
	sup.shutdown()
	if left := sup.survivors(); len(left) > 0 {
		log.Printf("FAIL: processes outlived the run (killed now): %v", left)
		return 3
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run stopped: %w", ctx.Err())
	}
	if err != nil || interrupted.Load() {
		log.Printf("FAIL: %v", err)
		return 1
	}
	total1, steal1 := cpuTimes()
	out.info["cpu_steal_share"] = float64(steal1-steal0) / float64(max(1, total1-total0))
	code := report(o, out, stdout)
	if code == 0 {
		// The snapshot and logs are only kept to diagnose a failed run.
		_ = os.RemoveAll(o.workdir)
	}
	return code
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bin", "", "directory of the built coopserve and layers binaries (default <root>/.bench_build/bin)")
	workdir := fs.String("workdir", "", "scratch directory for this run (default under <root>/.bench_build/runs)")
	deadline := fs.Duration("deadline", 150*time.Second, "abort the run after this long")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, err := wl.Lookup(*name)
	if err != nil {
		return nil, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	r, err := filepath.Abs(*root)
	if err != nil {
		return nil, err
	}
	ms, err := declaredMetrics(r, *trace == 1)
	if err != nil {
		return nil, err
	}
	o := &options{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		root: r, bin: *bin, workdir: *workdir, deadline: *deadline,
		results: filepath.Join(r, ".bench_build", "results"), metrics: ms,
	}
	if o.bin == "" {
		o.bin = filepath.Join(r, ".bench_build", "bin")
	}
	if o.workdir == "" {
		o.workdir = filepath.Join(r, ".bench_build", "runs", fmt.Sprintf("%s-s%d-t%d-%d", w.Name, o.seed, *trace, os.Getpid()))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		return nil, err
	}
	return o, nil
}

// report prints the summary line and the result line and writes the result
// file; any wrong answer makes the exit code non-zero.
func report(o *options, out *outcome, stdout io.Writer) int {
	ms := map[string]metric{}
	for _, spec := range o.metrics {
		v, ok := out.metrics[spec.Name]
		if !ok {
			log.Printf("FAIL: metric %s was not measured", spec.Name)
			return 1
		}
		ms[spec.Name] = metric{Value: v, Unit: spec.Unit}
	}
	// Figures measured but not declared (the p99 latency of an untraced
	// run) go to the summary.
	for n, v := range out.metrics {
		if _, ok := ms[n]; !ok {
			out.info[n] = v
		}
	}
	summary := map[string]any{
		"workload": o.w.Name, "seed": o.seed, "trace": o.trace,
		"attempted": out.attempted, "succeeded": out.succeeded, "failed": out.failed, "wrong": out.wrong,
		"host": hostInfo(o.root), "info": out.info,
	}
	res := map[string]any{"correct": out.wrong == 0, "attempted": out.attempted, "failed": out.failed, "metrics": ms}
	file := filepath.Join(o.results, fmt.Sprintf("%s-seed%d-trace%t.json", o.w.Name, o.seed, o.trace))
	if b, err := json.MarshalIndent(map[string]any{"summary": summary, "result": res}, "", "  "); err == nil {
		if err := os.WriteFile(file, b, 0o644); err != nil {
			log.Printf("result file: %v", err)
		}
	}
	line1, err1 := json.Marshal(summary)
	line2, err2 := json.Marshal(res)
	if err := errors.Join(err1, err2); err != nil {
		log.Printf("FAIL: encode result: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line1, line2)
	if out.wrong > 0 {
		log.Printf("FAIL: %d wrong answers", out.wrong)
		return 1
	}
	return 0
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile mirrors coopbench's BENCH_<EXP>.json recorder output.
type benchFile struct {
	Experiment string           `json:"experiment"`
	Seed       int64            `json:"seed"`
	Executor   string           `json:"executor"`
	WallMS     float64          `json:"wall_ms"`
	Rows       []map[string]any `json:"rows"`
}

func loadBench(path string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// tolerance holds the relative slack per metric class. Step counts come
// from the deterministic simulator (seeded workloads, executor-independent
// by the differential tests), so their tolerance defaults to exact; the
// throughput class, which mixes simulated queries/step with E23's
// host-clock build speedups, gets generous slack. Entry-cache hit rates
// have no knob at all: batches apply their cache effects in query order,
// so a seeded run reproduces its hit rate exactly. Latency covers host-clock ns/op columns (E22's flat-vs-pointer
// hot path), which vary with the machine running the gate — the default
// slack is very generous, so only an order-of-magnitude regression fails.
type tolerance struct {
	Steps      float64
	Throughput float64
	Latency    float64
	Build      float64
	Restore    float64
	Telemetry  float64
}

// Metric classification. Step-class fields regress upward (more simulated
// steps/procs is worse); throughput-class fields regress downward
// (fewer queries per step, lower hit rate is worse). Exact fields may not
// drift in either direction — they are statements (the Snir lower bound),
// not measurements. Identity fields key the row: a mismatch means the
// benchmark's shape changed and the baseline must be regenerated, not
// tolerated.
var (
	stepFields = map[string]bool{
		"machine_steps": true, "root_steps": true, "hop_steps": true,
		"seq_steps": true, "peak_procs": true, "uniform": true, "binary": true,
	}
	throughputFields = map[string]bool{
		"queries_per_step": true, "sequential_queries_per_step": true,
		"build_speedup": true,
	}
	// Hit rates regress downward with no slack: they depend only on the
	// seeded workload, never on how the pool scheduled a batch.
	hitRateFields = map[string]bool{"cache_hit_rate": true}
	// Host-clock latencies regress upward under the generous Latency slack;
	// allocation counts regress upward with no slack at all — the flat hot
	// path's zero allocs/op is a statement, and one malloc per op is the
	// exact failure the gate exists to catch.
	latencyFields = map[string]bool{
		"pointer_ns_per_op": true, "flat_ns_per_op": true, "wall_ns_per_op": true,
		"disabled_ns_per_query": true, "enabled_ns_per_query": true,
	}
	// The telemetry overhead ratio (E25's enabled/disabled ns per query)
	// regresses upward under its own knob (-telemetry-tol,
	// BENCH_TELEMETRY_TOL). Unlike the raw ns columns it is
	// machine-normalized — both arms run on the gating machine — so its
	// slack prices measurement noise, not hardware variance.
	telemetryFields = map[string]bool{"telemetry_overhead_ratio": true}
	allocFields     = map[string]bool{"flat_allocs_per_op": true, "wall_allocs_per_op": true}
	// Host-clock construction times (E23) regress upward under their own
	// slack: like the latency class they vary with the gating machine, but
	// a separate knob (-build-tol, BENCH_BUILD_TOL) lets CI track build
	// throughput independently of query latency.
	buildFields = map[string]bool{"build_ms": true, "freeze_ms": true}
	// Snapshot cold-start metrics (E24) regress upward under their own
	// knob (-restore-tol, BENCH_RESTORE_TOL): restore latency and the
	// heap a restore path pins. Both get a small absolute slack on top of
	// the relative one — the cheap rows (a sub-millisecond mmap, a few KB
	// of view bookkeeping) would otherwise fail on scheduler and
	// allocator noise alone.
	restoreFields  = map[string]bool{"restore_ms": true, "heap_kb": true}
	exactFields    = map[string]bool{"lower_bound": true}
	identityFields = map[string]bool{"n": true, "p": true, "batch": true, "procs_per_query": true, "par": true, "kind": true, "mode": true}
)

// compare returns one message per regression of cand against base (empty
// means the candidate is no worse than the baseline within tolerance).
// Improvements are not reported: they pass, and the baseline is refreshed
// by re-running `make bench-json` into bench/baselines.
func compare(base, cand benchFile, tol tolerance) []string {
	var regs []string
	fail := func(format string, args ...any) {
		regs = append(regs, fmt.Sprintf("%s: ", base.Experiment)+fmt.Sprintf(format, args...))
	}
	if base.Seed != cand.Seed {
		fail("seed mismatch: baseline %d, candidate %d (not comparable)", base.Seed, cand.Seed)
		return regs
	}
	if len(base.Rows) != len(cand.Rows) {
		fail("row count changed: baseline %d, candidate %d", len(base.Rows), len(cand.Rows))
		return regs
	}
	for i, br := range base.Rows {
		cr := cand.Rows[i]
		// The rows are emitted in deterministic program order; identity
		// fields double-check the alignment.
		for f := range identityFields {
			bv, bok := num(br[f])
			cv, cok := num(cr[f])
			if bok && cok {
				if bv != cv {
					fail("row %d: identity field %s changed (%v -> %v); regenerate the baseline", i, f, br[f], cr[f])
					return regs
				}
				continue
			}
			// Non-numeric identities (E24's kind/mode strings) compare
			// by their rendered value; absent on both sides is fine.
			if fmt.Sprint(br[f]) != fmt.Sprint(cr[f]) {
				fail("row %d: identity field %s changed (%v -> %v); regenerate the baseline", i, f, br[f], cr[f])
				return regs
			}
		}
		for _, f := range sortedKeys(br) {
			bv, ok := num(br[f])
			if !ok {
				continue
			}
			cv, ok := num(cr[f])
			if !ok {
				fail("row %d: field %s missing from candidate", i, f)
				continue
			}
			switch {
			case stepFields[f]:
				if cv > bv*(1+tol.Steps)+1e-9 {
					fail("row %d (%s): %s regressed %v -> %v (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Steps)
				}
			case throughputFields[f]:
				if cv < bv*(1-tol.Throughput)-1e-9 {
					fail("row %d (%s): %s regressed %.4f -> %.4f (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Throughput)
				}
			case hitRateFields[f]:
				if cv < bv-1e-9 {
					fail("row %d (%s): %s regressed %.4f -> %.4f (hit rates are deterministic: exact, lower is worse)",
						i, rowKey(br), f, bv, cv)
				}
			case latencyFields[f]:
				if cv > bv*(1+tol.Latency)+1e-9 {
					fail("row %d (%s): %s regressed %.1fns -> %.1fns (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Latency)
				}
			case buildFields[f]:
				if cv > bv*(1+tol.Build)+1e-9 {
					fail("row %d (%s): %s regressed %.2fms -> %.2fms (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Build)
				}
			case restoreFields[f]:
				// 1 ms / 64 KB absolute slack keeps the near-zero mmap
				// rows from failing on pure noise.
				slack := 1.0
				if f == "heap_kb" {
					slack = 64.0
				}
				if cv > bv*(1+tol.Restore)+slack {
					fail("row %d (%s): %s regressed %.3f -> %.3f (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Restore)
				}
			case telemetryFields[f]:
				if cv > bv*(1+tol.Telemetry)+1e-9 {
					fail("row %d (%s): %s regressed %.3fx -> %.3fx (tol %.0f%%)",
						i, rowKey(br), f, bv, cv, 100*tol.Telemetry)
				}
			case allocFields[f]:
				if cv > bv+1e-9 {
					fail("row %d (%s): %s regressed %.3f -> %.3f (allocations are exact: the hot path must not grow a malloc)",
						i, rowKey(br), f, bv, cv)
				}
			case exactFields[f]:
				if cv != bv {
					fail("row %d (%s): %s drifted %v -> %v (must be exact)",
						i, rowKey(br), f, bv, cv)
				}
			}
		}
	}
	return regs
}

// num coerces a decoded JSON value to float64.
func num(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// rowKey renders the identity fields present in a row for messages.
func rowKey(row map[string]any) string {
	s := ""
	for _, f := range []string{"n", "p", "batch", "procs_per_query", "par", "kind", "mode", "workload"} {
		if v, ok := row[f]; ok {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%v", f, v)
		}
	}
	return s
}

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadBaseline(t *testing.T, exp string) benchFile {
	t.Helper()
	b, err := loadBench(filepath.Join("..", "..", "bench", "baselines", "BENCH_"+exp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) == 0 {
		t.Fatalf("baseline %s has no rows", exp)
	}
	return b
}

// cloneRows deep-copies the row maps so tests can perturb a candidate
// without mutating the loaded baseline.
func cloneRows(b benchFile) benchFile {
	c := b
	c.Rows = make([]map[string]any, len(b.Rows))
	for i, r := range b.Rows {
		m := make(map[string]any, len(r))
		for k, v := range r {
			m[k] = v
		}
		c.Rows[i] = m
	}
	return c
}

// TestCompareIdenticalPasses: the committed baselines must diff clean
// against themselves — the `make bench-diff` pass-on-unchanged-tree
// guarantee, minus the regeneration step.
func TestCompareIdenticalPasses(t *testing.T) {
	for _, exp := range []string{"E17", "E18", "E20", "E22"} {
		b := loadBaseline(t, exp)
		if regs := compare(b, cloneRows(b), tolerance{}); len(regs) != 0 {
			t.Fatalf("%s: self-compare regressed: %v", exp, regs)
		}
	}
}

// TestCompareFlagsSlowedPhase injects an artificial phase slowdown into
// E17's per-phase step counts and requires the diff to fail — the ISSUE's
// failure-injection acceptance check for the regression gate.
func TestCompareFlagsSlowedPhase(t *testing.T) {
	base := loadBaseline(t, "E17")
	for _, phase := range []string{"root_steps", "hop_steps", "machine_steps"} {
		cand := cloneRows(base)
		slowed := false
		for _, row := range cand.Rows {
			if v, ok := num(row[phase]); ok && v > 0 {
				row[phase] = v * 2
				slowed = true
			}
		}
		if !slowed {
			t.Fatalf("no row has positive %s to slow down", phase)
		}
		regs := compare(base, cand, tolerance{})
		if len(regs) == 0 {
			t.Fatalf("doubling %s was not flagged", phase)
		}
		if !strings.Contains(regs[0], phase) {
			t.Fatalf("regression message does not name %s: %q", phase, regs[0])
		}
		// A step improvement (fewer steps) must NOT fail the gate.
		better := cloneRows(base)
		for _, row := range better.Rows {
			if v, ok := num(row[phase]); ok && v > 1 {
				row[phase] = v - 1
			}
		}
		if regs := compare(base, better, tolerance{}); len(regs) != 0 {
			t.Fatalf("step improvement in %s flagged as regression: %v", phase, regs)
		}
	}
}

// TestCompareStepToleranceAbsorbsSmallDrift: with a 10% step tolerance a
// 5% inflation passes and a 2x inflation still fails.
func TestCompareStepToleranceAbsorbsSmallDrift(t *testing.T) {
	base := loadBaseline(t, "E17")
	small := cloneRows(base)
	for _, row := range small.Rows {
		if v, ok := num(row["machine_steps"]); ok {
			row["machine_steps"] = v * 1.05
		}
	}
	if regs := compare(base, small, tolerance{Steps: 0.10}); len(regs) != 0 {
		t.Fatalf("5%% drift flagged under 10%% tolerance: %v", regs)
	}
	big := cloneRows(base)
	for _, row := range big.Rows {
		if v, ok := num(row["machine_steps"]); ok {
			row["machine_steps"] = v * 2
		}
	}
	if regs := compare(base, big, tolerance{Steps: 0.10}); len(regs) == 0 {
		t.Fatal("2x drift passed under 10% tolerance")
	}
}

// TestCompareThroughputDirection: throughput regresses downward — a dip
// beyond tolerance fails, a dip within it passes, and a gain never fails.
func TestCompareThroughputDirection(t *testing.T) {
	base := loadBaseline(t, "E20")
	scale := func(f float64) benchFile {
		c := cloneRows(base)
		for _, row := range c.Rows {
			if v, ok := num(row["queries_per_step"]); ok {
				row["queries_per_step"] = v * f
			}
		}
		return c
	}
	tol := tolerance{Throughput: 0.35}
	if regs := compare(base, scale(0.8), tol); len(regs) != 0 {
		t.Fatalf("20%% throughput dip flagged under 35%% tolerance: %v", regs)
	}
	if regs := compare(base, scale(0.5), tol); len(regs) == 0 {
		t.Fatal("50% throughput dip passed under 35% tolerance")
	}
	if regs := compare(base, scale(3), tol); len(regs) != 0 {
		t.Fatalf("throughput gain flagged: %v", regs)
	}
}

// TestCompareHitRateExact: E20's cache hit rate is deterministic, so it
// gets no slack — the smallest dip fails even under the throughput
// tolerance, while a higher rate passes.
func TestCompareHitRateExact(t *testing.T) {
	base := loadBaseline(t, "E20")
	shift := func(d float64) benchFile {
		c := cloneRows(base)
		for _, row := range c.Rows {
			if v, ok := num(row["cache_hit_rate"]); ok && v > 0 {
				row["cache_hit_rate"] = v + d
			}
		}
		return c
	}
	tol := tolerance{Throughput: 0.35}
	if regs := compare(base, shift(-0.001), tol); len(regs) == 0 {
		t.Fatal("hit-rate dip of 0.001 passed")
	}
	if regs := compare(base, shift(0.01), tol); len(regs) != 0 {
		t.Fatalf("hit-rate gain flagged: %v", regs)
	}
}

// TestCompareExactAndIdentityFields: the Snir lower bound may not drift in
// either direction, and identity-field changes invalidate the comparison.
func TestCompareExactAndIdentityFields(t *testing.T) {
	base := loadBaseline(t, "E18")
	drift := cloneRows(base)
	v, ok := num(drift.Rows[0]["lower_bound"])
	if !ok {
		t.Fatal("E18 rows lack lower_bound")
	}
	drift.Rows[0]["lower_bound"] = v - 1 // an "improvement" — still a drift
	if regs := compare(base, drift, tolerance{Steps: 10}); len(regs) == 0 {
		t.Fatal("lower_bound drift passed")
	}

	ident := cloneRows(base)
	ident.Rows[0]["n"] = 12345.0
	regs := compare(base, ident, tolerance{})
	if len(regs) == 0 || !strings.Contains(regs[0], "identity") {
		t.Fatalf("identity change not flagged: %v", regs)
	}

	reseeded := cloneRows(base)
	reseeded.Seed = 999
	if regs := compare(base, reseeded, tolerance{}); len(regs) == 0 {
		t.Fatal("seed mismatch passed")
	}
}

// TestCompareRowShapeChanges: row-count changes and missing metric fields
// are regressions, not silent skips.
func TestCompareRowShapeChanges(t *testing.T) {
	base := loadBaseline(t, "E17")
	short := cloneRows(base)
	short.Rows = short.Rows[:len(short.Rows)-1]
	if regs := compare(base, short, tolerance{}); len(regs) == 0 {
		t.Fatal("dropped row passed")
	}
	gone := cloneRows(base)
	delete(gone.Rows[0], "machine_steps")
	regs := compare(base, gone, tolerance{})
	if len(regs) == 0 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing field not flagged: %v", regs)
	}
}

// TestCompareLatencyDirection: E22's host-clock ns/op columns regress
// upward under the wide -wall-tol slack — machine noise inside the slack
// passes, an order-of-magnitude slowdown fails, and getting faster never
// fails. Injected on each latency column separately so a class mixup in
// the field tables cannot hide.
func TestCompareLatencyDirection(t *testing.T) {
	base := loadBaseline(t, "E22")
	tol := tolerance{Latency: 3.0}
	for _, field := range []string{"pointer_ns_per_op", "flat_ns_per_op", "wall_ns_per_op"} {
		scale := func(f float64) benchFile {
			c := cloneRows(base)
			for _, row := range c.Rows {
				if v, ok := num(row[field]); ok {
					row[field] = v * f
				}
			}
			return c
		}
		if regs := compare(base, scale(2), tol); len(regs) != 0 {
			t.Fatalf("2x %s flagged under 4x tolerance: %v", field, regs)
		}
		regs := compare(base, scale(10), tol)
		if len(regs) == 0 {
			t.Fatalf("10x %s passed under 4x tolerance", field)
		}
		if !strings.Contains(regs[0], field) {
			t.Fatalf("regression message does not name %s: %q", field, regs[0])
		}
		if regs := compare(base, scale(0.1), tol); len(regs) != 0 {
			t.Fatalf("%s speedup flagged: %v", field, regs)
		}
	}
}

// TestCompareAllocsExact: the committed E22 baseline claims 0 allocs/op on
// the flat and wall hot paths, and the gate holds that claim exactly —
// even a fraction of a malloc per op (one allocation somewhere in a timed
// loop) fails regardless of the latency slack.
func TestCompareAllocsExact(t *testing.T) {
	base := loadBaseline(t, "E22")
	for _, field := range []string{"flat_allocs_per_op", "wall_allocs_per_op"} {
		v, ok := num(base.Rows[0][field])
		if !ok || v != 0 {
			t.Fatalf("baseline row 0 %s = %v, want the committed zero-alloc claim", field, base.Rows[0][field])
		}
		leak := cloneRows(base)
		leak.Rows[0][field] = 0.5
		regs := compare(base, leak, tolerance{Latency: 100})
		if len(regs) == 0 {
			t.Fatalf("half a malloc per op in %s passed", field)
		}
		if !strings.Contains(regs[0], field) {
			t.Fatalf("regression message does not name %s: %q", field, regs[0])
		}
	}
	// The workload tag is a string, not a metric: renaming it is invisible
	// to the numeric diff (the shape is pinned by n/p identity fields).
	tagged := cloneRows(base)
	tagged.Rows[0]["workload"] = "renamed"
	if regs := compare(base, tagged, tolerance{}); len(regs) != 0 {
		t.Fatalf("string field change flagged as numeric regression: %v", regs)
	}
}

// TestCompareTelemetryOverheadGate: E25's overhead ratio regresses upward
// under its own knob — a regression past the slack fails naming the field,
// growth inside it passes, and cheaper telemetry never fails. The raw
// ns-per-query columns ride the latency class, so a machine-speed shift
// that moves both arms equally leaves the gated ratio untouched.
func TestCompareTelemetryOverheadGate(t *testing.T) {
	base := loadBaseline(t, "E25")
	tol := tolerance{Telemetry: 0.5, Latency: 3.0}
	if regs := compare(base, cloneRows(base), tol); len(regs) != 0 {
		t.Fatalf("E25 self-compare regressed: %v", regs)
	}
	scale := func(field string, f float64) benchFile {
		c := cloneRows(base)
		for _, row := range c.Rows {
			if v, ok := num(row[field]); ok {
				row[field] = v * f
			}
		}
		return c
	}
	if regs := compare(base, scale("telemetry_overhead_ratio", 1.2), tol); len(regs) != 0 {
		t.Fatalf("20%% ratio growth flagged under 50%% tolerance: %v", regs)
	}
	regs := compare(base, scale("telemetry_overhead_ratio", 2), tol)
	if len(regs) == 0 {
		t.Fatal("2x overhead ratio passed under 50% tolerance")
	}
	if !strings.Contains(regs[0], "telemetry_overhead_ratio") {
		t.Fatalf("regression message does not name the ratio: %q", regs[0])
	}
	if regs := compare(base, scale("telemetry_overhead_ratio", 0.5), tol); len(regs) != 0 {
		t.Fatalf("cheaper telemetry flagged: %v", regs)
	}
	// Both ns columns are latency-class: 10x fails, 2x passes under the
	// wide machine slack.
	for _, field := range []string{"disabled_ns_per_query", "enabled_ns_per_query"} {
		if regs := compare(base, scale(field, 2), tol); len(regs) != 0 {
			t.Fatalf("2x %s flagged under 4x tolerance: %v", field, regs)
		}
		if regs := compare(base, scale(field, 10), tol); len(regs) == 0 {
			t.Fatalf("10x %s passed under 4x tolerance", field)
		}
	}
}

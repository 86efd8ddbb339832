package engine

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
)

// TestSpatialBatchAllocsPerBatch pins the default serving path's heap
// diet: once warm, a 64-query spatial batch allocates a constant number of
// objects per batch — the answers slice and the pool's helper goroutines —
// and nothing per query (pooled batch state, interned phase maps, pooled
// locator scratch, index dispatch).
func TestSpatialBatchAllocsPerBatch(t *testing.T) {
	allocguard.SkipPooled(t)
	fx := buildFixture(t, 61, 8, 200)
	e := fx.newEngine(t, Config{Procs: 4096})
	rng := rand.New(rand.NewSource(62))
	qs := make([]Query, 64)
	for i := range qs {
		x, y, z, _ := fx.cx.RandomInteriorPoint(rng)
		qs[i] = SpatialQuery(x, y, z)
	}
	run := func() {
		if _, rep, err := e.ExecuteBatch(qs); err != nil || rep.Errors != 0 {
			t.Fatalf("batch failed: %v (%d errors)", err, rep.Errors)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	// The answers slice and the pooled state's occasional refill after a
	// GC, plus per spawned helper goroutine its start closure and, when
	// the runtime's free list runs dry, a fresh g and its stack.
	bound := float64(2 + 3*(e.Pool().Workers()-1))
	t.Logf("%.1f allocs per 64-query batch (bound %.0f)", allocs, bound)
	if allocs > bound {
		t.Errorf("64-query spatial batch allocates %.1f, want ≤ %.0f per batch", allocs, bound)
	}
}

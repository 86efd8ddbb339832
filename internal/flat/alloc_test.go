package flat_test

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// TestSearchPathIntoZeroAllocs pins the tentpole's core claim: the flat
// sequential hot path allocates nothing per query.
func TestSearchPathIntoZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 40)
	bt := st.Tree()
	leaf := tree.NodeID(bt.N() - 1 - rng.Intn(1<<6))
	path := bt.RootPath(leaf)
	out := make([]cascade.Result, len(path))
	y := catalog.Key(rng.Intn(24000))
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.SearchPathInto(y, path, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SearchPathInto allocates %.1f per query, want 0", allocs)
	}
}

// TestSearchExplicitIntoZeroAllocs extends the zero-alloc guarantee to the
// cooperative search replica (the path the engine's flat backend serves).
func TestSearchExplicitIntoZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 41)
	bt := st.Tree()
	leaf := tree.NodeID(bt.N() - 1 - rng.Intn(1<<6))
	path := bt.RootPath(leaf)
	out := make([]cascade.Result, len(path))
	y := catalog.Key(rng.Intn(24000))
	for _, p := range []int{1, 16, 1 << 12, 1 << 18} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := f.SearchExplicitInto(y, path, p, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("SearchExplicitInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestWallBatchZeroAllocs asserts the Wall executor's steady state: after
// the pool has warmed up, dispatching a whole batch allocates nothing (all
// batch state lives in caller-provided slices; workers park on channels).
func TestWallBatchZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 42)
	bt := st.Tree()
	const batch = 32
	ys := make([]catalog.Key, batch)
	paths := make([][]tree.NodeID, batch)
	out := make([][]cascade.Result, batch)
	errs := make([]error, batch)
	for i := range ys {
		ys[i] = catalog.Key(rng.Intn(24000))
		paths[i] = bt.RootPath(tree.NodeID(bt.N() - 1 - rng.Intn(1<<6)))
		out[i] = make([]cascade.Result, len(paths[i]))
	}
	w, err := flat.NewWall(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Warm up the scheduler (sudog pools, stack growth) before measuring.
	for i := 0; i < 8; i++ {
		if err := w.SearchBatch(ys, paths, out, errs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.SearchBatch(ys, paths, out, errs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Wall.SearchBatch allocates %.1f per batch, want 0", allocs)
	}
}

// TestFreezeAllocsBounded pins Freeze's exact-size allocation discipline: a
// fixed handful of slice headers plus a fixed handful per substructure,
// independent of node and entry counts.
func TestFreezeAllocsBounded(t *testing.T) {
	allocguard.Skip(t)
	rng := rand.New(rand.NewSource(43))
	bt, err := tree.NewBalancedBinary(1 << 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Build(bt, randCatalogs(bt, 8000, rng), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := flat.Freeze(st); err != nil {
			t.Fatal(err)
		}
	})
	bound := float64(16 + 10*st.NumSubstructures())
	if allocs > bound {
		t.Errorf("Freeze allocates %.1f, want <= %.0f (16 + 10 per substructure)", allocs, bound)
	}
}

package segtree

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
	"fraccascade/internal/core"
)

// frozenSegBaseSeed anchors the differential: case c runs with seed
// frozenSegBaseSeed + c, so any reported failure replays standalone.
const frozenSegBaseSeed = int64(0x0F1A7_6000)

// TestDifferentialFrozenIntersectorVsPointer pins the frozen segment tree
// to the pointer intersector: 1000 seeded random segment sets, and for
// every stabbing query the frozen QueryDirect/QueryIndirect twins —
// direct, after a marshal/unmarshal round trip, and through the zero-copy
// open — must return identical answers and bit-identical RetrievalStats.
func TestDifferentialFrozenIntersectorVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		caseSeed := frozenSegBaseSeed + int64(c)
		runFrozenSegCase(t, caseSeed)
	}
}

func runFrozenSegCase(t *testing.T, caseSeed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	n := 1 + rng.Intn(200)
	segs := randSegments(n, 300, rng)
	it, err := NewIntersector(segs, core.Config{})
	if err != nil {
		t.Fatalf("case seed %d: NewIntersector: %v", caseSeed, err)
	}
	f, err := it.Freeze()
	if err != nil {
		t.Fatalf("case seed %d: Freeze: %v", caseSeed, err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("case seed %d: MarshalBinary: %v", caseSeed, err)
	}
	decoded, err := UnmarshalFrozenIntersector(blob)
	if err != nil {
		t.Fatalf("case seed %d: UnmarshalFrozenIntersector: %v", caseSeed, err)
	}
	opened, _, err := OpenFrozenIntersector(blob)
	if err != nil {
		t.Fatalf("case seed %d: OpenFrozenIntersector: %v", caseSeed, err)
	}
	frozens := []*FrozenIntersector{f, decoded, opened}
	names := []string{"frozen", "decoded", "opened"}
	scratches := []*IntersectorScratch{f.NewScratch(), decoded.NewScratch(), opened.NewScratch()}
	var ids []int32
	var ranges []Range

	for q := 0; q < 8; q++ {
		x1 := rng.Int63n(800) - 100
		query := HQuery{
			Y:  rng.Int63n(800) - 100,
			X1: x1,
			X2: x1 + rng.Int63n(400),
		}
		if q == 7 {
			query.X2 = query.X1 - 1 // empty x-range error path
		}
		p := 1 << uint(rng.Intn(14))

		wantIDs, wantStats, wantErr := it.QueryDirect(query, p)
		for i, fz := range frozens {
			gotIDs, gotStats, gotErr := fz.QueryDirectInto(query, p, scratches[i], ids)
			ids = gotIDs
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("case seed %d: %s QueryDirect err %v, want %v", caseSeed, names[i], gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if gotStats != wantStats {
				t.Fatalf("case seed %d: %s QueryDirect(%+v, p=%d) stats %+v, want %+v",
					caseSeed, names[i], query, p, gotStats, wantStats)
			}
			diffSegIDs(t, caseSeed, names[i]+" QueryDirect", gotIDs, wantIDs)
		}

		wantRanges, wantStats2, wantErr2 := it.QueryIndirect(query, p)
		wantExpand := it.Expand(wantRanges)
		for i, fz := range frozens {
			gotRanges, gotStats, gotErr := fz.QueryIndirectInto(query, p, scratches[i], ranges)
			ranges = gotRanges
			if (gotErr == nil) != (wantErr2 == nil) {
				t.Fatalf("case seed %d: %s QueryIndirect err %v, want %v", caseSeed, names[i], gotErr, wantErr2)
			}
			if wantErr2 != nil {
				continue
			}
			if gotStats != wantStats2 {
				t.Fatalf("case seed %d: %s QueryIndirect stats %+v, want %+v", caseSeed, names[i], gotStats, wantStats2)
			}
			if len(gotRanges) != len(wantRanges) {
				t.Fatalf("case seed %d: %s QueryIndirect %d ranges, want %d",
					caseSeed, names[i], len(gotRanges), len(wantRanges))
			}
			for j := range wantRanges {
				if gotRanges[j] != wantRanges[j] {
					t.Fatalf("case seed %d: %s QueryIndirect range[%d] = %+v, want %+v",
						caseSeed, names[i], j, gotRanges[j], wantRanges[j])
				}
			}
			ids = fz.ExpandInto(gotRanges, ids)
			diffSegIDs(t, caseSeed, names[i]+" Expand", ids, wantExpand)
		}
	}
}

func diffSegIDs(t *testing.T, caseSeed int64, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("case seed %d: %s returned %d ids, want %d", caseSeed, what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("case seed %d: %s id[%d] = %d, want %d", caseSeed, what, i, got[i], want[i])
		}
	}
}

// TestFrozenIntersectorZeroAllocs pins the frozen stabbing-query hot
// paths: once the scratch and output buffers have warmed up, direct and
// indirect queries allocate nothing.
func TestFrozenIntersectorZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	rng := rand.New(rand.NewSource(31))
	segs := randSegments(400, 600, rng)
	it, err := NewIntersector(segs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := it.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	query := HQuery{Y: 301, X1: 50, X2: 500}
	ids := make([]int32, 0, len(segs))
	ranges := make([]Range, 0, 64)
	for _, p := range []int{1, 16, 1 << 12} {
		// Warm the scratch and buffers.
		if ids, _, err = f.QueryDirectInto(query, p, sc, ids); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if ids, _, err = f.QueryDirectInto(query, p, sc, ids); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("QueryDirectInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if ranges, _, err = f.QueryIndirectInto(query, p, sc, ranges); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("QueryIndirectInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestFrozenIntersectorDecodeRejectsCorruption bit-flips and truncates an
// encoded frozen segment tree: every mutant must fail cleanly or stay
// queryable — never panic.
func TestFrozenIntersectorDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	segs := randSegments(60, 300, rng)
	it, err := NewIntersector(segs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := it.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(blob) > 4096 {
		stride = len(blob) / 4096
	}
	for i := 0; i < len(blob); i += stride {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x10
		g, err := UnmarshalFrozenIntersector(mutant)
		if err != nil {
			continue
		}
		g.QueryDirectInto(HQuery{Y: 101, X1: 0, X2: 200}, 8, g.NewScratch(), nil)
	}
	for _, n := range []int{0, 8, 24, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalFrozenIntersector(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

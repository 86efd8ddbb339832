package rangetree

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
	"fraccascade/internal/core"
)

// frozen2DBaseSeed anchors the differential: case c runs with seed
// frozen2DBaseSeed + c, so any reported failure replays standalone.
const frozen2DBaseSeed = int64(0x0F1A7_4000)

// TestDifferentialFrozen2DVsPointer pins the frozen range tree to the
// pointer structure: 1000 seeded random point sets, and for every query
// the frozen QueryDirect/QueryIndirect/QueryCount twins — direct, after a
// marshal/unmarshal round trip, and through the zero-copy open — must
// return identical answers and bit-identical Stats.
func TestDifferentialFrozen2DVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		caseSeed := frozen2DBaseSeed + int64(c)
		runFrozen2DCase(t, caseSeed)
	}
}

func runFrozen2DCase(t *testing.T, caseSeed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	n := 1 + rng.Intn(250)
	pts := randPoints(n, 400, rng)
	rt, err := New2D(pts, core.Config{})
	if err != nil {
		t.Fatalf("case seed %d: New2D: %v", caseSeed, err)
	}
	f, err := rt.Freeze()
	if err != nil {
		t.Fatalf("case seed %d: Freeze: %v", caseSeed, err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("case seed %d: MarshalBinary: %v", caseSeed, err)
	}
	decoded, err := UnmarshalFrozen2D(blob)
	if err != nil {
		t.Fatalf("case seed %d: UnmarshalFrozen2D: %v", caseSeed, err)
	}
	opened, _, err := OpenFrozen2D(blob)
	if err != nil {
		t.Fatalf("case seed %d: OpenFrozen2D: %v", caseSeed, err)
	}
	frozens := []*Frozen2D{f, decoded, opened}
	names := []string{"frozen", "decoded", "opened"}
	scratches := []*Scratch2D{f.NewScratch(), decoded.NewScratch(), opened.NewScratch()}
	var ids []int32
	var ranges []Range

	for q := 0; q < 8; q++ {
		x1, y1 := rng.Int63n(500)-50, rng.Int63n(500)-50
		query := Query2{X1: x1, X2: x1 + rng.Int63n(250), Y1: y1, Y2: y1 + rng.Int63n(250)}
		if q == 7 {
			query.X2 = query.X1 - 1 // empty-rectangle error path
		}
		p := 1 << uint(rng.Intn(14))

		wantIDs, wantStats, wantErr := rt.QueryDirect(query, p)
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
			diffIDs(t, caseSeed, names[i]+" QueryDirect", gotIDs, wantIDs)
		}

		wantRanges, wantStats2, wantErr2 := rt.QueryIndirect(query, p)
		wantExpand := rt.Expand(wantRanges)
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
			diffIDs(t, caseSeed, names[i]+" Expand", ids, wantExpand)
		}

		wantCount, wantStats3, wantErr3 := rt.QueryCount(query, p)
		for i, fz := range frozens {
			gotCount, gotStats, gotErr := fz.QueryCount(query, p, scratches[i])
			if (gotErr == nil) != (wantErr3 == nil) {
				t.Fatalf("case seed %d: %s QueryCount err %v, want %v", caseSeed, names[i], gotErr, wantErr3)
			}
			if wantErr3 != nil {
				continue
			}
			if gotCount != wantCount || gotStats != wantStats3 {
				t.Fatalf("case seed %d: %s QueryCount = (%d, %+v), want (%d, %+v)",
					caseSeed, names[i], gotCount, gotStats, wantCount, wantStats3)
			}
		}
	}
}

func diffIDs(t *testing.T, caseSeed int64, what string, got, want []int32) {
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

// TestFrozen2DZeroAllocs pins the frozen range-query hot paths: once the
// scratch and output buffers have warmed up, direct, indirect, and count
// queries allocate nothing.
func TestFrozen2DZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	rng := rand.New(rand.NewSource(21))
	pts := randPoints(400, 600, rng)
	rt, err := New2D(pts, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := rt.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	query := Query2{X1: 50, X2: 400, Y1: 50, Y2: 400}
	ids := make([]int32, 0, len(pts))
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
		allocs = testing.AllocsPerRun(100, func() {
			if _, _, err := f.QueryCount(query, p, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("QueryCount(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestFrozen2DDecodeRejectsCorruption bit-flips and truncates an encoded
// frozen range tree: every mutant must fail cleanly or stay queryable —
// never panic.
func TestFrozen2DDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randPoints(60, 300, rng)
	rt, err := New2D(pts, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := rt.Freeze()
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
		g, err := UnmarshalFrozen2D(mutant)
		if err != nil {
			continue
		}
		g.QueryCount(Query2{X1: 0, X2: 200, Y1: 0, Y2: 200}, 8, g.NewScratch())
	}
	for _, n := range []int{0, 8, 24, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalFrozen2D(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

package spatial

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
)

// frozenBaseSeed anchors the differential: case c runs with seed
// frozenBaseSeed + c, so any reported failure replays standalone.
const frozenBaseSeed = int64(0x0F1A7_2000)

// TestDifferentialFrozenVsPointer pins the frozen spatial twin to the
// pointer locator: 1000 seeded random complexes, and for every query the
// frozen LocateCoopInto — direct, after a marshal/unmarshal round trip,
// and through the zero-copy open — must return the identical cell and
// bit-identical Stats at every processor count.
func TestDifferentialFrozenVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		caseSeed := frozenBaseSeed + int64(c)
		runFrozenCase(t, c, caseSeed)
	}
}

func runFrozenCase(t *testing.T, c int, caseSeed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	tiles, maxStack := 1+rng.Intn(60), 1+rng.Intn(6)
	if c%17 == 0 {
		tiles, maxStack = 1, 1 // exercise the treeless single-cell locator
	}
	cx := mustGen(t, tiles, maxStack, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatalf("case seed %d: NewLocator: %v", caseSeed, err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatalf("case seed %d: Freeze: %v", caseSeed, err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("case seed %d: MarshalBinary: %v", caseSeed, err)
	}
	decoded, err := UnmarshalFrozen(blob)
	if err != nil {
		t.Fatalf("case seed %d: UnmarshalFrozen: %v", caseSeed, err)
	}
	opened, _, err := OpenFrozen(blob)
	if err != nil {
		t.Fatalf("case seed %d: OpenFrozen: %v", caseSeed, err)
	}
	scratches := []*Scratch{f.NewScratch(), decoded.NewScratch(), opened.NewScratch()}
	frozens := []*Frozen{f, decoded, opened}
	names := []string{"frozen", "decoded", "opened"}

	for q := 0; q < 10; q++ {
		x, y, z, _ := cx.RandomInteriorPoint(rng)
		p := 1 << uint(rng.Intn(18))
		wantCell, wantStats, wantErr := l.LocateCoop(x, y, z, p)
		for i, fz := range frozens {
			gotCell, gotStats, gotErr := fz.LocateCoopInto(x, y, z, p, scratches[i])
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("case seed %d: %s LocateCoop(%d,%d,%d,p=%d) err %v, want %v",
					caseSeed, names[i], x, y, z, p, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if gotCell != wantCell || gotStats != wantStats {
				t.Fatalf("case seed %d: %s LocateCoop(%d,%d,%d,p=%d) = (%d, %+v), want (%d, %+v)",
					caseSeed, names[i], x, y, z, p, gotCell, gotStats, wantCell, wantStats)
			}
		}
	}

	// Out-of-bounds queries fail identically.
	_, _, wantErr := l.LocateCoop(cx.XYMax+1, 1, 1, 4)
	_, _, gotErr := f.LocateCoopInto(cx.XYMax+1, 1, 1, 4, scratches[0])
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("case seed %d: out-of-bounds err %v, want %v", caseSeed, gotErr, wantErr)
	}
}

// TestFrozenLocateZeroAllocs pins the frozen spatial hot path: after the
// scratch has warmed up, a cooperative locate allocates nothing.
func TestFrozenLocateZeroAllocs(t *testing.T) {
	allocguard.Skip(t)
	rng := rand.New(rand.NewSource(11))
	cx := mustGen(t, 200, 6, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	x, y, z, want := cx.RandomInteriorPoint(rng)
	for _, p := range []int{1, 16, 1 << 10, 1 << 16} {
		// Warm the scratch so frontier growth is behind us.
		if got, _, err := f.LocateCoopInto(x, y, z, p, sc); err != nil || got != want {
			t.Fatalf("LocateCoopInto(p=%d) = (%d, %v), want (%d, nil)", p, got, err, want)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := f.LocateCoopInto(x, y, z, p, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("LocateCoopInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestFrozenDecodeRejectsCorruption flips every byte of an encoded frozen
// locator one at a time: each mutant must either fail to open or remain a
// safely queryable structure — never panic.
func TestFrozenDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cx := mustGen(t, 12, 3, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	x, y, z, _ := cx.RandomInteriorPoint(rng)
	stride := 1
	if len(blob) > 4096 {
		stride = len(blob) / 4096
	}
	for i := 0; i < len(blob); i += stride {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x40
		g, err := UnmarshalFrozen(mutant)
		if err != nil {
			continue
		}
		// CRC collisions are effectively impossible for single-bit flips, but
		// if a mutant decodes it must still be safe to query.
		g.LocateCoopInto(x, y, z, 16, g.NewScratch())
	}
	// Truncations must fail cleanly too.
	for _, n := range []int{0, 7, 8, 24, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalFrozen(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

package spatial

import (
	"math/rand"
	"testing"

	"fraccascade/internal/allocguard"
)

// TestLocateCoopZeroAllocs pins the pointer locator's hot path: with the
// hop scratch pooled on the locator, a cooperative location allocates
// nothing per query at any processor count.
func TestLocateCoopZeroAllocs(t *testing.T) {
	allocguard.SkipPooled(t)
	rng := rand.New(rand.NewSource(13))
	cx := mustGen(t, 200, 6, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z, want := cx.RandomInteriorPoint(rng)
	for _, p := range []int{1, 64, 4096} {
		if got, _, err := l.LocateCoop(x, y, z, p); err != nil || got != want {
			t.Fatalf("LocateCoop(p=%d) = (%d, %v), want (%d, nil)", p, got, err, want)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := l.LocateCoop(x, y, z, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("LocateCoop(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

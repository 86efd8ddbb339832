package pointloc

import (
	"testing"

	"fraccascade/internal/allocguard"
	"fraccascade/internal/core"
)

// TestLocateCoopZeroAllocs pins the planar hot path: with the per-hop find
// positions and branch slices pooled on the locator, a cooperative
// location allocates nothing per query at any processor count.
func TestLocateCoopZeroAllocs(t *testing.T) {
	allocguard.SkipPooled(t)
	l, sub, rng := buildLocator(t, 200, 12, 17, core.Config{})
	l.Debug = false // the Step-3 checks collect candidates on the heap
	q, _ := sub.RandomInteriorPoint(rng)
	want, err := sub.LocateBrute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 64, 4096} {
		if got, _, err := l.LocateCoop(q, p); err != nil || got != want {
			t.Fatalf("LocateCoop(p=%d) = (%d, %v), want (%d, nil)", p, got, err, want)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := l.LocateCoop(q, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("LocateCoop(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

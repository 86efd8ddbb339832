// Package allocguard gates the allocation-count tests. Allocation counts
// are runtime behaviour, not correctness, so every guard skips when the
// FRACCASCADE_GUARD=skip escape hatch is set (as the throughput guard
// does). Guards over sync.Pool'd state also skip under the race
// detector, whose sync.Pool discards pooled objects at random; guards
// over caller-owned scratch keep running there.
package allocguard

import (
	"os"
	"testing"
)

// Skip skips tb when FRACCASCADE_GUARD=skip.
func Skip(tb testing.TB) {
	tb.Helper()
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		tb.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
}

// SkipPooled is Skip for a guard whose zero count relies on sync.Pool:
// it also skips under the race detector.
func SkipPooled(tb testing.TB) {
	tb.Helper()
	if raceEnabled {
		tb.Skip("pooled allocation guard skipped under the race detector")
	}
	Skip(tb)
}

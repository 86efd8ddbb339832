package wl

import (
	"reflect"
	"testing"
	"time"
)

func TestStreamsAreSeeded(t *testing.T) {
	o1, q1 := HotSchedule(7, 2*time.Second)
	o2, q2 := HotSchedule(7, 2*time.Second)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("same seed gave different hot schedules")
	}
	if n := len(o1); n < 2*HotRate*9/10 || n > 2*HotRate*11/10 {
		t.Fatalf("%d arrivals in 2s, want about %d", n, 2*HotRate)
	}
	hot := map[int64]bool{}
	for _, q := range q1 {
		hot[q.Key] = true
	}
	if len(hot) > Shards*HotKeys {
		t.Fatalf("%d distinct hot keys, want at most %d", len(hot), Shards*HotKeys)
	}
	if _, q3 := HotSchedule(8, 2*time.Second); reflect.DeepEqual(q1, q3) {
		t.Fatal("different seeds gave the same stream")
	}
	if !reflect.DeepEqual(UniformPool(3), UniformPool(3)) {
		t.Fatal("same seed gave different uniform pools")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
}

package span

import (
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	a, b := New(t0, 2), New(t0, 2)
	a.Add("post", at(0), at(100), 4)
	b.Add("post", at(50), at(80), 2)
	a.Add("batch", at(10), at(20), 0)
	spans := Merge(a, b)
	if len(spans) != 3 || spans[1].Start != 10 {
		t.Fatalf("merged spans out of start order: %+v", spans)
	}
	sum := Summarize(spans)
	if got := sum["post"]; got.Count != 2 || got.N != 6 || got.Total != 130 || got.NsPerSpan() != 65 {
		t.Fatalf("post = %+v", got)
	}
	if got := sum["batch"]; got.NsPerQuery() != 10 {
		t.Fatalf("batch ns/query = %v, want 10 (no queries counts as one)", got.NsPerQuery())
	}
}

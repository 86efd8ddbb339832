package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestScheduleIndependence pins the snapshot-then-apply batch semantics:
// lookups read the cache state from batch start and effects apply in query
// index order, so the same seeded batch sequence must produce identical
// answers, batch reports and cache counters whatever the pool size — over
// static, dynamic (with mutations and flushes between batches) and flat
// shards, with finger search on and off.
func TestScheduleIndependence(t *testing.T) {
	type run struct {
		answers [][]Answer
		reports []BatchReport
		cache   []CacheStats
	}
	exec := func(cfg Config) run {
		fx := buildFixture(t, 81, 16, 900)
		e := fx.newEngine(t, cfg)
		rng := rand.New(rand.NewSource(82))
		churn := rand.New(rand.NewSource(83))
		var r run
		for batch := 0; batch < 24; batch++ {
			qs := make([]Query, 1+rng.Intn(40))
			for i := range qs {
				qs[i] = fx.randomQuery(rng)
			}
			answers, rep, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range answers {
				answers[i].WallNS, answers[i].RequestID = 0, ""
			}
			r.answers = append(r.answers, answers)
			r.reports = append(r.reports, rep)
			fx.churnDynamic(t, churn)
		}
		r.cache = e.Metrics().Cache
		return r
	}
	for _, flat := range []bool{false, true} {
		for _, finger := range []bool{false, true} {
			name := fmt.Sprintf("flat=%v/finger=%v", flat, finger)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Procs: 256, CacheSize: 24, Flat: flat, FingerCache: finger}
				cfg.Workers = 1
				want := exec(cfg)
				var sum CacheStats
				for _, s := range want.cache {
					sum.Hits += s.Hits
					sum.Evictions += s.Evictions
					sum.Stale += s.Stale
					sum.FingerHits += s.FingerHits
				}
				if sum.Hits == 0 || sum.Evictions == 0 || sum.Stale == 0 || finger != (sum.FingerHits > 0) {
					t.Fatalf("workload does not exercise hits, evictions, purges and fingers: %+v", want.cache)
				}
				for _, workers := range []int{2, 8} {
					cfg.Workers = workers
					got := exec(cfg)
					for b := range want.answers {
						if !reflect.DeepEqual(got.answers[b], want.answers[b]) {
							t.Fatalf("workers=%d batch %d: answers differ from workers=1", workers, b)
						}
					}
					if !reflect.DeepEqual(got.reports, want.reports) {
						t.Fatalf("workers=%d: reports %+v, want %+v", workers, got.reports, want.reports)
					}
					if !reflect.DeepEqual(got.cache, want.cache) {
						t.Fatalf("workers=%d: cache stats %+v, want %+v", workers, got.cache, want.cache)
					}
				}
			})
		}
	}
}

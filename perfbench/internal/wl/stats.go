package wl

import "sort"

// PhaseMetrics maps the engine's simulated-step phase labels to the
// per-layer metrics that report them per query.
var PhaseMetrics = map[string]string{
	"root-coop":   "sim.root_coop_steps_per_query",
	"hop-descent": "sim.hop_descent_steps_per_query",
	"seq-tail":    "sim.seq_tail_steps_per_query",
	"discrim":     "sim.discrim_steps_per_query",
	"descent":     "sim.descent_steps_per_query",
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice. xs is left as it was.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		xs = append([]float64(nil), xs...)
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

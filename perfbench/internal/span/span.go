// Package span is the benchmark's own tracer. The benchmark records a span
// around each call it makes into a layer of the program — an HTTP request
// to coopserve, an engine batch, a backend search — keeps the spans in
// memory while it runs, and writes them out as JSON lines at the end.
// A Recorder is owned by one goroutine; concurrent callers each own one
// and the runner merges them afterwards.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder's epoch; N counts the queries the call carried.
type Span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	N     int    `json:"n,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder accumulates spans in memory.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// New returns a recorder measuring from epoch.
func New(epoch time.Time, capHint int) *Recorder {
	return &Recorder{epoch: epoch, spans: make([]Span, 0, capHint)}
}

// Add records a finished span.
func (r *Recorder) Add(name string, start, end time.Time, n int) {
	r.spans = append(r.spans, Span{
		Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), N: n,
	})
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// Merge concatenates the spans of several recorders in start order.
func Merge(rs ...*Recorder) []Span {
	var out []Span
	for _, r := range rs {
		if r != nil {
			out = append(out, r.spans...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Write stores spans as JSON lines at path.
func Write(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Layer summarises the spans of one name.
type Layer struct {
	Count int   `json:"count"`
	N     int   `json:"n"`        // queries carried
	Total int64 `json:"total_ns"` // summed durations
}

// NsPerQuery is the mean duration per carried query.
func (l Layer) NsPerQuery() float64 { return float64(l.Total) / float64(max(1, l.N)) }

// NsPerSpan is the mean span duration.
func (l Layer) NsPerSpan() float64 { return float64(l.Total) / float64(max(1, l.Count)) }

// Summarize groups spans by name.
func Summarize(spans []Span) map[string]Layer {
	out := map[string]Layer{}
	for _, s := range spans {
		l := out[s.Name]
		l.Count++
		l.N += s.N
		l.Total += s.Dur()
		out[s.Name] = l
	}
	return out
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/engine"
	"fraccascade/perfbench/internal/wl"
)

// TestCheckScoresAnswers feeds the served-answer check hand-made responses:
// right, wrong, re-formatted, engine-error and non-200.
func TestCheckScoresAnswers(t *testing.T) {
	want := []wl.Result{{Node: 0, Key: 7, Payload: -1}, {Node: 2, Key: 9223372036854775807, Payload: -1}}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	in := &servedInput{
		w:          wl.Workload{Conns: 1},
		reqs:       [][]wl.Query{{{Kind: wl.KindCatalog}}},
		expect:     [][]wl.Expect{{{Results: want}}},
		expectJSON: [][][]byte{{wantJSON}},
	}
	answer := func(results, errText string) []byte {
		return []byte(fmt.Sprintf(`{"request_id":"r","batches":[{"b":1,"p_share":4096,"steps":14}],"answers":[{"kind":"catalog","p":4096,"steps":14,"cache":"miss","phase_steps":{"root-coop":2,"hop-descent":12},"results":%s,"err":%q}]}`, results, errText))
	}
	for _, tc := range []struct {
		name                   string
		code                   int
		body                   []byte
		correct, failed, wrong int64
	}{
		{"right", http.StatusOK, answer(string(wantJSON), ""), 1, 0, 0},
		{"reformatted", http.StatusOK, answer(`[ {"payload":-1,"key":7,"node":0}, {"node":2,"key":9223372036854775807,"payload":-1} ]`, ""), 1, 0, 0},
		{"wrong key", http.StatusOK, answer(`[{"node":0,"key":8,"payload":-1},{"node":2,"key":9223372036854775807,"payload":-1}]`, ""), 0, 0, 1},
		{"missing node", http.StatusOK, answer(`[{"node":0,"key":7,"payload":-1}]`, ""), 0, 0, 1},
		{"engine error", http.StatusOK, answer(`null`, "boom"), 0, 1, 0},
		{"shed", http.StatusServiceUnavailable, []byte("overloaded"), 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPassStats(true)
			in.check(&sample{code: int32(tc.code), body: tc.body}, p, 0)
			if p.attempted != 1 || p.correct != tc.correct || p.failed != tc.failed || p.wrong != tc.wrong {
				t.Fatalf("attempted/correct/failed/wrong = %d/%d/%d/%d, want 1/%d/%d/%d",
					p.attempted, p.correct, p.failed, p.wrong, tc.correct, tc.failed, tc.wrong)
			}
			if tc.correct == 1 && (p.steps != 14 || p.phases["hop-descent"] != 12) {
				t.Fatalf("steps %d phases %v, want 14 and hop-descent 12", p.steps, p.phases)
			}
			if tc.code == http.StatusOK && tc.failed == 0 && (p.batch != 1 || p.procs != 4096) {
				t.Fatalf("daemon batch geometry %d/%d, want 1/4096", p.batch, p.procs)
			}
		})
	}
}

// TestEmbeddedCheckScoresAnswers does the same for in-process answers.
func TestEmbeddedCheckScoresAnswers(t *testing.T) {
	r := &embeddedRun{
		pool:    [][]wl.Query{{{Kind: wl.KindCatalog}, {Kind: wl.KindPoint}, {Kind: wl.KindSpatial}}},
		batches: [][]engine.Query{make([]engine.Query, 3)},
		expect:  [][]wl.Expect{{{Results: []wl.Result{{Node: 0, Key: 5, Payload: 1}}}, {Region: 3}, {Cell: 4}}},
	}
	right := []engine.Answer{
		{Results: []cascade.Result{{Node: 0, Key: 5, Payload: 1}}, Steps: 10},
		{Region: 3, Steps: 6},
		{Cell: 4, Steps: 4},
	}
	p := newPassStats(false)
	r.check(0, right, p)
	if p.correct != 3 || p.wrong != 0 || p.steps != 20 {
		t.Fatalf("right answers scored %+v", p)
	}
	wrong := []engine.Answer{
		{Results: []cascade.Result{{Node: 0, Key: 6, Payload: 1}}},
		{Region: 2},
		{Cell: 4, Err: errors.New("boom")},
	}
	p = newPassStats(false)
	r.check(0, wrong, p)
	if p.correct != 0 || p.wrong != 2 || p.failed != 1 {
		t.Fatalf("wrong answers scored %+v", p)
	}
}

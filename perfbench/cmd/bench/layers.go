package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// runLayers runs the layer arms (cmd/layers) as a supervised child on the
// same seed and data — the daemon's snapshot for served workloads — with
// the engine batch geometry the measured program ran (batch queries per
// engine batch, splitting procs simulated processors), and merges the
// figures it prints into m. The arms only fill metrics the runner has not
// measured itself.
func runLayers(ctx context.Context, sup *supervisor, o *options, snap string, batch, procs int, m map[string]float64) error {
	stdout, err := os.Create(filepath.Join(o.workdir, "layers.json"))
	if err != nil {
		return err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(o.workdir, "layers.log"))
	if err != nil {
		return err
	}
	defer stderr.Close()
	args := []string{
		"-workload", o.w.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(int(o.seconds.Seconds())), "-snapshot", snap, "-dir", o.workdir,
		"-batch", strconv.Itoa(batch), "-procs", strconv.Itoa(procs),
		"-spans", filepath.Join(o.results, fmt.Sprintf("%s-seed%d-layer-spans.jsonl", o.w.Name, o.seed)),
	}
	c, err := sup.start("layers", filepath.Join(o.bin, "layers"), args, stdout, stderr)
	if err != nil {
		return err
	}
	defer sup.stop(c)
	select {
	case <-c.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if c.err != nil {
		b, _ := os.ReadFile(stderr.Name())
		return fmt.Errorf("layer arms: %v\n%s", c.err, b)
	}
	b, err := os.ReadFile(stdout.Name())
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var got map[string]float64
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		return fmt.Errorf("layer arms output: %w", err)
	}
	for k, v := range got {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return nil
}

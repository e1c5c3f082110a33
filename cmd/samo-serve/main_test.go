package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeMLP runs the full pipeline — train, checkpoint handoff into the
// forward-only state, concurrent serving — and relies on run's own bitwise
// verification against the offline forward.
func TestSmokeMLP(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "smoke", "-model", "mlp", "-hidden", "16",
		"-requests", "12", "-concurrency", "4", "-max-batch", "4",
		"-train-iters", "2", "-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestSmokeGPTSAMO exercises the compressed-checkpoint handoff.
func TestSmokeGPTSAMO(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "smoke", "-samo", "-hidden", "16",
		"-requests", "8", "-concurrency", "2", "-max-batch", "2",
		"-train-iters", "1", "-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestLoadtestReport checks the report lands where -out points, with the
// fields the bench gate reads.
func TestLoadtestReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	var out bytes.Buffer
	err := run([]string{"-mode", "loadtest", "-model", "mlp", "-hidden", "16",
		"-requests", "24", "-concurrency", "4", "-max-batch", "4",
		"-train-iters", "1", "-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"p50_ms", "p99_ms", "throughput_rps", "requests"} {
		if _, ok := rep[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, blob)
		}
	}
}

// TestBadFlags pins the error paths: unknown mode, model and flag.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-model", "nope"},
		{"-not-a-flag"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
	// -h prints usage and exits cleanly.
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-mode") {
		t.Fatal("usage output missing flags")
	}
}

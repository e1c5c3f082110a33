package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeMLP runs the full pipeline — train, checkpoint handoff into the
// forward-only state, concurrent serving — and relies on run's own bitwise
// verification against the offline forward.
func TestSmokeMLP(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "mlp", "-hidden", "16",
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
	err := run([]string{"-samo", "-hidden", "16",
		"-requests", "8", "-concurrency", "2", "-max-batch", "2",
		"-train-iters", "1", "-checkpoint-dir", t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "smoke ok") {
		t.Fatalf("missing smoke verdict in output:\n%s", out.String())
	}
}

// TestBadFlags pins the error paths: unknown model and flag, model shapes
// the builders would panic on (a width the 4 heads do not divide, a zero
// width, a negative depth), and runs that would serve nothing or panic on a
// negative count, each refused before any model is built.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "nope"},
		{"-not-a-flag"},
		{"-hidden", "30"},
		{"-hidden", "0"},
		{"-model", "mlp", "-hidden", "0"},
		{"-layers", "-1"},
		{"-model", "mlp", "-layers", "-1"},
		{"-requests", "-1"},
		{"-requests", "0"},
		{"-concurrency", "0"},
		{"-train-iters", "-1"},
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
	if !strings.Contains(out.String(), "-model") {
		t.Fatal("usage output missing flags")
	}
}

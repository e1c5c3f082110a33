package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunSmoke walks the whole quickstart — build, prune, SAMO state,
// memory ledger, a few training steps — at a tiny step count, then the
// CSR model's gradual ramp, whose ledger must shrink.
func TestRunSmoke(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-steps", "5"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := buf.String()
	for _, want := range []string{"pruned to 90% sparsity", "model-state memory", "final loss",
		"CSR loss after the ramp"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	var before, after int64
	if _, err := fmt.Sscanf(got[strings.Index(got, "CSR model state at 90%"):],
		"CSR model state at 90%%: %d bytes", &before); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(got[strings.Index(got, "CSR model state after"):],
		"CSR model state after the ramp to 95%%: %d bytes", &after); err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("ramp to 95%% left the ledger at %d bytes, was %d", after, before)
	}
}

package main

import (
	"strings"
	"testing"
)

// TestRunSmoke regenerates the two analytic (non-training) experiments and
// checks that both sections arrive on the writer.
func TestRunSmoke(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-exp", "memory,table1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := buf.String(); len(got) == 0 {
		t.Fatal("no experiment output")
	}
}

// TestRunMemoryPlan prints the memory experiment and checks its order:
// the plan table's header, one row per Table I model, then the 2.7B
// headline and the break-even line.
func TestRunMemoryPlan(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-exp", "memory"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := []string{"Memory plan", "model", "WideResnet-101", "VGG-19", "GPT-3 XL", "GPT-3 2.7B ",
		"GPT-3 6.7B", "GPT-3 13B", "GPT-3 2.7B model states", "analytical break-even sparsity"}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

// TestRunRejectsBadFlag pins the error path for unknown flags.
func TestRunRejectsBadFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("expected flag parse error")
	}
}

// TestRunUnknownExperiment pins the error path: a bad name must return an
// error listing the valid experiments, not exit the process.
func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-exp", "fig99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("expected unknown-experiment error, got %v", err)
	}
}

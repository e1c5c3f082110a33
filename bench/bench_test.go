package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifest pins BENCHMARK.json to the tables in metrics.go and the
// tables to the benchmark contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	if n := len(workloads()); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads() {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("metric %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
			}
			hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload at a tiny run length, end to end and
// traced, and checks that each prints every metric of its table by name
// with the table's unit, ends with the contract's JSON object, fails no
// correctness check, and that the span file reproduces the per-layer table.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		trace string
		table []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		spans := t.TempDir() + "/spans.jsonl"
		err := run([]string{"-workload", "all", "-seed", "3", "-seconds", "0.2", "-trace", mode.trace,
			"-tmpdir", t.TempDir(), "-spans", spans}, &out)
		if err != nil {
			t.Fatalf("trace=%s: %v\n%s", mode.trace, err, out.String())
		}
		text := out.String()
		for _, w := range workloads() {
			for _, m := range mode.table {
				re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.name+" "+m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + ` n=\d+$`)
				if !re.MatchString(text) {
					t.Errorf("trace=%s: no line for %s %s with unit %s", mode.trace, w.name, m.Name, m.Unit)
				}
			}
		}
		if n := strings.Count(text, `{"correct":true,"attempted":`); n != len(workloads()) {
			t.Errorf("trace=%s: %d correct result objects, want %d\n%s", mode.trace, n, len(workloads()), text)
		}
		if mode.trace == "1" {
			var replayed bytes.Buffer
			if err := run([]string{"-replay", spans}, &replayed); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(replayed.String()), "\n") {
				if !strings.Contains(text, line+"\n") {
					t.Errorf("replayed table line not in the traced run's output: %q", line)
				}
			}
			if replayed.Len() == 0 {
				t.Error("span file replayed to an empty table")
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	mk := func(step int, name, parent string, start, end int64) span {
		return span{Workload: "w", Step: step, Name: name, Parent: parent, StartNs: start * 1e6, EndNs: end * 1e6}
	}
	spans := []span{
		mk(0, rootSpan, "", 0, 10), mk(0, "a", rootSpan, 0, 6), mk(0, "b", "a", 1, 3), mk(0, "b", "a", 4, 5),
		mk(1, rootSpan, "", 10, 20), mk(1, "a", rootSpan, 10, 18), mk(1, "b", "a", 11, 14),
	}
	rows, stepMs, un := selfTimes(spans)
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Name] = r.SelfMs
	}
	// Nearest-rank medians over the two steps: a = {3, 5}, b = {3, 3}, root = {4, 2}.
	if got["a"] != 3 || got["b"] != 3 || got[rootSpan] != 2 || stepMs != 10 {
		t.Errorf("self times %v step %g", got, stepMs)
	}
	if want := (4.0 + 2.0) / 20.0; un != want {
		t.Errorf("unattributed %g, want %g", un, want)
	}
}

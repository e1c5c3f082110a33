package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one step or request share
// (Workload, Step); Parent names the enclosing span of the same step, ""
// for a step's root.
type span struct {
	Workload string `json:"workload"`
	Step     int    `json:"step"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// rootSpan is the name of the span that covers a whole step or request.
const rootSpan = "step"

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run shares the traced run's code. The mutex is
// for the serving workload, whose requests finish on their own goroutines.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span.
func (t *tracer) add(step int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Workload: t.workload, Step: step, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading spans: %w", err)
		}
		out = append(out, s)
	}
}

// selfRow is one line of the per-layer table: a span name's self time per
// step (its spans' duration less the part its child spans cover).
type selfRow struct {
	Name     string
	SelfMs   float64 // median over steps
	Share    float64 // of the median step
	PerStep  float64 // spans per step
	stepSelf []float64
}

// selfTimes folds one workload's spans into per-name self times. A child
// is charged to the span its Parent names within the same step, so a
// layer's row never double-counts what it called. It returns the rows
// sorted by self time, the median root duration, and the share of the root
// that no child accounts for.
func selfTimes(spans []span) (rows []selfRow, stepMs, unattributed float64) {
	type key struct {
		step int
		name string
	}
	dur := map[key]float64{}
	child := map[key]float64{}
	count := map[string]int{}
	steps := map[int]bool{}
	for _, s := range spans {
		d := float64(s.EndNs-s.StartNs) / 1e6
		dur[key{s.Step, s.Name}] += d
		if s.Name != rootSpan {
			child[key{s.Step, s.Parent}] += d
		}
		count[s.Name]++
		steps[s.Step] = true
	}
	byName := map[string]*selfRow{}
	for k, d := range dur {
		r := byName[k.name]
		if r == nil {
			r = &selfRow{Name: k.name}
			byName[k.name] = r
		}
		r.stepSelf = append(r.stepSelf, d-child[k])
	}
	var roots, rootSelf []float64
	if r := byName[rootSpan]; r != nil {
		rootSelf = r.stepSelf
		for st := range steps {
			roots = append(roots, dur[key{st, rootSpan}])
		}
	}
	stepMs = median(roots)
	for _, r := range byName {
		// A name absent from some steps (a checkpoint, a prune event)
		// contributes zero there.
		for len(r.stepSelf) < len(steps) {
			r.stepSelf = append(r.stepSelf, 0)
		}
		r.SelfMs = median(r.stepSelf)
		if stepMs > 0 {
			r.Share = r.SelfMs / stepMs
		}
		r.PerStep = float64(count[r.Name]) / float64(len(steps))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Name < rows[j].Name
	})
	if s := sum(roots); s > 0 {
		unattributed = sum(rootSelf) / s
	}
	return rows, stepMs, unattributed
}

// printSelfTable prints the per-layer table of one workload's spans; the
// -replay flag prints the same table from a span file.
func printSelfTable(w io.Writer, workload string, spans []span) {
	rows, stepMs, un := selfTimes(spans)
	fmt.Fprintf(w, "# %s per-layer self time (median per step; traced step %.3f ms, unattributed %.4f)\n", workload, stepMs, un)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-28s %10.4f ms  %6.2f%%  %.1f spans/step\n", r.Name, r.SelfMs, 100*r.Share, r.PerStep)
	}
}

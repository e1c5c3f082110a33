package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

type value struct {
	v float64
	n int // samples behind the value
}

// result is what one run of one workload prints.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // failed correctness checks
	metrics   map[string]value
	info      []string // printed as "# ..." lines; never parsed
	hash      uint64   // FNV of the loss bits (training workloads)
	finalLoss float64
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) {
	if _, ok := unitOf[name]; !ok {
		panic("bench: metric " + name + " is not in the metric table")
	}
	r.metrics[name] = value{v, n}
}

// setOps reports the timing metrics of a measured window of operations
// (training steps, or open-loop requests) and the set-ups before it. perS
// is the window's throughput — training samples or closed-loop requests
// per second — which, like the median and p90, is information only.
func (r *result) setOps(setups, ops []interval, perS float64) {
	r.set("setup_s", median(rawMs(setups))/1e3, len(setups))
	raw := rawMs(ops)
	r.set("op_ms_floor", floor(raw), len(raw))
	r.infof("wall clock over %d operations: op_ms_p50 %.4f op_ms_p90 %.4f throughput_per_s %.4f (information: they move with the machine's neighbours, see README)",
		len(raw), median(raw), quantile(raw, 0.9), perS)
}

// setWall reports the wall-clock per-layer metrics of the traced run's
// untraced pass: median and p90 operation, and units per second.
func (r *result) setWall(ops []interval, perS float64) {
	raw := rawMs(ops)
	r.set("wall.op_ms_p50", median(raw), len(raw))
	r.set("wall.op_ms_p90", quantile(raw, 0.9), len(raw))
	r.set("wall.throughput_per_s", perS, len(raw))
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// check records a failed correctness check. A workload with any failed
// check reports every operation as failed.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// checkLosses applies the training correctness checks: every loss finite
// (each that is not counts as one failed step) and the run learning — mean
// of the last ten below mean of the first ten.
func (r *result) checkLosses(losses []float64) {
	r.attempted = len(losses)
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			r.failed++
		}
	}
	r.check(r.failed == 0, "%d non-finite losses", r.failed)
	r.hash = lossHash(losses)
	if n := len(losses); n > 0 {
		r.finalLoss = losses[n-1]
	}
	// The learning check needs two disjoint windows of ten; a shorter run
	// (the smoke test's) only has its hash printed.
	const k = 10
	if len(losses) >= 2*k {
		first, last := mean(losses[:k]), mean(losses[len(losses)-k:])
		r.check(last < first, "loss did not fall: first %d mean %.4f, last %d mean %.4f", k, first, k, last)
		r.infof("loss first-%d mean %.4f last-%d mean %.4f", k, first, k, last)
	}
	r.infof("loss hash %016x final %.6f", r.hash, r.finalLoss)
}

// print writes one line per metric of the given table, then the JSON object
// the benchmark contract asks for as the last line.
func (r *result) print(w io.Writer, table []metricDef) error {
	for _, l := range r.info {
		fmt.Fprintf(w, "# %s %s\n", r.workload, l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s FAILED CHECK: %s\n", r.workload, p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	for _, m := range table {
		v := r.metrics[m.Name] // a metric that does not apply to this workload prints 0
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.workload, m.Name, v.v, m.Unit, v.n)
		out.Metrics[m.Name] = jsonMetric{v.v, m.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

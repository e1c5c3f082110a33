package main

import (
	"fmt"
	"io"
	"math"
)

// runAA runs the selected workloads n times back to back with the same
// seed and prints, for every end-to-end metric of every workload, how far
// the runs disagree beside the metric's bound. It is how the bounds in
// metrics.go are confirmed or corrected: a spread above the bound means
// the metric cannot resolve a regression of that size on this machine.
//
// With two runs the spread is |a-b| over their mean; with more it is the
// distance between the first and third quartile over the median. Exact
// counts and the loss hashes of the bitwise-deterministic workloads must
// repeat exactly.
func runAA(out io.Writer, selected []workload, c runCtx, n int) error {
	if n < 2 {
		n = 2
	}
	table := endToEnd
	if c.trace {
		table = perLayer
	}
	unresolved := 0
	for _, w := range selected {
		var runs []*result
		for i := 0; i < n; i++ {
			res, err := runOne(w, c)
			if err != nil {
				return err
			}
			if err := res.print(out, table); err != nil {
				return err
			}
			runs = append(runs, res)
		}
		for _, m := range table {
			vals := make([]float64, n)
			for i, r := range runs {
				vals[i] = r.metrics[m.Name].v
			}
			spread := relSpread(vals)
			verdict := "PASS"
			switch {
			case c.trace, m.Name == "heap_live_bytes":
				// Runs share this process: a later one inherits the pools
				// and arenas the earlier ones filled, so its live heap is
				// only comparable between fresh processes.
				verdict = "-"
			case spread > m.Bound:
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Fprintf(out, "aa %s %s spread=%.4f bound=%.2f median=%.6g %s %s\n", w.name, m.Name, spread, m.Bound, median(vals), m.Unit, verdict)
		}
		// Workloads whose arithmetic never depends on a frozen tuner
		// choice are bitwise-reproducible; the sparse-exec pair is not
		// (the crossover's two paths sum in different orders) and is held
		// to 2% on the final loss.
		same := true
		for _, r := range runs {
			same = same && r.hash == runs[0].hash
		}
		lossSpread := 0.0
		for _, r := range runs {
			lossSpread = math.Max(lossSpread, math.Abs(r.finalLoss-runs[0].finalLoss)/math.Abs(runs[0].finalLoss+1e-30))
		}
		switch w.name {
		case wS90, wS50:
			fmt.Fprintf(out, "aa %s final-loss spread %.5f (tolerance 0.02) %s\n", w.name, lossSpread, passIf(lossSpread <= 0.02, &unresolved))
		case wServe:
		default:
			fmt.Fprintf(out, "aa %s loss hash %016x identical=%v %s\n", w.name, runs[0].hash, same, passIf(same, &unresolved))
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(out, "aa: %d comparisons UNRESOLVED\n", unresolved)
	}
	return nil
}

func passIf(ok bool, unresolved *int) string {
	if ok {
		return "PASS"
	}
	*unresolved++
	return "UNRESOLVED"
}

// relSpread is the disagreement of repeated measurements of one metric as a
// share of their middle value.
func relSpread(vals []float64) float64 {
	mid := median(vals)
	if len(vals) == 2 {
		mid = mean(vals)
	}
	if mid == 0 {
		return 0
	}
	if len(vals) < 4 {
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return (hi - lo) / math.Abs(mid)
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / math.Abs(mid)
}

package main

import (
	"time"

	"github.com/sparse-dl/samo/internal/optim"
)

// timedOpt wraps an optimizer from outside: it accumulates the time spent
// in Step, stamps the first Step of every batch (the only per-batch call
// the engine makes into code the benchmark can substitute, so it is the
// step boundary for axonn.Train runs), and — in a traced run — records a
// span per call. One wrapper belongs to one rank goroutine.
//
// An overflow-skipped batch makes no Step call and therefore no stamp; the
// loss scaler's 2000-step growth interval keeps skips inside the warm-up.
type timedOpt struct {
	optim.Optimizer

	firstKey string
	stamps   []time.Time // first Step call of each applied batch
	busy     time.Duration
	calls    int

	tr     *tracer
	parent string
}

func newTimedOpt(inner optim.Optimizer, tr *tracer, parent string) *timedOpt {
	return &timedOpt{Optimizer: inner, tr: tr, parent: parent, stamps: make([]time.Time, 0, 1024)}
}

func (o *timedOpt) Step(key string, params, grads []float32) {
	t0 := time.Now()
	if o.firstKey == "" {
		o.firstKey = key
	}
	if key == o.firstKey {
		o.stamps = append(o.stamps, t0)
	}
	o.Optimizer.Step(key, params, grads)
	t1 := time.Now()
	o.busy += t1.Sub(t0)
	o.calls++
	o.tr.add(len(o.stamps)-1, "optim.step", o.parent, t0, t1)
}

// steps returns the intervals between consecutive stamps from index `from`
// on: step i runs from batch i's optimizer entry to batch i+1's, so it
// holds the end of batch i (its prune event and checkpoint, when it has
// them) and most of batch i+1.
func (o *timedOpt) steps(from int) []interval {
	var out []interval
	for i := from; i+1 < len(o.stamps); i++ {
		out = append(out, interval{o.stamps[i], o.stamps[i+1]})
	}
	return out
}

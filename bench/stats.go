package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of vals (which it sorts a
// copy of); 0 for an empty sample so a metric that does not apply to a
// workload still prints.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// floor is the mean of the fastest 5% of vals (at least three): the time an
// operation takes when nothing outside the program disturbs it. On the
// shared two-vCPU VMs this benchmark runs on, the step-time distribution is
// bimodal — an undisturbed mode and one about 1.6x slower whose share moves
// with the neighbours over tens of seconds — so medians of two runs of the
// same binary differ by 10-30%, while the fast tail stays within a few
// percent: interference only ever adds time.
func floor(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s) / 20
	if n < 3 {
		n = 3
	}
	if n > len(s) {
		n = len(s)
	}
	return mean(s[:n])
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func sum(vals []float64) float64 { return mean(vals) * float64(len(vals)) }

// lossHash is FNV-1a over the IEEE-754 bits of every loss in order: two
// runs of bitwise-identical training print the same hash.
func lossHash(losses []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range losses {
		u := math.Float64bits(l)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// heapSampler reports the live heap of the measured window: it forces a
// collection eight times per run length and reads /gc/heap/live:bytes — what
// that collection found reachable — right after each; the metric is the
// median reading.
//
// Forcing the collections is what makes the number repeat. Left alone, the
// heap in use (runtime.MemStats.HeapInuse) is a sawtooth whose teeth depend
// on when the collector happened to run — the serving workload's peaked at
// 35-61 MB over eight runs of one binary — and even the live reading of an
// unforced cycle swings with how much was allocated while it marked, or
// goes stale when a run has only a handful of cycles (the hybrid engine's
// median moved 22%). A forced collection costs the operations it overlaps a
// few milliseconds; the gated time is the floor of the operations, which
// the handful it touches cannot move.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	live []float64
}

func startHeapSampler(seconds float64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Duration(seconds / 8 * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	h.live = append(h.live, float64(live[0].Value.Uint64()))
}

// report ends sampling and sets heap_live_bytes.
func (h *heapSampler) report(res *result) {
	close(h.stop)
	h.wg.Wait()
	res.set("heap_live_bytes", median(h.live), len(h.live))
	res.infof("live heap at %d forced collections: median %.0f min %.0f max %.0f bytes", len(h.live), median(h.live), quantile(h.live, 0), quantile(h.live, 1))
}

// interval is when one operation ran.
type interval struct{ start, end time.Time }

// rawMs returns the length of each interval in milliseconds.
func rawMs(ops []interval) []float64 {
	raw := make([]float64, len(ops))
	for i, op := range ops {
		raw[i] = ms(op.end.Sub(op.start))
	}
	return raw
}

package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/tensor"
)

// Report is one load-test result, shaped for BENCH_serving.json: latency
// quantiles and throughput, plus the batching counters that explain them
// (a mean batch near 1 means forwards kept up with arrivals and nothing
// queued; padded samples and the arena bytes retained per bucket are the
// price of power-of-two buckets).
type Report struct {
	Model         string  `json:"model"`
	Requests      int     `json:"requests"`
	Concurrency   int     `json:"concurrency"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	Batches       int64   `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	PaddedSamples int64   `json:"padded_samples"`
	ArenaBytes    int64   `json:"arena_bytes"`
	Retries       int64   `json:"retries"` // ErrOverloaded rejections retried
}

// LoadTest drives the engine with `concurrency` goroutines issuing
// `requests` single-sample inferences total; sample(i) supplies the i-th
// input (called once per request, any order). Backpressure rejections are
// retried with capped exponential backoff — the load test measures the
// engine under saturation, it does not shed — and each retry is counted.
// Latency is measured around the whole submit-to-response round trip, the
// number a client would see.
func LoadTest(e *Engine, model string, sample func(i int) *tensor.Tensor, requests, concurrency int) (*Report, error) {
	if requests < 1 || concurrency < 1 {
		return nil, fmt.Errorf("serve: LoadTest needs requests ≥ 1 and concurrency ≥ 1 (got %d, %d)", requests, concurrency)
	}
	latencies := make([]float64, requests) // ms, indexed by request
	var next, retries atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				x := sample(i)
				backoff := 50 * time.Microsecond
				t0 := time.Now()
				for {
					_, err := e.Infer(x)
					if err == nil {
						break
					}
					if err != ErrOverloaded {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					retries.Add(1)
					time.Sleep(backoff)
					if backoff < 5*time.Millisecond {
						backoff *= 2
					}
				}
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}

	sort.Float64s(latencies)
	st := e.Stats()
	return &Report{
		Model:         model,
		Requests:      requests,
		Concurrency:   concurrency,
		WallSeconds:   wall.Seconds(),
		ThroughputRPS: float64(requests) / wall.Seconds(),
		P50Ms:         percentile(latencies, 0.50),
		P99Ms:         percentile(latencies, 0.99),
		Batches:       st.Batches,
		MeanBatch:     st.MeanBatch(),
		PaddedSamples: st.PaddedSamples,
		ArenaBytes:    st.ArenaBytes,
		Retries:       retries.Load(),
	}, nil
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

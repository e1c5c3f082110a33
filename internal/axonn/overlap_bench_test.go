package axonn

import (
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/core"
)

// BenchmarkOverlapStep measures the per-step cost of the serial-barrier
// reduce vs the backward-overlapped reduce, on both transports. scripts/
// bench.sh turns the serial/overlap ratio into the overlap_step_speedup
// matrix in BENCH_comm.json (warn-only: on a single hardware thread the
// async lane has nothing to overlap against and the ratio measures
// scheduler overhead, not the schedule).
func BenchmarkOverlapStep(b *testing.B) {
	base := Config{
		Ginter: 2, Gdata: 2, Microbatch: 2,
		Mode:               core.Dense,
		ReduceBucketElems:  64, // several buckets in flight on the tiny MLP
		CollectiveDeadline: 60 * time.Second,
	}
	for _, bc := range []struct {
		name    string
		overlap bool
	}{{"serial", false}, {"overlap", true}} {
		cfg := base
		cfg.OverlapReduce = bc.overlap
		b.Run("local/"+bc.name, func(b *testing.B) {
			benchOverlapLocal(b, cfg)
		})
		b.Run("tcp/"+bc.name, func(b *testing.B) {
			benchOverlapTCP(b, cfg)
		})
	}
}

func benchOverlapLocal(b *testing.B, cfg Config) {
	bt := makeBatches(1, 16, 4100)[0]
	batches := make([]Batch, b.N)
	for i := range batches {
		batches[i] = bt
	}
	b.ReportAllocs()
	b.ResetTimer()
	res := Train(cfg, mlpBuilder(43), adamBuilder(), nil, batches)
	b.StopTimer()
	if res.Err != nil {
		b.Fatal(res.Err)
	}
}

func benchOverlapTCP(b *testing.B, cfg Config) {
	bt := makeBatches(1, 16, 4100)[0]
	batches := make([]Batch, b.N)
	for i := range batches {
		batches[i] = bt
	}
	n := cfg.GPUs()
	addrs := freeLoopbackAddrs(b, n)
	results := make([]Result, n)
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := cfg
			c.Net = &NetConfig{Peers: addrs, Proc: p, DialTimeout: 60 * time.Second}
			results[p] = Train(c, mlpBuilder(43), adamBuilder(), nil, batches)
		}(p)
	}
	wg.Wait()
	b.StopTimer()
	for p := range results {
		if results[p].Err != nil {
			b.Fatalf("proc %d: %v", p, results[p].Err)
		}
		if results[p].Fabric != nil {
			results[p].Fabric.Close()
		}
	}
}

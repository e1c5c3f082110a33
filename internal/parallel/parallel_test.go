package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversRange: Run's static partition visits every index of [0, n)
// exactly once.
func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 4096} {
		var hits atomic.Int64
		seen := make([]int32, n)
		Run(n, 1, nil, func(_ any, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
				hits.Add(1)
			}
		})
		if int(hits.Load()) != n {
			t.Fatalf("n=%d: covered %d iterations", n, hits.Load())
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestRunSerialWhenSmall(t *testing.T) {
	// Below the grain the whole range must run on the caller (one chunk).
	var chunks atomic.Int64
	Run(10, 100, nil, func(_ any, lo, hi int) {
		chunks.Add(1)
		if lo != 0 || hi != 10 {
			t.Errorf("expected single chunk [0,10), got [%d,%d)", lo, hi)
		}
	})
	if chunks.Load() != 1 {
		t.Fatalf("expected 1 chunk, got %d", chunks.Load())
	}
}

func TestSetWorkers(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", prev)
	}
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetWorkers(0) should reset to GOMAXPROCS, got %d", Workers())
	}
}

// TestNestedRun exercises Run called from inside a pool task. The helping
// wait must keep the pool deadlock-free even when nesting depth exceeds the
// worker count.
func TestNestedRun(t *testing.T) {
	var total atomic.Int64
	Run(32, 1, nil, func(_ any, lo, hi int) {
		for i := lo; i < hi; i++ {
			Run(64, 1, nil, func(_ any, l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 32*64 {
		t.Fatalf("nested iterations = %d, want %d", total.Load(), 32*64)
	}
}

// TestPoolRaceStress hammers the pool from many goroutines while SetWorkers
// flips concurrently — run under -race this is the regression test for the
// seed's unsynchronized maxWorkers write.
func TestPoolRaceStress(t *testing.T) {
	const goroutines = 8
	const iters = 200
	stop := make(chan struct{})
	flipperDone := make(chan struct{})
	go func() {
		defer close(flipperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetWorkers(1 + i%7)
			runtime.Gosched()
		}
	}()
	var sum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]int64, 512)
			for it := 0; it < iters; it++ {
				Run(len(buf), 16, nil, func(_ any, lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i] = int64(seed + it + i)
					}
				})
				var local int64
				for _, v := range buf {
					local += v
				}
				sum.Add(local)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipperDone
	SetWorkers(0)
	if sum.Load() == 0 {
		t.Fatal("stress produced no work")
	}
}

func TestRunZeroAlloc(t *testing.T) {
	// Warm the pool and the pending free list.
	ctx := new(int)
	fn := func(_ any, lo, hi int) {}
	Run(1024, 1, ctx, fn)
	allocs := testing.AllocsPerRun(100, func() {
		Run(1024, 1, ctx, fn)
	})
	if allocs != 0 {
		t.Fatalf("Run allocated %.1f times per call, want 0", allocs)
	}
}

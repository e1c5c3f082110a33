package axonn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Overlap determinism suite. The contract under test: Config.OverlapReduce
// changes WHEN bucket all-reduces run (behind the backward pass) but never
// WHAT they compute — both paths consume the identical plan-ordered bucket
// list, so losses and stage states are bitwise-identical overlap-on vs
// overlap-off, at every worker count, on both transports.

// overlapBucketElems forces several buckets even on the tiny test MLP
// (per-parameter tensors are 4–80 elements), so the overlapped path really
// pipelines multiple in-flight reduces instead of degenerating to one.
const overlapBucketElems = 16

func assertTrainBitwise(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Err != nil || got.Err != nil {
		t.Fatalf("%s: errs want=%v got=%v", label, want.Err, got.Err)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%s: %d losses, want %d", label, len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		if math.Float64bits(got.Losses[i]) != math.Float64bits(want.Losses[i]) {
			t.Fatalf("%s: loss[%d] = %x, want %x (must be bitwise)", label, i,
				math.Float64bits(got.Losses[i]), math.Float64bits(want.Losses[i]))
		}
	}
	if got.SkippedSteps != want.SkippedSteps {
		t.Fatalf("%s: skipped %d, want %d", label, got.SkippedSteps, want.SkippedSteps)
	}
	for s := range want.StageStates {
		if !bytes.Equal(got.StageStates[s], want.StageStates[s]) {
			t.Fatalf("%s: stage %d state diverged", label, s)
		}
	}
}

// TestOverlapReduceBitwiseWorkerSweep pins overlap-on ≡ overlap-off at every
// acceptance worker count. Pure data parallelism: worker count == Gdata.
func TestOverlapReduceBitwiseWorkerSweep(t *testing.T) {
	for _, gdata := range []int{1, 2, 3, 4, 8, 16} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			t.Parallel()
			// 48 samples divide evenly by every gdata in the sweep.
			batches := makeBatches(3, 48, uint64(2000+gdata))
			cfg := Config{
				Ginter: 1, Gdata: gdata, Microbatch: 1,
				Mode:              core.Dense,
				ReduceBucketElems: overlapBucketElems,
			}
			off := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
			cfg.OverlapReduce = true
			on := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
			assertTrainBitwise(t, fmt.Sprintf("gdata=%d", gdata), off, on)
		})
	}
}

// TestBucketPlanBitwiseGdata3 pins the reduced sums to the data, not to the
// bucket plan: at Gdata 3, where chunks split unevenly, training with no
// reduce option to pick gives bitwise-equal losses and stage states with
// small and default buckets, overlap off and on. Group g's input rows are
// scaled by 2^(10(g−1)), so the three fp16-grid gradients of one element
// lie up to 2^20 apart and their float32 sum rounds: a reduce whose
// summation order followed the chunk boundaries (a ring) moves the last
// bits as soon as the bucket lengths change. (Gradients of similar size sum
// exactly, in any order.) The low initial loss scale only saves the
// overflow-skipped warm-up steps.
func TestBucketPlanBitwiseGdata3(t *testing.T) {
	const gdata = 3
	batches := makeBatches(4, 48, 2050)
	for _, b := range batches {
		x := b.Input.Data()
		shard := len(x) / gdata
		for g := 0; g < gdata; g++ {
			part := x[g*shard : (g+1)*shard]
			for i := range part {
				part[i] *= float32(math.Ldexp(1, 10*(g-1)))
			}
		}
	}
	var want Result
	for i, elems := range []int{overlapBucketElems, 0} {
		for _, overlap := range []bool{false, true} {
			cfg := Config{Ginter: 1, Gdata: gdata, Microbatch: 1, Mode: core.Dense,
				ReduceBucketElems: elems, OverlapReduce: overlap, InitialLossScale: 1024}
			got := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
			if i == 0 && !overlap {
				want = got
				continue
			}
			assertTrainBitwise(t, fmt.Sprintf("bucket elems %d, overlap %v", elems, overlap), want, got)
		}
	}
	if want.SkippedSteps == len(batches) {
		t.Fatal("every step skipped: nothing was summed")
	}
}

// TestOverlapReduceBitwiseHybridSAMO pins the overlap contract in the full
// hybrid layout — pipeline stages × data groups, multiple microbatches,
// SAMO-compressed gradients — where bucket launches interleave with p2p
// activation traffic on the same ranks.
func TestOverlapReduceBitwiseHybridSAMO(t *testing.T) {
	batches := makeBatches(4, 8, 2100)
	pr := pruneMLP(33, 0.5)
	for _, mode := range []core.Mode{core.Dense, core.SAMO} {
		mode := mode
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			ticket := pr
			if mode == core.Dense {
				ticket = nil
			}
			cfg := Config{
				Ginter: 2, Gdata: 2, Microbatch: 2,
				Mode:              mode,
				ReduceBucketElems: overlapBucketElems,
			}
			off := Train(cfg, mlpBuilder(33), adamBuilder(), ticket, batches)
			cfg.OverlapReduce = true
			on := Train(cfg, mlpBuilder(33), adamBuilder(), ticket, batches)
			assertTrainBitwise(t, fmt.Sprintf("hybrid mode=%v", mode), off, on)
		})
	}
}

// TestOverlapReduceOverTCPBitwise drives the overlapped path with every
// collective crossing a real TCP wire — one process per rank — and requires
// bitwise identity with the serial-reduce local golden at worker counts 2
// and 4.
func TestOverlapReduceOverTCPBitwise(t *testing.T) {
	for _, gdata := range []int{2, 4} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			cfg := Config{
				Ginter: 1, Gdata: gdata, Microbatch: 2,
				Mode:               core.Dense,
				ReduceBucketElems:  overlapBucketElems,
				CollectiveDeadline: 15 * time.Second,
			}
			batches := makeBatches(3, 8*gdata, uint64(2200+gdata))
			golden := Train(cfg, mlpBuilder(35), adamBuilder(), nil, batches)
			if golden.Err != nil {
				t.Fatalf("local serial golden: %v", golden.Err)
			}

			cfg.OverlapReduce = true
			n := cfg.GPUs()
			addrs := freeLoopbackAddrs(t, n)
			results := make([]Result, n)
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					c := cfg
					c.Net = &NetConfig{Peers: addrs, Proc: p, DialTimeout: 30 * time.Second}
					results[p] = Train(c, mlpBuilder(35), adamBuilder(), nil, batches)
				}(p)
			}
			wg.Wait()
			for p := range results {
				if results[p].Err != nil {
					t.Fatalf("proc %d: %v", p, results[p].Err)
				}
				if results[p].Fabric != nil {
					defer results[p].Fabric.Close()
				}
			}
			// Ginter=1: rank 0 (process 0) hosts the loss writer and stage 0.
			loss := results[0]
			for i := range golden.Losses {
				if math.Float64bits(loss.Losses[i]) != math.Float64bits(golden.Losses[i]) {
					t.Fatalf("loss[%d] = %x overlapped over tcp, golden %x", i,
						math.Float64bits(loss.Losses[i]), math.Float64bits(golden.Losses[i]))
				}
			}
			if !bytes.Equal(results[0].StageStates[0], golden.StageStates[0]) {
				t.Fatal("stage 0 state differs between overlapped-tcp and serial-local")
			}
		})
	}
}

// TestCrashMidOverlappedReduce injects CrashAtOp while bucket reduces are in
// flight on the async lane: the poison must unwind the worker goroutines
// without deadlock and recovery must land bitwise on the overlapped golden.
// Small buckets mean rank 1 runs many per-batch collectives, so the chosen
// ops land inside the overlapped launch window, between buckets, and at the
// batch-final loss reduce.
func TestCrashMidOverlappedReduce(t *testing.T) {
	overlapCfg := func(dir string) Config {
		c := chaosCfg(dir)
		c.OverlapReduce = true
		c.ReduceBucketElems = overlapBucketElems
		return c
	}
	batches := makeBatches(5, 8, 2300)
	golden := Train(overlapCfg(t.TempDir()), mlpBuilder(37), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	// Cross-check: the overlapped golden itself must match the serial path.
	serialCfg := chaosCfg("")
	serialCfg.ReduceBucketElems = overlapBucketElems
	serial := Train(serialCfg, mlpBuilder(37), adamBuilder(), nil, batches)
	assertTrainBitwise(t, "overlap golden vs serial", serial, golden)

	for _, op := range []int{0, 1, 2, 5, 9} {
		op := op
		t.Run(fmt.Sprintf("crash-op-%d", op), func(t *testing.T) {
			t.Parallel()
			cfg := overlapCfg(t.TempDir())
			cfg.Fault = &comm.FaultPlan{CrashAtOp: map[int]int{1: op}}
			res := Train(cfg, mlpBuilder(37), adamBuilder(), nil, batches)
			if res.Restarts == 0 {
				t.Fatalf("fault did not fire (err: %v)", res.Err)
			}
			assertBitwiseEqual(t, golden, res)
		})
	}
}

// TestDP2OverTCPStateBitsPinned trains the dense data-parallel MLP's shape
// (256-768-768-768-32, Adam, microbatch 4, Gdata 2) over TCP loopback, one
// process per rank, with OverlapReduce off and on, and pins the losses and
// the saved state to a hash recorded while the gradient all-reduce still
// sent float32: exchanging the fp16 gradient as half words must not move a
// bit. Its five buckets take every path of the half exchange's kernels,
// including a 768-element bias and the 8-element-multiple bodies.
func TestDP2OverTCPStateBitsPinned(t *testing.T) {
	const want = uint64(0x0db326749ea440f7)
	rng := tensor.NewRNG(46)
	batches := make([]Batch, 4)
	for i := range batches {
		x := tensor.New(8, 256)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, 8)
		for j := range targets {
			targets[j] = rng.Intn(32)
		}
		batches[i] = Batch{Input: x, Targets: targets, SampleRows: 1, Samples: 8}
	}
	build := func() *nn.Model { return nn.BuildMLP("mlp", []int{256, 768, 768, 768, 32}, tensor.NewRNG(7)) }
	for _, overlap := range []bool{false, true} {
		cfg := Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense,
			OverlapReduce: overlap, CollectiveDeadline: 30 * time.Second}
		addrs := freeLoopbackAddrs(t, 2)
		results := make([]Result, 2)
		var wg sync.WaitGroup
		for p := range results {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				c := cfg
				c.Net = &NetConfig{Peers: addrs, Proc: p, DialTimeout: 30 * time.Second}
				results[p] = Train(c, build, adamBuilder(), nil, batches)
			}(p)
		}
		wg.Wait()
		for p, r := range results {
			if r.Fabric != nil {
				defer r.Fabric.Close()
			}
			if r.Err != nil {
				t.Fatalf("overlap %v: proc %d: %v", overlap, p, r.Err)
			}
		}
		h := fnv.New64a()
		for _, l := range results[0].Losses {
			binary.Write(h, binary.LittleEndian, math.Float64bits(l))
		}
		h.Write(results[0].StageStates[0])
		if got := h.Sum64(); got != want {
			t.Errorf("overlap %v: state and loss hash %#016x, want %#016x", overlap, got, want)
		}
	}
}

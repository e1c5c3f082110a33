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

// Data-parallel reduce suite. Each stage all-reduces its one ∇θ16 slab per
// step, after the shard's last backward, and every reduce returns the serial
// data-group-ordered sum: the bits depend on the data alone, not on the
// transport, the worker count or the ignored OverlapReduce field.

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

// TestOverlapReduceBitwiseWorkerSweep pins the OverlapReduce field to what
// its doc says, ignored: setting it moves no bit, at every acceptance worker
// count. Pure data parallelism: worker count == Gdata.
func TestOverlapReduceBitwiseWorkerSweep(t *testing.T) {
	for _, gdata := range []int{1, 2, 3, 4, 8, 16} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			t.Parallel()
			// 48 samples divide evenly by every gdata in the sweep.
			batches := makeBatches(3, 48, uint64(2000+gdata))
			cfg := Config{Ginter: 1, Gdata: gdata, Microbatch: 1, Mode: core.Dense}
			off := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
			cfg.OverlapReduce = true
			on := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
			assertTrainBitwise(t, fmt.Sprintf("gdata=%d", gdata), off, on)
		})
	}
}

// stateHash hashes a run's losses and every stage's saved state.
func stateHash(t *testing.T, r Result) uint64 {
	t.Helper()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	h := fnv.New64a()
	for _, l := range r.Losses {
		binary.Write(h, binary.LittleEndian, math.Float64bits(l))
	}
	for _, s := range r.StageStates {
		h.Write(s)
	}
	return h.Sum64()
}

// TestGdata3StateBitsPinned pins the reduced sums to the data, not to how
// the payload is cut: at Gdata 3, where chunks split unevenly, the losses
// and stage state hash to the constant recorded when the engine still
// reduced size-bounded buckets (16-element and default buckets, overlapped
// and serial, all gave it). Group g's input rows are scaled by 2^(10(g−1)),
// so the three fp16-grid gradients of one element lie up to 2^20 apart and
// their float32 sum rounds: a reduce whose summation order followed the
// chunk boundaries (a ring) moves the last bits as soon as the payload
// length changes. (Gradients of similar size sum exactly, in any order.) The
// low initial loss scale only saves the overflow-skipped warm-up steps.
func TestGdata3StateBitsPinned(t *testing.T) {
	const gdata, want = 3, uint64(0xea8cac436e66cd27)
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
	cfg := Config{Ginter: 1, Gdata: gdata, Microbatch: 1, Mode: core.Dense, InitialLossScale: 1024}
	got := Train(cfg, mlpBuilder(31), adamBuilder(), nil, batches)
	if got.SkippedSteps == len(batches) {
		t.Fatal("every step skipped: nothing was summed")
	}
	if h := stateHash(t, got); h != want {
		t.Fatalf("state and loss hash %#016x, want %#016x", h, want)
	}
}

// TestOneGradientReducePerStage pins the reduce schedule: per step, every
// rank enters one gradient all-reduce, the overflow consensus and — on the
// last stage — the loss average, whatever the stage's size. Each stage here
// holds more than 2^18 gradient elements, which a bucketed reduce would cut
// into several collectives.
func TestOneGradientReducePerStage(t *testing.T) {
	const steps = 3
	build := func() *nn.Model { return nn.BuildMLP("mlp", []int{128, 768, 768, 32}, tensor.NewRNG(3)) }
	rng := tensor.NewRNG(4)
	batches := make([]Batch, steps)
	for i := range batches {
		x := tensor.New(8, 128)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, 8)
		for j := range targets {
			targets[j] = int(rng.Uint64() % 32)
		}
		batches[i] = Batch{Input: x, Targets: targets, SampleRows: 1, Samples: 8}
	}
	for _, ginter := range []int{1, 2} {
		cfg := Config{Ginter: ginter, Gdata: 2, Microbatch: 2, Mode: core.Dense}
		res := Train(cfg, build, adamBuilder(), nil, batches)
		if res.Err != nil {
			t.Fatalf("ginter %d: %v", ginter, res.Err)
		}
		for r := 0; r < cfg.GPUs(); r++ {
			want := int64(2 * steps) // gradient + overflow flag
			if r%ginter == ginter-1 {
				want += steps // loss average
			}
			if got := res.Fabric.Stats(r).CollOps.Load(); got != want {
				t.Errorf("ginter %d rank %d: %d collectives in %d steps, want %d", ginter, r, got, steps, want)
			}
		}
	}
}

// TestOverlapReduceBitwiseHybridSAMO pins the ignored OverlapReduce field in
// the full hybrid layout — pipeline stages × data groups, multiple
// microbatches, SAMO-compressed gradients — where the stage reduces follow
// p2p activation traffic on the same ranks.
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
			cfg := Config{Ginter: 2, Gdata: 2, Microbatch: 2, Mode: mode}
			off := Train(cfg, mlpBuilder(33), adamBuilder(), ticket, batches)
			cfg.OverlapReduce = true
			on := Train(cfg, mlpBuilder(33), adamBuilder(), ticket, batches)
			assertTrainBitwise(t, fmt.Sprintf("hybrid mode=%v", mode), off, on)
		})
	}
}

// TestOverlapReduceOverTCPBitwise trains with every collective crossing a
// real TCP wire — one process per rank, OverlapReduce set — and requires
// bitwise identity with the in-process golden at worker counts 2 and 4.
func TestOverlapReduceOverTCPBitwise(t *testing.T) {
	for _, gdata := range []int{2, 4} {
		gdata := gdata
		t.Run(fmt.Sprintf("gdata%d", gdata), func(t *testing.T) {
			cfg := Config{
				Ginter: 1, Gdata: gdata, Microbatch: 2,
				Mode:               core.Dense,
				CollectiveDeadline: 15 * time.Second,
			}
			batches := makeBatches(3, 8*gdata, uint64(2200+gdata))
			golden := Train(cfg, mlpBuilder(35), adamBuilder(), nil, batches)
			if golden.Err != nil {
				t.Fatalf("local golden: %v", golden.Err)
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
					t.Fatalf("loss[%d] = %x over tcp, golden %x", i,
						math.Float64bits(loss.Losses[i]), math.Float64bits(golden.Losses[i]))
				}
			}
			if !bytes.Equal(results[0].StageStates[0], golden.StageStates[0]) {
				t.Fatal("stage 0 state differs between tcp and local")
			}
		})
	}
}

// TestCrashMidGradientReduce injects CrashAtOp at the gradient all-reduce
// itself: rank 1 (last stage, data group 0) enters three collectives per
// batch — the gradient reduce, the overflow consensus, the loss average — so
// ops 0, 3, 6, 9 and 12 are the gradient reduces of batches 0–4, entered
// while rank 3, its stage peer, waits on the same reduce. The poison must
// unwind both without deadlock, and recovery must land bitwise on the
// uninterrupted golden.
func TestCrashMidGradientReduce(t *testing.T) {
	batches := makeBatches(5, 8, 2300)
	golden := Train(chaosCfg(t.TempDir()), mlpBuilder(37), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run: %v", golden.Err)
	}
	for _, op := range []int{0, 3, 6, 9, 12} {
		op := op
		t.Run(fmt.Sprintf("crash-op-%d", op), func(t *testing.T) {
			t.Parallel()
			cfg := chaosCfg(t.TempDir())
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
// process per rank, and pins the losses and the saved state to a hash
// recorded while the gradient all-reduce still sent float32: exchanging the
// fp16 gradient as half words must not move a bit. The whole 1 403 168-
// element slab goes through the half exchange's vector kernels in one call.
func TestDP2OverTCPStateBitsPinned(t *testing.T) {
	const want = uint64(0x0db326749ea440f7)
	rng := tensor.NewRNG(46)
	batches := make([]Batch, 4)
	for i := range batches {
		x := tensor.New(8, 256)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, 8)
		for j := range targets {
			targets[j] = int(rng.Uint64() % 32)
		}
		batches[i] = Batch{Input: x, Targets: targets, SampleRows: 1, Samples: 8}
	}
	build := func() *nn.Model { return nn.BuildMLP("mlp", []int{256, 768, 768, 768, 32}, tensor.NewRNG(7)) }
	cfg := Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense, CollectiveDeadline: 30 * time.Second}
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
			t.Fatalf("proc %d: %v", p, r.Err)
		}
	}
	h := fnv.New64a()
	for _, l := range results[0].Losses {
		binary.Write(h, binary.LittleEndian, math.Float64bits(l))
	}
	h.Write(results[0].StageStates[0])
	if got := h.Sum64(); got != want {
		t.Errorf("state and loss hash %#016x, want %#016x", got, want)
	}
}

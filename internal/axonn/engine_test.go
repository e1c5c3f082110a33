package axonn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// The engine's bitwise contract lives in matrix_test.go. The tests here pin
// what is not a bit: layouts that only track the serial run closely,
// training that learns, communication volumes and schedules, and errors.

const (
	inDim   = 6
	classes = 4
)

func mlpBuilder(seed uint64) Builder {
	return func() *nn.Model {
		return nn.BuildMLP("mlp", []int{inDim, 10, 8, classes}, tensor.NewRNG(seed))
	}
}

func adamBuilder() OptBuilder {
	return func() optim.Optimizer { return optim.NewAdam(0.01) }
}

func makeBatches(n, samples int, seed uint64) []Batch {
	return randomBatches(n, samples, inDim, classes, seed)
}

// randomBatches draws n batches of normal inputs `in` wide with uniform
// targets over `classes`.
func randomBatches(n, samples, in, classes int, seed uint64) []Batch {
	rng := tensor.NewRNG(seed)
	var out []Batch
	for i := 0; i < n; i++ {
		x := tensor.New(samples, in)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, samples)
		for j := range targets {
			targets[j] = int(rng.Uint64() % uint64(classes))
		}
		out = append(out, Batch{Input: x, Targets: targets, SampleRows: 1, Samples: samples})
	}
	return out
}

// repeatBatch trains one fixed batch n times: a run that learns must lower
// its loss.
func repeatBatch(b Batch, n int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func assertLearns(t *testing.T, res Result) {
	t.Helper()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if first, last := res.Losses[0], res.Losses[len(res.Losses)-1]; last >= first {
		t.Errorf("loss did not decrease: %g -> %g", first, last)
	}
}

func pruneModel(m *nn.Model, sparsity float64) *prune.Result {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return prune.MagnitudePerLayer(layers, sparsity)
}

func pruneMLP(seed uint64, sparsity float64) *prune.Result {
	return pruneModel(mlpBuilder(seed)(), sparsity)
}

// assertCloseToSerial trains cfg and the serial reference on the same data:
// several microbatches or data groups change only the float summation
// order, so losses track the serial run to fp16-accumulation tolerance.
func assertCloseToSerial(t *testing.T, cfg Config, seed uint64, batches []Batch) {
	t.Helper()
	want := serialTrain(&identity{build: mlpBuilder(seed), batches: batches}, core.Dense).Losses
	res := Train(cfg, mlpBuilder(seed), adamBuilder(), nil, batches)
	for i := range want {
		if math.Abs(res.Losses[i]-want[i]) > 5e-3*(1+math.Abs(want[i])) {
			t.Errorf("batch %d: loss %g vs serial %g", i, res.Losses[i], want[i])
		}
	}
}

func TestPipelineWithMicrobatchesMatchesSerialClosely(t *testing.T) {
	assertCloseToSerial(t, Config{Ginter: 2, Gdata: 1, Microbatch: 2, Mode: core.Dense}, 9, makeBatches(5, 8, 200))
}

func TestDataParallelMatchesSerialClosely(t *testing.T) {
	assertCloseToSerial(t, Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense}, 11, makeBatches(5, 8, 300))
}

// TestSingleRankWithMicrobatching exercises the inline forward+backward
// warm path: one stage, several microbatches, no pipeline messages at all.
func TestSingleRankWithMicrobatching(t *testing.T) {
	assertCloseToSerial(t, Config{Ginter: 1, Gdata: 1, Microbatch: 2, Mode: core.Dense}, 53, makeBatches(3, 8, 1200))
}

func TestCompressedAllReduceMovesFewerElements(t *testing.T) {
	// §IV-A: SAMO's data-parallel all-reduce sends only unpruned gradients.
	pr := pruneMLP(17, 0.9)
	batches := makeBatches(2, 8, 500)
	cfg := Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense}
	d := Train(cfg, mlpBuilder(17), adamBuilder(), pr, batches)
	cfg.Mode = core.SAMO
	s := Train(cfg, mlpBuilder(17), adamBuilder(), pr, batches)

	dense := d.Fabric.TotalCollElements()
	compressed := s.Fabric.TotalCollElements()
	if compressed >= dense {
		t.Fatalf("compressed all-reduce moved %d elements, dense %d", compressed, dense)
	}
	// At 90% sparsity of the weight matrices the payload should shrink by
	// well over half (biases stay dense).
	if float64(compressed) > 0.5*float64(dense) {
		t.Errorf("compression ratio too weak: %d vs %d", compressed, dense)
	}
}

func TestHybridParallelTrainingLearns(t *testing.T) {
	// End to end: 2×2 hybrid SAMO training must reduce the loss on a fixed
	// dataset.
	assertLearns(t, Train(Config{Ginter: 2, Gdata: 2, Microbatch: 4, Mode: core.SAMO},
		mlpBuilder(19), adamBuilder(), pruneMLP(19, 0.5), repeatBatch(makeBatches(1, 16, 600)[0], 30)))
}

func TestAsymmetricLayout4x2(t *testing.T) {
	// Deep pipeline with data parallelism: 4 stages × 2 groups = 8 ranks.
	assertLearns(t, Train(Config{Ginter: 4, Gdata: 2, Microbatch: 2, Mode: core.SAMO},
		mlpBuilder(57), adamBuilder(), pruneMLP(57, 0.6), repeatBatch(makeBatches(1, 16, 1300)[0], 12)))
}

func TestGPTPipelineTrains(t *testing.T) {
	// A tiny transformer through the hybrid engine: exercises embedding,
	// attention, blocks and LM head across stage boundaries.
	id := gptIdentity()
	assertLearns(t, Train(Config{Ginter: 2, Gdata: 2, Microbatch: 1, Mode: core.Dense},
		id.build, adamBuilder(), nil, repeatBatch(id.batches[0], 12)))
}

func TestLossScaleRecoveryDuringTraining(t *testing.T) {
	// Start with an absurd loss scale: the first step(s) overflow and are
	// skipped, the scaler halves until gradients fit, then training
	// proceeds and learns.
	cfg := Config{Ginter: 2, Gdata: 2, Microbatch: 4, Mode: core.Dense,
		InitialLossScale: 1e9}
	res := Train(cfg, mlpBuilder(63), adamBuilder(), nil, repeatBatch(makeBatches(1, 16, 1600)[0], 25))
	if res.SkippedSteps == 0 {
		t.Error("expected overflow skips with a 1e9 scale")
	}
	if res.SkippedSteps > 20 {
		t.Errorf("scaler failed to recover: %d skips", res.SkippedSteps)
	}
	assertLearns(t, res)
}

func TestP2PVolumeScalesWithMicrobatches(t *testing.T) {
	// Eq. 9's mechanism on the real fabric: halving the microbatch size
	// doubles the message count at constant total bytes.
	batches := makeBatches(1, 8, 1400)
	countMsgs := func(mbs int) (int64, int64) {
		res := Train(Config{Ginter: 2, Gdata: 1, Microbatch: mbs, Mode: core.Dense},
			mlpBuilder(59), adamBuilder(), nil, batches)
		var msgs, elems int64
		for r := 0; r < 2; r++ {
			msgs += res.Fabric.Stats(r).P2PMessages.Load()
			elems += res.Fabric.Stats(r).P2PElements.Load()
		}
		return msgs, elems
	}
	m4, e4 := countMsgs(4) // 2 microbatches
	m2, e2 := countMsgs(2) // 4 microbatches
	if m2 != 2*m4 {
		t.Errorf("message count %d vs %d: halving mbs must double messages", m2, m4)
	}
	if e2 != e4 {
		t.Errorf("total elements changed with mbs: %d vs %d", e2, e4)
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
	batches := randomBatches(steps, 8, 128, 32, 4)
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

// TestGradualPruneScheduleShrinksState checks the ramp actually bites in
// the engine: the final stage state of a scheduled run serializes smaller
// than the unscheduled run's.
func TestGradualPruneScheduleShrinksState(t *testing.T) {
	pr := pruneMLP(63, 0.3)
	batches := makeBatches(6, 8, 7100)
	cfg := Config{Ginter: 1, Gdata: 2, Microbatch: 1, Mode: core.SAMO}
	plain := Train(cfg, mlpBuilder(63), adamBuilder(), pr, batches)
	if plain.Err != nil {
		t.Fatalf("unscheduled run: %v", plain.Err)
	}
	cfg.PruneSchedule = gradualSchedule()
	ramped := Train(cfg, mlpBuilder(63), adamBuilder(), pr, batches)
	if ramped.Err != nil {
		t.Fatalf("scheduled run: %v", ramped.Err)
	}
	if len(ramped.StageStates[0]) >= len(plain.StageStates[0]) {
		t.Fatalf("ramped state %d bytes not smaller than unscheduled %d",
			len(ramped.StageStates[0]), len(plain.StageStates[0]))
	}
}

func TestAbortWithoutRecoverySurfacesTypedError(t *testing.T) {
	// MaxRestarts<0 disables recovery: the injected crash must surface as a
	// typed RankFailedError on Result.Err — promptly, with no deadlock.
	cfg := Config{Ginter: 2, Gdata: 2, Microbatch: 2, Mode: core.Dense, CheckpointDir: t.TempDir(),
		Fault: &comm.FaultPlan{CrashAtStep: map[int]int{1: 1}}, MaxRestarts: -1}
	res := Train(cfg, mlpBuilder(15), adamBuilder(), nil, makeBatches(4, 8, 1500))
	var rf *comm.RankFailedError
	if !errors.As(res.Err, &rf) {
		t.Fatalf("Err = %v, want RankFailedError", res.Err)
	}
	if rf.Rank != 1 || rf.Step != 1 {
		t.Fatalf("RankFailedError{%d,%d}, want {1,1}", rf.Rank, rf.Step)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d with recovery disabled", res.Restarts)
	}
}

func TestPartition(t *testing.T) {
	// Contiguous, covering, balanced.
	for _, tc := range []struct{ n, g int }{{7, 3}, {8, 4}, {5, 5}, {10, 1}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.g; i++ {
			lo, hi := partition(tc.n, tc.g, i)
			if lo != prevHi {
				t.Fatalf("partition(%d,%d,%d): gap at %d", tc.n, tc.g, i, lo)
			}
			if hi-lo < tc.n/tc.g || hi-lo > tc.n/tc.g+1 {
				t.Fatalf("partition(%d,%d,%d): unbalanced size %d", tc.n, tc.g, i, hi-lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n {
			t.Fatalf("partition(%d,%d): covered %d", tc.n, tc.g, covered)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("more stages than layers should panic")
		}
	}()
	partition(2, 3, 0)
}

func TestBadConfigSurfacesAsError(t *testing.T) {
	// Bad user config must come back as Result.Err — never a panic and
	// never a hung fabric. Table-driven over every validate branch plus the
	// probe-build partition check.
	good := makeBatches(1, 8, 900)
	cases := []struct {
		name    string
		cfg     Config
		batches []Batch
		want    string
	}{
		{"zero ginter", Config{Ginter: 0, Gdata: 1, Microbatch: 1}, good, "bad config"},
		{"zero gdata", Config{Ginter: 1, Gdata: 0, Microbatch: 1}, good, "bad config"},
		{"zero microbatch", Config{Ginter: 1, Gdata: 1, Microbatch: 0}, good, "bad config"},
		{"indivisible by gdata", Config{Ginter: 1, Gdata: 2, Microbatch: 1}, makeBatches(1, 7, 900), "not divisible by Gdata"},
		{"indivisible by microbatch", Config{Ginter: 1, Gdata: 1, Microbatch: 3}, good, "not divisible by microbatch"},
		{"resume without dir", Config{Ginter: 1, Gdata: 1, Microbatch: 1, Resume: true}, good, "Resume requires"},
		{"samo without pruning", Config{Ginter: 1, Gdata: 1, Microbatch: 1, Mode: core.SAMO}, good, "pruning result"},
		{"more stages than layers", Config{Ginter: 64, Gdata: 1, Microbatch: 1}, good, "pipeline stages"},
		{"global schedule across stages", Config{Ginter: 2, Gdata: 1, Microbatch: 1,
			PruneSchedule: &prune.Schedule{Initial: 0.3, Final: 0.8, BeginStep: 1, EndStep: 5, Frequency: 2, Global: true}}, good, "ranks only its own weights"},
		{"proc outside peers", Config{Ginter: 1, Gdata: 1, Microbatch: 1, Net: &NetConfig{Peers: []string{"127.0.0.1:0"}, Proc: 1}}, good, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Train(tc.cfg, mlpBuilder(1), adamBuilder(), nil, tc.batches)
			if res.Err == nil {
				t.Fatal("bad config accepted")
			}
			if !strings.Contains(res.Err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", res.Err, tc.want)
			}
		})
	}
}

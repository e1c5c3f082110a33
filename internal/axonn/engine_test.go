package axonn

import (
	"math"
	"strings"
	"testing"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

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
	rng := tensor.NewRNG(seed)
	var out []Batch
	for i := 0; i < n; i++ {
		x := tensor.New(samples, inDim)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, samples)
		for j := range targets {
			targets[j] = rng.Intn(classes)
		}
		out = append(out, Batch{Input: x, Targets: targets, SampleRows: 1, Samples: samples})
	}
	return out
}

func pruneMLP(seed uint64, sparsity float64) *prune.Result {
	m := mlpBuilder(seed)()
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return prune.MagnitudePerLayer(layers, sparsity)
}

// serialLosses trains the reference single-rank configuration.
func serialLosses(seed uint64, pr *prune.Result, mode core.Mode, batches []Batch) ([]float64, *core.ModelState) {
	m := mlpBuilder(seed)()
	ms := core.NewModelState(m, optim.NewAdam(0.01), mode, pr)
	tr := core.NewTrainer(ms)
	var losses []float64
	for _, b := range batches {
		l, _ := tr.TrainStep(b.Input, b.Targets)
		losses = append(losses, l)
	}
	return losses, ms
}

func TestPipelineMatchesSerialBitwise(t *testing.T) {
	// Ginter=2, Gdata=1, one microbatch per batch: the pipeline splits the
	// model across two ranks but performs the identical arithmetic, so
	// losses and final parameters must match the serial run exactly.
	batches := makeBatches(6, 8, 100)
	want, refState := serialLosses(7, nil, core.Dense, batches)

	res := Train(Config{Ginter: 2, Gdata: 1, Microbatch: 8, Mode: core.Dense, OrderedReduce: true},
		mlpBuilder(7), adamBuilder(), nil, batches)
	for i := range want {
		if res.Losses[i] != want[i] {
			t.Fatalf("batch %d: pipeline loss %.9f != serial %.9f", i, res.Losses[i], want[i])
		}
	}
	_ = refState
}

func TestPipelineWithMicrobatchesMatchesSerialClosely(t *testing.T) {
	// Several microbatches change only float summation order; losses track
	// the serial reference to fp16-accumulation tolerance.
	batches := makeBatches(5, 8, 200)
	want, _ := serialLosses(9, nil, core.Dense, batches)
	res := Train(Config{Ginter: 2, Gdata: 1, Microbatch: 2, Mode: core.Dense, OrderedReduce: true},
		mlpBuilder(9), adamBuilder(), nil, batches)
	for i := range want {
		if math.Abs(res.Losses[i]-want[i]) > 5e-3*(1+math.Abs(want[i])) {
			t.Errorf("batch %d: loss %g vs serial %g", i, res.Losses[i], want[i])
		}
	}
}

func TestDataParallelMatchesSerialClosely(t *testing.T) {
	batches := makeBatches(5, 8, 300)
	want, _ := serialLosses(11, nil, core.Dense, batches)
	res := Train(Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense, OrderedReduce: true},
		mlpBuilder(11), adamBuilder(), nil, batches)
	for i := range want {
		if math.Abs(res.Losses[i]-want[i]) > 5e-3*(1+math.Abs(want[i])) {
			t.Errorf("batch %d: loss %g vs serial %g", i, res.Losses[i], want[i])
		}
	}
}

func TestSAMOMatchesDenseInParallel(t *testing.T) {
	// The paper's correctness claim under full hybrid parallelism: SAMO
	// storage changes nothing about the arithmetic. With identical
	// layouts, losses must match the masked-dense run bit for bit.
	pr := pruneMLP(13, 0.7)
	batches := makeBatches(6, 8, 400)
	cfgDense := Config{Ginter: 2, Gdata: 2, Microbatch: 2, Mode: core.Dense, OrderedReduce: true}
	cfgSAMO := cfgDense
	cfgSAMO.Mode = core.SAMO

	d := Train(cfgDense, mlpBuilder(13), adamBuilder(), pr, batches)
	s := Train(cfgSAMO, mlpBuilder(13), adamBuilder(), pr, batches)
	for i := range d.Losses {
		if d.Losses[i] != s.Losses[i] {
			t.Fatalf("batch %d: SAMO loss %.9f != masked-dense %.9f", i, s.Losses[i], d.Losses[i])
		}
	}
}

func TestCompressedAllReduceMovesFewerElements(t *testing.T) {
	// §IV-A: SAMO's data-parallel all-reduce sends only unpruned gradients.
	pr := pruneMLP(17, 0.9)
	batches := makeBatches(2, 8, 500)
	cfg := Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense, OrderedReduce: true}
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
	pr := pruneMLP(19, 0.5)
	batch := makeBatches(1, 16, 600)[0]
	var batches []Batch
	for i := 0; i < 30; i++ {
		batches = append(batches, batch)
	}
	res := Train(Config{Ginter: 2, Gdata: 2, Microbatch: 4, Mode: core.SAMO, OrderedReduce: true},
		mlpBuilder(19), adamBuilder(), pr, batches)
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("loss did not decrease: %g -> %g", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestFourStagePipeline(t *testing.T) {
	// Deeper pipeline (one layer per stage) still matches serial.
	batches := makeBatches(4, 4, 700)
	want, _ := serialLosses(23, nil, core.Dense, batches)
	res := Train(Config{Ginter: 4, Gdata: 1, Microbatch: 4, Mode: core.Dense, OrderedReduce: true},
		mlpBuilder(23), adamBuilder(), nil, batches)
	for i := range want {
		if res.Losses[i] != want[i] {
			t.Fatalf("batch %d: %g != %g", i, res.Losses[i], want[i])
		}
	}
}

func TestGPTPipelineTrains(t *testing.T) {
	// A tiny transformer through the hybrid engine: exercises embedding,
	// attention, blocks and LM head across stage boundaries.
	cfg := nn.GPTConfig{Name: "tiny", Layers: 2, Hidden: 16, Heads: 2, Seq: 4, Vocab: 11}
	build := func() *nn.Model { return nn.BuildGPT(cfg, tensor.NewRNG(31)) }

	rng := tensor.NewRNG(32)
	const samples = 4
	tokens := make([]int, samples*cfg.Seq)
	targets := make([]int, samples*cfg.Seq)
	for i := range tokens {
		tokens[i] = rng.Intn(cfg.Vocab)
		targets[i] = rng.Intn(cfg.Vocab)
	}
	b := Batch{Input: nn.TokensToTensor(tokens), Targets: targets, SampleRows: cfg.Seq, Samples: samples}
	var batches []Batch
	for i := 0; i < 12; i++ {
		batches = append(batches, b)
	}
	res := Train(Config{Ginter: 2, Gdata: 2, Microbatch: 1, Mode: core.Dense, OrderedReduce: true},
		build, adamBuilder(), nil, batches)
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Errorf("GPT loss did not decrease: %g -> %g", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestOverflowConsensusSkipsEverywhere(t *testing.T) {
	// Force an overflow via a huge loss scale: the step must be skipped on
	// every rank.
	batches := makeBatches(1, 8, 800)
	res := trainWithScale(t, mlpBuilder(37), batches, 1e30)
	if res.SkippedSteps != 1 {
		t.Errorf("skipped steps = %d, want 1", res.SkippedSteps)
	}
}

// trainWithScale runs one batch with a custom initial loss scale. A scale
// of 1e30 guarantees fp16 overflow in the scaled gradients.
func trainWithScale(t *testing.T, build Builder, batches []Batch, scale float64) Result {
	t.Helper()
	cfg := Config{Ginter: 2, Gdata: 2, Microbatch: 2, Mode: core.Dense,
		OrderedReduce: true, InitialLossScale: scale}
	return Train(cfg, build, adamBuilder(), nil, batches)
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
		{"negative clipnorm", Config{Ginter: 1, Gdata: 1, Microbatch: 1, ClipNorm: -1}, good, "ClipNorm"},
		{"indivisible by gdata", Config{Ginter: 1, Gdata: 2, Microbatch: 1}, makeBatches(1, 7, 900), "not divisible by Gdata"},
		{"indivisible by microbatch", Config{Ginter: 1, Gdata: 1, Microbatch: 3}, good, "not divisible by microbatch"},
		{"resume without dir", Config{Ginter: 1, Gdata: 1, Microbatch: 1, Resume: true}, good, "Resume requires"},
		{"samo without pruning", Config{Ginter: 1, Gdata: 1, Microbatch: 1, Mode: core.SAMO}, good, "pruning result"},
		{"more stages than layers", Config{Ginter: 64, Gdata: 1, Microbatch: 1}, good, "pipeline stages"},
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

func TestRingReduceAlsoWorks(t *testing.T) {
	// The bandwidth-optimal ring (OrderedReduce=false) gives the same
	// training trajectory within float tolerance.
	batches := makeBatches(4, 8, 1000)
	a := Train(Config{Ginter: 1, Gdata: 4, Microbatch: 2, Mode: core.Dense, OrderedReduce: true},
		mlpBuilder(41), adamBuilder(), nil, batches)
	b := Train(Config{Ginter: 1, Gdata: 4, Microbatch: 2, Mode: core.Dense, OrderedReduce: false},
		mlpBuilder(41), adamBuilder(), nil, batches)
	for i := range a.Losses {
		if math.Abs(a.Losses[i]-b.Losses[i]) > 1e-3*(1+math.Abs(a.Losses[i])) {
			t.Errorf("batch %d: ordered %g vs ring %g", i, a.Losses[i], b.Losses[i])
		}
	}
}

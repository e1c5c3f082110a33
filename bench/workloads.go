package main

import (
	"math"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/data"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// baseSeconds is the run length the step counts below are written for;
// -seconds scales every count and duration by seconds/baseSeconds, so the
// work of a run is a pure function of (-workload, -seed, -seconds) and is
// identical on both sides of an A/B.
const baseSeconds = 10

// scaled returns n scaled to the run length, at least lo.
func scaled(n int, seconds float64, lo int) int {
	s := int(math.Round(float64(n) * seconds / baseSeconds))
	if s < lo {
		return lo
	}
	return s
}

// shrunk is scaled for the counts a longer run must not grow: warm-up
// steps, set-up repeats and probe warm-ups shrink with a short run (the
// smoke test) but stay at n from baseSeconds up.
func shrunk(n int, seconds float64, lo int) int {
	return scaled(n, math.Min(seconds, baseSeconds), lo)
}

// workload is one named set of inputs. run produces its end-to-end metrics
// (tracing off), trace its per-layer metrics.
type workload struct {
	name string
	why  string
	run  func(c runCtx) (*result, error)
}

// runCtx is what a workload gets from the command line.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	tmpDir  string
	spans   *[]span // traced runs append their spans here
}

func workloads() []workload {
	return []workload{
		{wSerial,
			"single-worker GPT under SAMO at 90%: GEMM and attention do the work, state work is small, comm does none - the baseline a comm or state change must leave flat",
			gptSerial.run},
		{wHybrid,
			"the paper's configuration: 2 pipeline stages x 2 data groups, overlapped compressed all-reduce, gradual pruning from 50% to 90% and fsync'd checkpoints beside steady-state steps",
			gptHybrid.run},
		{wTCP,
			"dense data-parallel MLP over TCP loopback: little compute, a 2-phi gradient all-reduce on the wire and 20-phi of state work per step - where comm, core and optim changes show",
			mlpTCP.run},
		{wS90,
			"sparse-exec MLP at 90% sparsity: the crossover freezes the CSR SpMMT/SDDMM path, so sparse kernels do most of the work",
			mlpSparse90.run},
		{wS50,
			"the same layers at 50% sparsity, where the crossover freezes the dense-masked path: the guard for a crossover change that helps one side at the other's cost",
			mlpSparse50.run},
		{wServe,
			"micro-batching server over a checkpoint loaded through ckpt: open loop at 150 and 400 rps, then closed loop to saturation - forward-only kernels at tiny m plus admission and batching",
			serveGPT.run},
	}
}

// --- models and data ---------------------------------------------------------

var gptTrain = nn.GPTConfig{Name: "gpt-l2-h128", Layers: 2, Hidden: 128, Heads: 4, Seq: 32, Vocab: 256}
var gptServe = nn.GPTConfig{Name: "gpt-l2-h64", Layers: 2, Hidden: 64, Heads: 4, Seq: 16, Vocab: 256}

func adamW() optim.Optimizer { return optim.NewAdamW(3e-3, 0.01) }
func adam() optim.Optimizer  { return optim.NewAdam(1e-3) }

// dataRing is how many distinct batches a training workload cycles
// through: enough that no step repeats its predecessor, few enough to
// pregenerate outside the measured window.
const dataRing = 32

func gptBatches(cfg nn.GPTConfig, samples int, seed uint64) []axonn.Batch {
	corpus := data.SynthText("bench", cfg.Vocab, 40000, seed)
	out := make([]axonn.Batch, dataRing)
	cursor := 0
	for i := range out {
		out[i], cursor = corpus.LMBatch(cursor, samples, cfg.Seq)
	}
	return out
}

// mlpBatches draws normal inputs whose label is the arg-max of the first
// `classes` features: a rule a linear layer can learn, so the loss falls.
func mlpBatches(batch, in, classes int, seed uint64) []axonn.Batch {
	rng := tensor.NewRNG(seed ^ 0x6d6c70)
	out := make([]axonn.Batch, dataRing)
	for i := range out {
		x := tensor.New(batch, in)
		tensor.FillNormal(x, 1, rng)
		targets := make([]int, batch)
		for r := 0; r < batch; r++ {
			row := x.Data()[r*in : r*in+classes]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			targets[r] = best
		}
		out[i] = axonn.Batch{Input: x, Targets: targets, SampleRows: 1, Samples: batch}
	}
	return out
}

// cycle returns n batches drawn round-robin from ring.
func cycle(ring []axonn.Batch, n int) []axonn.Batch {
	out := make([]axonn.Batch, n)
	for i := range out {
		out[i] = ring[i%len(ring)]
	}
	return out
}

func pruneLayers(m *nn.Model) []prune.Layer {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return layers
}

// prunedZero reports whether every coordinate of m that pr pruned is
// exactly zero — SAMO's invariant at the end of a run.
func prunedZero(m *nn.Model, pr *prune.Result) bool {
	for _, p := range m.Params() {
		ix := pr.Index(p.Name)
		if ix == nil || !nn.Prunable(p) {
			continue
		}
		v := p.Value.Data()
		next := 0
		ids := ix.IDs()
		for i, x := range v {
			if next < len(ids) && int(ids[next]) == i {
				next++
				continue
			}
			if x != 0 {
				return false
			}
		}
	}
	return true
}

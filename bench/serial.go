package main

import (
	"runtime"
	"strings"
	"time"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// setupRepeats is how many times an end-to-end run sets its workload up;
// setup_s is the median, the last set-up is the one measured.
const setupRepeats = 3

// serialSpec is a core.Trainer workload: one worker, no fabric.
type serialSpec struct {
	name       string
	model      func(rng *tensor.RNG) *nn.Model
	sparsity   float64
	sparseExec bool // train through nn.Sparsify'd CSR layers
	opt        func() optim.Optimizer
	data       func(seed uint64) []axonn.Batch
	workers    int // kernel fan-out (tensor.SetWorkers)
	warm       int // unmeasured steps: pools fill, both autotuners probe and freeze
	steps      int // measured steps at baseSeconds
	fc         [3]int
}

var gptSerial = &serialSpec{
	name:     wSerial,
	model:    func(rng *tensor.RNG) *nn.Model { return nn.BuildGPT(gptTrain, rng) },
	sparsity: 0.9,
	opt:      adamW,
	data:     func(seed uint64) []axonn.Batch { return gptBatches(gptTrain, 4, seed) },
	// One kernel worker: this is the plain single-threaded baseline. The
	// step is several hundred small parallel regions, and with two workers
	// its time follows how fast the second vCPU's thread wakes, which on a
	// shared VM swings by tens of percent; the MLP workloads, whose regions
	// are few and long, keep the fan-out of every core.
	workers: 1,
	warm:    20, steps: 120,
	fc: [3]int{4 * 32, 128, 512},
}

func mlpSparse(name string, sparsity float64, steps int) *serialSpec {
	const batch, in, hidden, classes = 48, 512, 640, 64
	return &serialSpec{
		name: name,
		model: func(rng *tensor.RNG) *nn.Model {
			return nn.BuildMLP("mlp", []int{in, hidden, hidden, hidden, classes}, rng)
		},
		sparsity: sparsity, sparseExec: true, workers: runtime.NumCPU(),
		opt:  adam,
		data: func(seed uint64) []axonn.Batch { return mlpBatches(batch, in, classes, seed) },
		warm: 32, steps: steps,
		fc: [3]int{batch, hidden, hidden},
	}
}

var (
	mlpSparse90 = mlpSparse(wS90, 0.90, 250)
	mlpSparse50 = mlpSparse(wS50, 0.50, 100)
)

// serialRig is a set-up workload: state built, warm-up steps done.
type serialRig struct {
	pr      *prune.Result
	opt     *timedOpt
	state   *core.ModelState
	trainer *core.Trainer
	ring    []axonn.Batch
	next    int // ring cursor
	pruneMs float64
}

// setup is everything a user waits for before the first steady-state step.
func (s *serialSpec) setup(c runCtx) *serialRig {
	hermetic(s.workers)
	rig := &serialRig{ring: s.data(c.seed)}
	model := s.model(tensor.NewRNG(c.seed))
	t0 := time.Now()
	rig.pr = prune.MagnitudePerLayer(pruneLayers(model), s.sparsity)
	rig.pruneMs = ms(time.Since(t0))
	if s.sparseExec {
		model = nn.Sparsify(model, rig.pr)
	}
	rig.opt = newTimedOpt(s.opt(), nil, "core.step")
	rig.state = core.NewModelState(model, rig.opt, core.SAMO, rig.pr)
	rig.trainer = core.NewTrainer(rig.state)
	for i := shrunk(s.warm, c.seconds, 2); i > 0; i-- {
		b := rig.batch()
		rig.trainer.TrainStep(b.Input, b.Targets)
	}
	return rig
}

func (r *serialRig) batch() axonn.Batch {
	b := r.ring[r.next%len(r.ring)]
	r.next++
	return b
}

// trainSteps runs n untraced TrainSteps, returning when each ran and its
// loss.
func (r *serialRig) trainSteps(n int) (steps []interval, losses []float64) {
	steps = make([]interval, n)
	losses = make([]float64, n)
	for i := range steps {
		b := r.batch()
		t0 := time.Now()
		losses[i], _ = r.trainer.TrainStep(b.Input, b.Targets)
		steps[i] = interval{t0, time.Now()}
	}
	return steps, losses
}

func (s *serialSpec) run(c runCtx) (*result, error) {
	if c.trace {
		return s.traced(c)
	}
	res := newResult(s.name)
	var setups []interval
	var rig *serialRig
	for i := shrunk(setupRepeats, c.seconds, 1); i > 0; i-- {
		t0 := time.Now()
		rig = s.setup(c)
		setups = append(setups, interval{t0, time.Now()})
	}
	n := scaled(s.steps, c.seconds, 4)
	heap := startHeapSampler(c.seconds)
	steps, losses := rig.trainSteps(n)
	heap.report(res)

	var stateBytes countWriter
	if _, err := rig.state.Save(&stateBytes); err != nil {
		return nil, err
	}
	res.checkLosses(losses)
	res.check(prunedZero(rig.state.Model(), rig.pr) || s.sparseExec, "pruned coordinates are not exactly zero")
	res.setOps(setups, steps, float64(n*rig.ring[0].Samples)/(sum(rawMs(steps))/1e3))
	res.set("model_state_bytes", float64(stateBytes), 1)
	res.infof("steps %d warm-up %d samples/step %d skipped %d", n, shrunk(s.warm, c.seconds, 2), rig.ring[0].Samples, rig.state.SkippedSteps())
	return res, nil
}

// layerKind names the per-layer metric a layer's spans fold into.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.TransformerBlock:
		return "block"
	case *nn.Linear:
		return "linear"
	case *nn.SparseLinear:
		return "sparselinear"
	}
	return "other"
}

// replayer runs core.Trainer.TrainStep's own sequence from its public
// pieces — ZeroGrads, per-layer Forward, CrossEntropyArena, per-layer
// Backward with the state's Capture hook, State.Step — with a span around
// each call. It also runs the engine's per-rank sequence (several
// microbatches per step) for the engine workloads' per-layer numbers.
type replayer struct {
	state  *core.ModelState
	opt    *timedOpt
	tr     *tracer
	arena  *tensor.Arena
	caches [][]any
	kinds  []string
}

func newReplayer(state *core.ModelState, opt *timedOpt, tr *tracer) *replayer {
	rp := &replayer{state: state, opt: opt, tr: tr, arena: tensor.NewArena()}
	for _, l := range state.Model().Layers {
		rp.kinds = append(rp.kinds, layerKind(l))
	}
	opt.tr = tr
	return rp
}

// step trains on the microbatches of one batch and returns the mean loss.
func (rp *replayer) step(mbs []axonn.Batch) float64 {
	m := rp.state.Model()
	for len(rp.caches) < len(mbs) {
		rp.caches = append(rp.caches, make([]any, len(m.Layers)))
	}
	id := len(rp.opt.stamps) // the batch this step's optimizer calls will stamp
	tr := rp.tr
	hook := rp.state.GradHook()
	t0 := time.Now()
	m.ZeroGrads()
	t := time.Now()
	tr.add(id, "core.zero_grads", rootSpan, t0, t)
	var loss float64
	for mi, b := range mbs {
		x := b.Input
		for i, l := range m.Layers {
			x, rp.caches[mi][i] = l.Forward(rp.arena, x, true)
			t1 := time.Now()
			tr.add(id, "nn.fwd_"+rp.kinds[i], rootSpan, t, t1)
			t = t1
		}
		l, g := nn.CrossEntropyArena(rp.arena, x, b.Targets)
		tensor.Scale(g, rp.state.LossScale()/float32(len(mbs)))
		loss += l / float64(len(mbs))
		t1 := time.Now()
		tr.add(id, "nn.loss", rootSpan, t, t1)
		t = t1
		for i := len(m.Layers) - 1; i >= 0; i-- {
			g = m.Layers[i].Backward(rp.arena, rp.caches[mi][i], g)
			t1 = time.Now()
			tr.add(id, "nn.bwd_"+rp.kinds[i], rootSpan, t, t1)
			hook.Capture(m.Layers[i])
			t = time.Now()
			tr.add(id, "core.capture", rootSpan, t1, t)
		}
	}
	rp.state.Step()
	t1 := time.Now()
	tr.add(id, "core.step", rootSpan, t, t1)
	rp.arena.Reset()
	tr.add(id, rootSpan, "", t0, time.Now())
	return loss
}

// setReplayMetrics folds a replay's spans into the nn and core per-layer
// metrics and returns the optimizer's per-step time.
func setReplayMetrics(res *result, spans []span) (optimMs float64) {
	steps := map[int]bool{}
	for _, s := range spans {
		steps[s.Step] = true
	}
	n := len(steps)
	// perStep returns the median per-step total duration of the spans whose
	// name starts with prefix.
	perStep := func(prefix string) float64 {
		tot := map[int]float64{}
		for _, s := range spans {
			if strings.HasPrefix(s.Name, prefix) {
				tot[s.Step] += float64(s.EndNs-s.StartNs) / 1e6
			}
		}
		vals := make([]float64, 0, n)
		for st := range steps {
			vals = append(vals, tot[st])
		}
		return median(vals)
	}
	res.set("nn.fwd_ms", perStep("nn.fwd_"), n)
	res.set("nn.bwd_ms", perStep("nn.bwd_"), n)
	res.set("nn.loss_ms", perStep("nn.loss"), n)
	for _, k := range []string{"block", "linear", "sparselinear", "other"} {
		res.set("nn.fwd_"+k+"_ms", perStep("nn.fwd_"+k), n)
		res.set("nn.bwd_"+k+"_ms", perStep("nn.bwd_"+k), n)
	}
	res.set("core.capture_ms", perStep("core.capture"), n)
	res.set("core.zero_grads_ms", perStep("core.zero_grads"), n)
	rows, _, _ := selfTimes(spans)
	for _, r := range rows {
		if r.Name == "core.step" {
			res.set("core.step_ms", r.SelfMs, n) // less its optimizer children
		}
	}
	return perStep("optim.step")
}

func (s *serialSpec) traced(c runCtx) (*result, error) {
	res := newResult(s.name)
	rig := s.setup(c)
	n := scaled(s.steps/4, c.seconds, 2)
	untraced, losses := rig.trainSteps(n)

	tr := newTracer(s.name)
	rp := newReplayer(rig.state, rig.opt, tr)
	busy0 := rig.opt.busy
	t0 := time.Now()
	for i := 0; i < n; i++ {
		losses = append(losses, rp.step([]axonn.Batch{rig.batch()}))
	}
	wall := time.Since(t0)
	*c.spans = append(*c.spans, tr.spans...)

	res.checkLosses(losses)
	res.set("optim.step_ms", setReplayMetrics(res, tr.spans), n)
	_, tracedMs, un := selfTimes(tr.spans)
	res.set("trace.unattributed_share", un, n)
	untracedMs := median(rawMs(untraced))
	res.setWall(untraced, float64(n*rig.ring[0].Samples)/(sum(rawMs(untraced))/1e3))
	res.set("trace.overhead_share", tracedMs/untracedMs-1, n)
	res.set("optim.busy_share", float64(rig.opt.busy-busy0)/float64(wall), n)
	res.set("core.skipped_steps", float64(rig.state.SkippedSteps()), 1)
	res.set("core.memory_ledger_bytes", float64(rig.state.Memory().Total()), 1)
	res.set("prune.magnitude_ms", rig.pruneMs, 1)
	res.infof("untraced step p50 %.3f ms over %d steps, traced %.3f ms over %d", untracedMs, n, tracedMs, n)

	probeMatMul(c, res, s.fc)
	if s.sparseExec {
		probeSparseLayers(c, res, rig.state.Model(), rig.ring[0].Samples)
	} else {
		probeCompressExpand(c, res, rig.state.Model(), rig.pr)
	}
	return res, nil
}

// hermetic puts the process-global tuner state and worker count where a
// fresh process would have them, so the order workloads run in cannot
// change a number.
func hermetic(workers int) {
	tensor.ResetTuneTable()
	sparse.ResetXover()
	tensor.SetWorkers(workers)
}

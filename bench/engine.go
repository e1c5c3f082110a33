package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// engineSpec is an axonn.Train workload. Ranks are goroutines of the
// benchmark process; kernel fan-out is one worker so runnable threads stay
// near the core count.
type engineSpec struct {
	name      string
	model     func(rng *tensor.RNG) *nn.Model
	opt       func() optim.Optimizer
	data      func(seed uint64) []axonn.Batch
	cfg       axonn.Config
	tcpProcs  int     // >0: that many in-process TCP endpoints, one rank each
	sparsity  float64 // initial one-shot sparsity (SAMO mode)
	finalSp   float64 // >0: gradual schedule to this sparsity
	ckptEvery int     // >0: checkpoint period at baseSeconds
	warm      int
	steps     int // measured steps at baseSeconds
	fc        [3]int
	actElems  int // one microbatch's pipeline activation, for the p2p probe
}

var gptHybrid = &engineSpec{
	name:  wHybrid,
	model: func(rng *tensor.RNG) *nn.Model { return nn.BuildGPT(gptTrain, rng) },
	opt:   adamW,
	data:  func(seed uint64) []axonn.Batch { return gptBatches(gptTrain, 8, seed) },
	cfg: axonn.Config{Ginter: 2, Gdata: 2, Microbatch: 1, Mode: core.SAMO,
		OverlapReduce: true, CollectiveDeadline: 60 * time.Second},
	sparsity: 0.5, finalSp: 0.9, ckptEvery: 25,
	warm: 10, steps: 115,
	fc:       [3]int{32, 128, 512},
	actElems: 32 * 128,
}

var mlpTCP = &engineSpec{
	name: wTCP,
	model: func(rng *tensor.RNG) *nn.Model {
		return nn.BuildMLP("mlp", []int{256, 768, 768, 768, 32}, rng)
	},
	opt:  adam,
	data: func(seed uint64) []axonn.Batch { return mlpBatches(8, 256, 32, seed) },
	cfg: axonn.Config{Ginter: 1, Gdata: 2, Microbatch: 4, Mode: core.Dense,
		CollectiveDeadline: 60 * time.Second},
	tcpProcs: 2,
	warm:     10, steps: 110,
	fc: [3]int{4, 768, 768},
}

// schedule places the gradual ramp inside the run whatever its length:
// events every tenth of the run from 15% to 75% of it.
func (s *engineSpec) schedule(total int) *prune.Schedule {
	if s.finalSp == 0 {
		return nil
	}
	freq := total / 12
	if freq < 1 {
		freq = 1
	}
	begin := total * 15 / 100
	return &prune.Schedule{Initial: s.sparsity, Final: s.finalSp,
		BeginStep: begin, EndStep: begin + 6*freq, Frequency: freq}
}

// engineRun is one axonn.Train call observed from outside.
type engineRun struct {
	res      axonn.Result // proc 0's
	opt      *timedOpt    // the stamping rank's wrapper
	opts     []*timedOpt
	t0, t1   time.Time
	coll     [4]int64 // summed over ranks: coll elements, coll ops, p2p elements, p2p messages
	exposed  int64    // ns, summed over ranks
	ranks    int
	sched    *prune.Schedule
	every    int
	samples  int // per batch
	stateLen int64
}

// train runs the workload for total batches under sched (nil for none).
// With traced set, every rank's optimizer wrapper records its calls as
// spans; run.opt's are the ones to use.
func (s *engineSpec) train(c runCtx, total int, sched *prune.Schedule, traced bool) (*engineRun, error) {
	hermetic(1)
	run := &engineRun{ranks: s.cfg.GPUs(), sched: sched}
	cfg := s.cfg
	cfg.PruneSchedule = run.sched
	if s.ckptEvery > 0 {
		dir, err := os.MkdirTemp(c.tmpDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
		cfg.CheckpointKeep = 2
		cfg.CheckpointEvery = scaled(s.ckptEvery, c.seconds, 2)
		run.every = cfg.CheckpointEvery
	}
	build := func() *nn.Model { return s.model(tensor.NewRNG(c.seed)) }
	var pr *prune.Result
	if cfg.Mode == core.SAMO {
		pr = prune.MagnitudePerLayer(pruneLayers(build()), s.sparsity)
	}
	var mu sync.Mutex
	optb := func() optim.Optimizer {
		// One tracer per rank: the ranks run in parallel, so charging every
		// rank's calls to one step would count the same wall time several
		// times.
		var tr *tracer
		if traced {
			tr = newTracer(s.name)
		}
		o := newTimedOpt(s.opt(), tr, rootSpan)
		mu.Lock()
		run.opts = append(run.opts, o)
		mu.Unlock()
		return o
	}
	batches := cycle(s.data(c.seed), total)
	run.samples = batches[0].Samples

	run.t0 = time.Now()
	results := []axonn.Result{{}}
	if s.tcpProcs == 0 {
		results[0] = axonn.Train(cfg, build, optb, pr, batches)
	} else {
		addrs, err := loopbackAddrs(s.tcpProcs)
		if err != nil {
			return nil, err
		}
		results = make([]axonn.Result, s.tcpProcs)
		var wg sync.WaitGroup
		for p := range results {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pc := cfg
				pc.Net = &axonn.NetConfig{Peers: addrs, Proc: p, DialTimeout: 30 * time.Second}
				results[p] = axonn.Train(pc, build, optb, pr, batches)
			}(p)
		}
		wg.Wait()
	}
	run.t1 = time.Now()
	defer func() {
		for _, r := range results {
			if r.Fabric != nil {
				r.Fabric.Close()
			}
		}
	}()
	for p, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: proc %d: %w", s.name, p, r.Err)
		}
		// Each process's fabric counts its local ranks only.
		for rk := 0; rk < r.Fabric.Size(); rk++ {
			if s.tcpProcs > 0 && rk != p {
				continue
			}
			st := r.Fabric.Stats(rk)
			run.coll[0] += st.CollElements.Load()
			run.coll[1] += st.CollOps.Load()
			run.coll[2] += st.P2PElements.Load()
			run.coll[3] += st.P2PMessages.Load()
			run.exposed += st.ExposedCollNanos.Load()
		}
	}
	// Process 0 hosts data group 0, whose last stage writes the losses and
	// whose replicas are the ones serialized.
	run.res = results[0]
	for _, st := range run.res.StageStates {
		run.stateLen += int64(len(st))
	}
	// The stamping rank is the one that owns the most parameters (a first
	// pipeline stage); which rank built its optimizer first is a race.
	run.opt = run.opts[0]
	for _, o := range run.opts[1:] {
		if o.calls > run.opt.calls {
			run.opt = o
		}
	}
	return run, nil
}

// loopbackAddrs reserves n free 127.0.0.1 ports by listening and closing.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func (s *engineSpec) warmSteps(c runCtx) int { return shrunk(s.warm, c.seconds, 1) }

func (s *engineSpec) run(c runCtx) (*result, error) {
	if c.trace {
		return s.traced(c)
	}
	res := newResult(s.name)
	warm := s.warmSteps(c)
	// Set-up repeats are Train calls that stop right after the warm-up;
	// each is timed from the call to the first measured step's stamp.
	total := warm + scaled(s.steps, c.seconds, 2) + 1
	sched := s.schedule(total)
	var setups []interval
	for i := shrunk(setupRepeats, c.seconds, 1); i > 1; i-- {
		run, err := s.train(c, warm+1, sched, false)
		if err != nil {
			return nil, err
		}
		if len(run.opt.stamps) > warm {
			setups = append(setups, interval{run.t0, run.opt.stamps[warm]})
		}
	}
	heap := startHeapSampler(c.seconds)
	run, err := s.train(c, total, sched, false)
	if err != nil {
		return nil, err
	}
	heap.report(res)
	stamps := run.opt.stamps
	if len(stamps) <= warm+1 {
		return nil, fmt.Errorf("%s: %d step stamps for %d batches", s.name, len(stamps), total)
	}
	setups = append(setups, interval{run.t0, stamps[warm]})
	steps := run.opt.steps(warm)

	res.checkLosses(run.res.Losses)
	res.check(len(stamps)+run.res.SkippedSteps == total, "%d stamps + %d skipped steps != %d batches", len(stamps), run.res.SkippedSteps, total)
	res.setOps(setups, steps, float64(len(steps)*run.samples)/(sum(rawMs(steps))/1e3))
	res.set("model_state_bytes", float64(run.stateLen), 1)
	res.infof("batches %d warm-up %d measured steps %d skipped %d restarts %d", total, warm, len(steps), run.res.SkippedSteps, run.res.Restarts)
	return res, nil
}

// microbatches cuts one data group's shard of b into the engine's
// microbatches.
func (s *engineSpec) microbatches(b axonn.Batch) []axonn.Batch {
	rows := s.cfg.Microbatch * b.SampleRows
	shard := b.Samples / s.cfg.Gdata
	var out []axonn.Batch
	for lo := 0; lo < shard*b.SampleRows; lo += rows {
		out = append(out, axonn.Batch{Input: b.Input.Slice(lo, lo+rows), Targets: b.Targets[lo : lo+rows],
			SampleRows: b.SampleRows, Samples: s.cfg.Microbatch})
	}
	return out
}

func (s *engineSpec) traced(c runCtx) (*result, error) {
	res := newResult(s.name)
	warm := s.warmSteps(c)
	n := scaled(s.steps/4, c.seconds, 1)
	total := warm + n + 1
	// The full-length run's schedule, cut short: events keep their spacing.
	sched := s.schedule(warm + scaled(s.steps, c.seconds, 2) + 1)
	plain, err := s.train(c, total, sched, false)
	if err != nil {
		return nil, err
	}
	run, err := s.train(c, total, sched, true)
	if err != nil {
		return nil, err
	}
	tr := run.opt.tr
	stamps := run.opt.stamps
	if len(stamps) <= warm+1 {
		return nil, fmt.Errorf("%s: %d step stamps for %d batches", s.name, len(stamps), total)
	}
	// Root spans come from the stamps; optimizer spans outside the
	// measured steps have no root and are dropped.
	var spans []span
	for _, sp := range tr.spans {
		if sp.Step >= warm && sp.Step+1 < len(stamps) {
			spans = append(spans, sp)
		}
	}
	tr.spans = spans
	for i := warm; i+1 < len(stamps); i++ {
		tr.add(i, rootSpan, "", stamps[i], stamps[i+1])
	}
	*c.spans = append(*c.spans, tr.spans...)

	res.checkLosses(run.res.Losses)
	stepMs := rawMs(run.opt.steps(warm))
	plainSteps := plain.opt.steps(warm)
	plainMs := median(rawMs(plainSteps))
	res.setWall(plainSteps, float64(len(plainSteps)*plain.samples)/(sum(rawMs(plainSteps))/1e3))
	rows, tracedMs, un := selfTimes(tr.spans)
	for _, r := range rows {
		if r.Name == "optim.step" {
			res.set("optim.step_ms", r.SelfMs, len(stepMs))
		}
	}
	res.set("trace.unattributed_share", un, len(stepMs))
	res.set("trace.overhead_share", tracedMs/plainMs-1, len(stepMs))
	// busy covers every batch; so does the window it is divided by.
	res.set("optim.busy_share", float64(run.opt.busy)/float64(stamps[len(stamps)-1].Sub(stamps[0])), len(stamps))
	res.set("core.skipped_steps", float64(run.res.SkippedSteps), 1)

	// Exact traffic counts from the fabric, per batch over the whole run.
	perStep := func(v int64) float64 { return float64(v) / float64(total) }
	res.set("comm.coll_elements_per_step", perStep(run.coll[0]), total)
	res.set("comm.coll_ops_per_step", perStep(run.coll[1]), total)
	res.set("comm.p2p_elements_per_step", perStep(run.coll[2]), total)
	res.set("comm.p2p_messages_per_step", perStep(run.coll[3]), total)
	exposedMs := float64(run.exposed) / 1e6 / float64(run.ranks) / float64(total)
	res.set("comm.exposed_coll_ms_per_step", exposedMs, total)
	res.set("comm.exposed_share", exposedMs/mean(stepMs), total)

	mb := run.samples / s.cfg.Gdata / s.cfg.Microbatch
	res.set("axonn.bubble_share_sched", float64(s.cfg.Ginter-1)/float64(mb+s.cfg.Ginter-1), 1)
	// Batch b's prune event and checkpoint run after its optimizer step, so
	// they fall in duration b (stamp b to stamp b+1). Overflow skips make no
	// stamp and all happen while the loss scale first settles, so batch b is
	// stamp b-skipped.
	at := func(batch int) (float64, bool) {
		i := batch - run.res.SkippedSteps
		if i < warm || i+1 >= len(stamps) {
			return 0, false
		}
		return ms(stamps[i+1].Sub(stamps[i])), true
	}
	if sched != nil {
		var ev []float64
		for _, b := range sched.Events()[1:] { // the first event's target prunes nothing
			if d, ok := at(b); ok {
				ev = append(ev, d)
			}
		}
		res.set("axonn.prune_event_step_ms", median(ev), len(ev))
	}
	if run.every > 0 {
		var ck []float64
		for b := run.every - 1; b < total; b += run.every {
			if d, ok := at(b); ok {
				ck = append(ck, d)
			}
		}
		res.set("axonn.ckpt_step_ms", median(ck), len(ck))
	}
	res.set("axonn.train_call_overhead_s", (run.t1.Sub(run.t0) - stamps[len(stamps)-1].Sub(stamps[0])).Seconds(), 1)
	res.infof("untraced step p50 %.3f ms, traced %.3f ms over %d steps", plainMs, tracedMs, len(stepMs))

	// One rank-equivalent of compute, replayed serially layer by layer: the
	// whole model over one data group's microbatches at one kernel worker.
	model := s.model(tensor.NewRNG(c.seed))
	var pr *prune.Result
	t0 := time.Now()
	if s.cfg.Mode == core.SAMO {
		pr = prune.MagnitudePerLayer(pruneLayers(model), s.sparsity)
		res.set("prune.magnitude_ms", ms(time.Since(t0)), 1)
	}
	opt := newTimedOpt(s.opt(), nil, "core.step")
	state := core.NewModelState(model, opt, s.cfg.Mode, pr)
	rtr := newTracer(s.name + ".replay")
	rp := newReplayer(state, opt, nil)
	ring := s.data(c.seed)
	replayWarm := shrunk(3, c.seconds, 1)
	for i := 0; i < replayWarm; i++ {
		rp.step(s.microbatches(ring[i%len(ring)]))
	}
	rp.tr, opt.tr = rtr, rtr
	for i := 0; i < n/2+2; i++ {
		rp.step(s.microbatches(ring[(replayWarm+i)%len(ring)]))
	}
	*c.spans = append(*c.spans, rtr.spans...)
	setReplayMetrics(res, rtr.spans)
	res.set("core.memory_ledger_bytes", float64(state.Memory().Total()), 1)

	probeMatMul(c, res, s.fc)
	elems := 0
	for _, b := range state.ReduceBuckets() {
		if len(b.Data) > elems {
			elems = len(b.Data)
		}
	}
	if err := probeAllReduce(c, res, elems); err != nil {
		return nil, err
	}
	if pr != nil {
		probeCompressExpand(c, res, model, pr)
	}
	if s.actElems > 0 {
		if err := probeSendRecv(c, res, s.actElems); err != nil {
			return nil, err
		}
	}
	if s.ckptEvery > 0 {
		if err := probeCkpt(c, res, state); err != nil {
			return nil, err
		}
	}
	if sched != nil {
		if err := probePruneEvent(res, state, *sched); err != nil {
			return nil, err
		}
	}
	return res, nil
}

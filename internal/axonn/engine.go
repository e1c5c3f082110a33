// Package axonn is the working reimplementation of the parallel training
// framework the paper builds on (Singh & Bhatele, IPDPS'22) with the SAMO
// optimizations integrated: a hybrid of inter-layer (pipeline) and data
// parallelism over Ginter × Gdata ranks, asynchronous point-to-point
// messaging, message-driven microbatch scheduling, mixed precision with
// dynamic loss scaling, and — when SAMO is enabled — layer-granular gradient
// compression plus compressed data-parallel all-reduces.
//
// Ranks are goroutines and links are channels (internal/comm), so this
// engine really trains models in parallel in-process. It is the correctness
// half of the reproduction: the performance half at Summit scale lives in
// internal/simulate.
//
// Each worker owns a tensor arena that is reset at the end of every batch
// (the global overflow-consensus collective is a barrier, so no peer can
// still be reading this rank's activation or gradient payloads when the
// arena recycles them). Together with the pooled collective buffers in
// internal/comm and the cache pools in internal/nn, a steady-state training
// batch performs no heap allocations.
package axonn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/comm/tcp"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Config describes the hybrid-parallel layout and training options.
type Config struct {
	Ginter int // pipeline stages per model instance
	Gdata  int // data-parallel model instances
	// Microbatch is the samples per microbatch; a data group's batch shard
	// is split into shardSize/Microbatch microbatches.
	Microbatch int
	// Mode selects Dense mixed precision or SAMO-compressed model states.
	Mode core.Mode
	// OverlapReduce is ignored. Each stage all-reduces its ∇θ16 slab once
	// per step, after the shard's last backward; the field stays so that
	// configurations which set it still compile.
	OverlapReduce bool
	// PruneSchedule, when non-nil, runs gradual magnitude pruning during
	// training (core.GradualPruner): at each schedule event — evaluated on
	// the global batch index, after the step's overflow consensus — every
	// replica shrinks its patterns in place to the event's sparsity.
	// Selection is a pure function of (step, θ32), which is bitwise-identical
	// across replicas at that point, so all ranks shrink identically with no
	// extra communication. Checkpoints written after an event carry the
	// shrunk pattern; resuming from one written before an event replays the
	// event deterministically.
	PruneSchedule *prune.Schedule
	// InitialLossScale overrides the dynamic loss scaler's starting scale
	// when positive (tests use it to provoke overflow skips).
	InitialLossScale float64

	// Fault, when non-nil, arms a deterministic fault-injection plan on the
	// FIRST fabric only — a restart replaces the failed hardware, so the
	// recovery fabric runs clean. Chaos tests use it; production leaves nil.
	Fault *comm.FaultPlan
	// CollectiveDeadline bounds every blocking receive (comm.SetDeadline):
	// the backstop detector for stalled or silently dead peers. It must
	// comfortably exceed a batch plus a checkpoint fsync; 0 disables it.
	CollectiveDeadline time.Duration
	// CheckpointDir enables crash-consistent checkpointing when non-empty:
	// the data-group-0 rank of each pipeline stage saves its shard through
	// internal/ckpt after every CheckpointEvery-th batch (and the final
	// one). A checkpoint at step k captures the state AFTER batch k-1.
	CheckpointDir string
	// CheckpointEvery is the save period in batches (default 1).
	CheckpointEvery int
	// CheckpointKeep is the retention passed to ckpt.Options (minimum 2).
	CheckpointKeep int
	// Resume starts from the newest verified checkpoint in CheckpointDir
	// instead of batch 0; batches before the resume point are not replayed
	// and their Losses entries stay zero (see Result.StartBatch).
	Resume bool
	// MaxRestarts bounds in-process recovery attempts after a fabric abort
	// (rank failure or deadline). 0 means the default of 2; negative
	// disables recovery so the first abort surfaces as Result.Err.
	MaxRestarts int

	// Net, when non-nil, runs the fabric over TCP across multiple
	// cooperating processes instead of in-process channels. This process
	// hosts only its contiguous rank block; checkpointing and Resume
	// require CheckpointDir on a filesystem shared by all processes.
	Net *NetConfig
}

// NetConfig describes a multi-process TCP fabric (see internal/comm/tcp).
// Every process of the run must pass identical Peers and an identical
// training Config apart from Proc.
type NetConfig struct {
	// Peers lists one listen address per process; the fabric's ranks are
	// split into contiguous blocks over the processes in this order.
	Peers []string
	// Proc is this process's index into Peers.
	Proc int
	// DialTimeout bounds fabric construction per attempt, including the
	// wait for a crashed peer process to be restarted during recovery
	// (0 = the transport default of 15s).
	DialTimeout time.Duration
}

// tag names the training configuration for the checkpoint manifest: a
// checkpoint only resumes into the same parallel layout and mode.
func (c Config) tag() string {
	t := fmt.Sprintf("axonn:g%dx%d:mb%d:%v", c.Ginter, c.Gdata, c.Microbatch, c.Mode)
	if s := c.PruneSchedule; s != nil {
		scope := "layer"
		if s.Global {
			scope = "global"
		}
		t += fmt.Sprintf(":gp%g-%g@%d-%d/%d:%s",
			s.Initial, s.Final, s.BeginStep, s.EndStep, s.Frequency, scope)
	}
	return t
}

// GPUs returns the total rank count.
func (c Config) GPUs() int { return c.Ginter * c.Gdata }

// Batch is one global training batch. Input's leading dimension holds
// Samples × SampleRows rows (SampleRows = sequence length for token models,
// 1 for image/vector models); Targets has one entry per row.
type Batch struct {
	Input      *tensor.Tensor
	Targets    []int
	SampleRows int
	Samples    int
}

// Builder constructs a fresh, deterministically initialized model. It is
// called once per rank; every invocation must produce identical parameters
// (use a fixed RNG seed), mirroring how every GPU loads the same checkpoint.
type Builder func() *nn.Model

// OptBuilder constructs a fresh optimizer per rank.
type OptBuilder func() optim.Optimizer

// Result aggregates a training run's outputs.
type Result struct {
	// Losses holds the mean unscaled loss of each batch (averaged over
	// data-parallel groups), indexed by global batch. Entries before
	// StartBatch were not trained in this process (Resume) and stay zero.
	Losses []float64
	// SkippedSteps counts loss-scale overflow skips (cumulative across a
	// resume, restored from the checkpoint).
	SkippedSteps int
	// Fabric exposes traffic statistics for assertions on communication
	// volume (e.g. compressed vs dense all-reduce payloads). After a
	// recovery it is the LAST fabric; aborted fabrics are closed and
	// discarded with the hardware they model.
	Fabric *comm.Fabric
	// Err is the terminal error: bad config, or a fabric abort that
	// exhausted MaxRestarts. A successful (possibly recovered) run has nil.
	Err error
	// Restarts counts in-process recoveries that were needed.
	Restarts int
	// StartBatch is the first batch index actually trained (non-zero under
	// Resume).
	StartBatch int
	// Warnings surfaces non-fatal degradations: checkpoints skipped as
	// corrupt or incomplete during resume, and each abort that was
	// recovered from.
	Warnings []string
	// StageStates holds each pipeline stage's serialized ModelState
	// (core snapshot bytes) at the end of a successful run, from the
	// data-group-0 replica: what a checkpoint of the last step holds.
	StageStates [][]byte
}

// Train runs len(batches) training iterations under the given layout and
// returns per-batch losses. pr may be nil for unpruned dense training.
// Config errors and fabric aborts surface in Result.Err; when checkpointing
// is enabled, a fabric abort (injected fault, rank failure, deadline) is
// recovered in-process: the fabric is torn down, a fresh one built, state
// reloaded from the newest durable checkpoint, and the remaining batches
// replayed deterministically — the recovered run is bitwise-identical to an
// uninterrupted one.
func Train(cfg Config, build Builder, optb OptBuilder, pr *prune.Result, batches []Batch) Result {
	var res Result
	if err := validate(cfg, batches); err != nil {
		res.Err = err
		return res
	}
	if cfg.Mode == core.SAMO && pr == nil {
		res.Err = fmt.Errorf("axonn: SAMO mode requires a pruning result")
		return res
	}
	// Probe-build once so a partition mismatch is a config error here, not
	// a panic inside a rank goroutine.
	if n := len(build().Layers); cfg.Ginter > n {
		res.Err = fmt.Errorf("axonn: %d pipeline stages for %d layers", cfg.Ginter, n)
		return res
	}

	var mgr *ckpt.Manager
	every := cfg.CheckpointEvery
	if every < 1 {
		every = 1
	}
	if cfg.CheckpointDir != "" {
		var err error
		mgr, err = ckpt.New(ckpt.Options{
			Dir:    cfg.CheckpointDir,
			Shards: cfg.Ginter,
			Keep:   cfg.CheckpointKeep,
			Tag:    cfg.tag(),
		})
		if err != nil {
			res.Err = err
			return res
		}
	}

	maxRestarts := cfg.MaxRestarts
	switch {
	case maxRestarts == 0:
		maxRestarts = 2
	case maxRestarts < 0:
		maxRestarts = 0
	}

	start := 0
	if cfg.Resume && mgr != nil {
		if step, warns, ok := mgr.LatestStep(); ok {
			res.Warnings = append(res.Warnings, warns...)
			start = min(step, len(batches))
		}
	}
	res.StartBatch = start
	res.Losses = make([]float64, len(batches))

	for attempt := 0; ; attempt++ {
		f, ferr := newFabric(cfg)
		if ferr != nil {
			res.Err = ferr
			return res
		}
		if attempt == 0 {
			f.InjectFaults(cfg.Fault)
		}
		if cfg.CollectiveDeadline > 0 {
			f.SetDeadline(cfg.CollectiveDeadline)
		}
		workers := make([]*worker, cfg.GPUs())
		errs := make([]error, cfg.GPUs())
		var wg sync.WaitGroup
		for r := 0; r < cfg.GPUs(); r++ {
			if !f.IsLocal(r) {
				continue // hosted by a peer process
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rk := f.Rank(r)
				// A panic anywhere in the stack must poison the fabric, or
				// the surviving ranks deadlock on the dead one's messages.
				defer func() {
					if p := recover(); p != nil {
						errs[r] = rk.Fail(fmt.Errorf("panic: %v", p))
					}
				}()
				w := newWorker(cfg, rk, build, optb, pr)
				workers[r] = w
				errs[r] = w.runFrom(batches, start, mgr, every, res.Losses)
			}(r)
		}
		wg.Wait()

		// Success is judged by the local workers, not the fabric: once every
		// local rank has trained every batch the attempt is complete, and a
		// poison arriving afterwards is teardown noise — over TCP, a peer
		// process that finishes first and exits EOFs its sockets, which must
		// not turn a completed run into a spurious restart. The fabric error
		// is consulted only when a worker actually failed, because it records
		// the first (root-cause) poison rather than a secondary unwind.
		var err error
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
		if err != nil {
			if fe := f.Err(); fe != nil {
				err = fe
			}
		}
		if err == nil {
			res.Fabric = f
			if lw := workers[lastStageRank(cfg, 0)]; lw != nil {
				res.SkippedSteps = lw.state.SkippedSteps()
			}
			res.StageStates = make([][]byte, cfg.Ginter)
			for stage := 0; stage < cfg.Ginter; stage++ {
				w := workers[stage] // data-group-0 replica of this stage
				if w == nil {
					continue // lives in a peer process
				}
				var buf bytes.Buffer
				if _, serr := w.state.Save(&buf); serr != nil {
					res.Err = serr
					return res
				}
				res.StageStates[stage] = buf.Bytes()
			}
			return res
		}

		f.Close() // poison stragglers (none left) and drain pooled buffers
		if !recoverable(err) || attempt >= maxRestarts {
			res.Err = err
			res.Fabric = f
			return res
		}
		res.Restarts++
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("axonn: recovering from abort (attempt %d): %v", attempt+1, err))
		start = 0
		if mgr != nil {
			if step, warns, ok := mgr.LatestStep(); ok {
				res.Warnings = append(res.Warnings, warns...)
				start = min(step, len(batches))
			}
		}
	}
}

// newFabric builds the attempt's fabric: in-process channels by default, a
// fresh TCP mesh per attempt when cfg.Net is set — recovery replaces the
// connections along with the fabric, waiting (within DialTimeout) for a
// killed peer process to be restarted and re-dial.
func newFabric(cfg Config) (*comm.Fabric, error) {
	if cfg.Net == nil {
		return comm.NewFabric(cfg.GPUs()), nil
	}
	tr, err := tcp.Connect(tcp.Config{
		Addrs:       cfg.Net.Peers,
		Proc:        cfg.Net.Proc,
		Ranks:       cfg.GPUs(),
		DialTimeout: cfg.Net.DialTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("axonn: building tcp fabric: %w", err)
	}
	return comm.NewFabricOver(tr), nil
}

// recoverable reports whether err is a fabric abort that a restart can heal
// (a failed rank or a tripped deadline) rather than a config or I/O error
// that would just fail again.
func recoverable(err error) bool {
	var rf *comm.RankFailedError
	var de *comm.DeadlineError
	return errors.As(err, &rf) || errors.As(err, &de)
}

func lastStageRank(cfg Config, dataGroup int) int {
	return dataGroup*cfg.Ginter + cfg.Ginter - 1
}

func validate(cfg Config, batches []Batch) error {
	if cfg.Ginter < 1 || cfg.Gdata < 1 || cfg.Microbatch < 1 {
		return fmt.Errorf("axonn: bad config: Ginter=%d Gdata=%d Microbatch=%d (all must be ≥1)",
			cfg.Ginter, cfg.Gdata, cfg.Microbatch)
	}
	if cfg.PruneSchedule != nil {
		if err := cfg.PruneSchedule.Validate(); err != nil {
			return fmt.Errorf("axonn: %w", err)
		}
		if cfg.PruneSchedule.Global && cfg.Ginter > 1 {
			return fmt.Errorf("axonn: a global prune schedule needs Ginter=1, not %d: each pipeline stage ranks only its own weights, so the pattern would depend on the stage split", cfg.Ginter)
		}
	}
	for i, b := range batches {
		if b.Samples%cfg.Gdata != 0 {
			return fmt.Errorf("axonn: batch %d of %d samples not divisible by Gdata=%d", i, b.Samples, cfg.Gdata)
		}
		shard := b.Samples / cfg.Gdata
		if shard%cfg.Microbatch != 0 {
			return fmt.Errorf("axonn: batch %d shard of %d samples not divisible by microbatch=%d", i, shard, cfg.Microbatch)
		}
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return fmt.Errorf("axonn: Resume requires CheckpointDir")
	}
	return nil
}

// worker is one rank: a pipeline stage within a data-parallel group.
type worker struct {
	cfg   Config
	rk    *comm.Rank
	stage int
	dgrp  int

	model  *nn.Model // this stage's layers only
	state  *core.ModelState
	pruner *core.GradualPruner // nil without a PruneSchedule

	stageGroup []int // ranks holding the same stage across data groups
	allRanks   []int
	lossGroup  []int // last-stage ranks

	arena       *tensor.Arena
	caches      map[int][]any // microbatch -> per-layer caches
	cacheFree   [][]any       // recycled cache slices
	flagBuf     []float32     // overflow-consensus payload
	lossBuf     []float32     // loss-average payload
	first, last bool

	// Per-batch state (reset by trainBatch; fields rather than closure
	// captures so the steady-state batch loop does not allocate).
	shardIn      *tensor.Tensor
	shardTargets []int
	mCount       int
	gradScale    float32
	batchLoss    float64
	fwdDone      int
	bwdDone      int
	injected     int
}

func newWorker(cfg Config, rk *comm.Rank, build Builder, optb OptBuilder, pr *prune.Result) *worker {
	stage := rk.ID() % cfg.Ginter
	dgrp := rk.ID() / cfg.Ginter

	full := build()
	lo, hi := partition(len(full.Layers), cfg.Ginter, stage)
	stageModel := &nn.Model{Name: fmt.Sprintf("%s[%d:%d]", full.Name, lo, hi), Layers: full.Layers[lo:hi]}
	state := core.NewModelState(stageModel, optb(), cfg.Mode, pr)
	if cfg.InitialLossScale > 0 {
		state.Scaler.Scale = cfg.InitialLossScale
	}

	w := &worker{
		cfg: cfg, rk: rk, stage: stage, dgrp: dgrp,
		model: stageModel, state: state,
		arena:   tensor.NewArena(),
		caches:  make(map[int][]any),
		flagBuf: make([]float32, 1),
		lossBuf: make([]float32, 1),
		first:   stage == 0,
		last:    stage == cfg.Ginter-1,
	}
	for d := 0; d < cfg.Gdata; d++ {
		w.stageGroup = append(w.stageGroup, d*cfg.Ginter+stage)
		w.lossGroup = append(w.lossGroup, lastStageRank(cfg, d))
	}
	for r := 0; r < cfg.GPUs(); r++ {
		w.allRanks = append(w.allRanks, r)
	}
	if cfg.PruneSchedule != nil {
		// The schedule was validated with the config; a stage with no
		// prunable parameters gets a no-op pruner.
		w.pruner, _ = core.NewGradualPruner(state, *cfg.PruneSchedule)
	}
	return w
}

// partition splits n layers into g contiguous chunks (earlier chunks get
// the remainder, matching AxoNN's contiguous layer assignment).
func partition(n, g, idx int) (lo, hi int) {
	if g > n {
		panic(fmt.Sprintf("axonn: %d stages for %d layers", g, n))
	}
	base, rem := n/g, n%g
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// runFrom trains batches[start:], loading this stage's shard of checkpoint
// `start` first when resuming. The data-group-0 replica of each stage is
// the checkpoint saver: after the global overflow consensus all replicas
// are bitwise-identical, so one copy per stage suffices, and a checkpoint
// at step i+1 captures the state after batch i. losses is indexed by global
// batch and written only by the data-group-0 last-stage rank.
func (w *worker) runFrom(batches []Batch, start int, mgr *ckpt.Manager, every int, losses []float64) error {
	if w.rk.RemotePeers() {
		// Multi-process run: the processes may briefly disagree about the
		// newest durable checkpoint (a peer can die between its own save
		// and ours). Rank 0's start step is authoritative: the sum of it
		// and every other rank's 0 is exact, so every process resumes from
		// the same batch.
		w.flagBuf[0] = 0
		if w.rk.ID() == 0 {
			w.flagBuf[0] = float32(start)
		}
		if err := w.rk.AllReduce(w.allRanks, w.flagBuf); err != nil {
			return err
		}
		start = int(w.flagBuf[0])
	}
	if start > 0 {
		if err := mgr.Load(start, w.stage, w.state); err != nil {
			return w.rk.Fail(err)
		}
	}
	saver := mgr != nil && w.dgrp == 0
	for i := start; i < len(batches); i++ {
		if err := w.rk.BeginStep(i); err != nil {
			return err
		}
		loss, err := w.trainBatch(batches[i])
		if err != nil {
			return err
		}
		// Gradual-pruning events run after the batch's overflow consensus
		// and optimizer step, so every replica shrinks from identical θ32;
		// a checkpoint at step i+1 then carries the post-event pattern.
		if w.pruner != nil {
			w.pruner.MaybePrune(i)
		}
		if w.last && w.dgrp == 0 {
			losses[i] = loss
		}
		if saver && ((i+1)%every == 0 || i == len(batches)-1) {
			if err := mgr.Save(i+1, w.stage, w.state); err != nil {
				return w.rk.Fail(err)
			}
			if w.stage == 0 {
				if err := mgr.Prune(); err != nil {
					return w.rk.Fail(err)
				}
			}
		}
	}
	return nil
}

// getCaches pops a recycled per-layer cache slice (or makes one).
func (w *worker) getCaches() []any {
	if l := len(w.cacheFree); l > 0 {
		c := w.cacheFree[l-1]
		w.cacheFree = w.cacheFree[:l-1]
		return c
	}
	return make([]any, len(w.model.Layers))
}

func (w *worker) putCaches(c []any) {
	for i := range c {
		c[i] = nil
	}
	w.cacheFree = append(w.cacheFree, c)
}

// microInput views microbatch mb of this rank's shard: a sample spans
// SampleRows rows for token models and one dim-0 entry for image/vector
// models (SampleRows = 1).
func (w *worker) microInput(mb int, rowsPerMB int) *tensor.Tensor {
	return w.arena.SliceOf(w.shardIn, mb*rowsPerMB, (mb+1)*rowsPerMB)
}

func (w *worker) microTargets(mb, rowsPerMB int) []int {
	lo := mb * rowsPerMB
	return w.shardTargets[lo : lo+rowsPerMB]
}

// forward runs one microbatch through this stage, then either starts the
// backward (last stage) or ships the activation downstream.
func (w *worker) forward(mb int, x *tensor.Tensor, rowsPerMB int) error {
	caches := w.getCaches()
	y := w.model.ForwardArena(w.arena, x, true, caches)
	w.caches[mb] = caches
	w.fwdDone++
	if w.last {
		loss, grad := nn.CrossEntropyArena(w.arena, y, w.microTargets(mb, rowsPerMB))
		w.batchLoss += loss / float64(w.mCount)
		tensor.Scale(grad, w.gradScale)
		if err := w.backward(mb, grad); err != nil {
			return err
		}
		w.bwdDone++
		return nil
	}
	return w.rk.Send(w.rk.ID()+1, comm.TagActivation, mb, y.Data(), y.Shape()...)
}

func (w *worker) backward(mb int, grad *tensor.Tensor) error {
	caches, ok := w.caches[mb]
	if !ok {
		// A gradient for a microbatch this rank never forwarded means the
		// schedule (or a peer) is corrupt: attribute it to this rank so the
		// whole fabric unwinds with a typed error instead of panicking.
		return w.rk.Fail(fmt.Errorf("axonn: gradient for unknown microbatch %d on rank %d", mb, w.rk.ID()))
	}
	delete(w.caches, mb)
	gin := w.model.BackwardArena(w.arena, caches, grad, w.state.GradHook())
	w.putCaches(caches)
	if !w.first {
		return w.rk.Send(w.rk.ID()-1, comm.TagGradient, mb, gin.Data(), gin.Shape()...)
	}
	return nil
}

// trainBatch drives one batch through the pipeline with message-driven
// scheduling, reduces gradients across the data-parallel group, and steps.
// The entire steady-state path — shard views, activations, caches,
// collective chunks — runs on recycled memory; the arena reset at the end
// is safe because the overflow-consensus collective below is a global
// barrier (no peer still holds references into this batch's payloads).
func (w *worker) trainBatch(global Batch) (float64, error) {
	cfg := w.cfg
	per := global.Samples / cfg.Gdata
	rowsShard := per * global.SampleRows
	lo := w.dgrp * rowsShard
	w.shardIn = w.arena.SliceOf(global.Input, lo, lo+rowsShard)
	w.shardTargets = global.Targets[lo : lo+rowsShard]

	m := per / cfg.Microbatch
	w.mCount = m
	// No gradient clear: capture leaves the state's gradient scratch zero,
	// and a batch that aborts ends the attempt, whose worker Train rebuilds.

	// Loss-gradient normalization: each microbatch's CrossEntropy gradient
	// is a mean over its own rows; scaling by 1/(M·Gdata) makes the summed,
	// all-reduced gradient the mean over the global batch.
	w.gradScale = w.state.LossScale() / float32(m*cfg.Gdata)
	w.batchLoss = 0
	w.fwdDone, w.bwdDone, w.injected = 0, 0, 0
	rowsPerMB := cfg.Microbatch * global.SampleRows

	// Warmup: stage 0 injects up to Ginter forwards (1F1B's in-flight
	// bound — exactly the memory-limiting behaviour AxoNN manages). With a
	// single stage there is no pipeline and every microbatch runs inline.
	if w.first {
		for w.injected < m && (w.injected < cfg.Ginter || w.last) {
			if err := w.forward(w.injected, w.microInput(w.injected, rowsPerMB), rowsPerMB); err != nil {
				return 0, err
			}
			w.injected++
		}
	}

	// Message-driven loop: process whatever arrives (§II-E). A poisoned
	// fabric surfaces here as a Recv error: the batch aborts mid-flight and
	// the engine restarts from the last durable checkpoint — per-batch
	// state (arena, caches) is torn down with the worker.
	for w.fwdDone < m || w.bwdDone < m {
		msg, err := w.rk.Recv()
		if err != nil {
			return 0, err
		}
		switch msg.Tag {
		case comm.TagActivation:
			if err := w.forward(msg.MB, w.arena.Wrap(msg.Data, msg.Shape...), rowsPerMB); err != nil {
				return 0, err
			}
		case comm.TagGradient:
			if err := w.backward(msg.MB, w.arena.Wrap(msg.Data, msg.Shape...)); err != nil {
				return 0, err
			}
			w.bwdDone++
			if w.first && w.injected < m {
				if err := w.forward(w.injected, w.microInput(w.injected, rowsPerMB), rowsPerMB); err != nil {
					return 0, err
				}
				w.injected++
			}
		default:
			return 0, w.rk.Fail(fmt.Errorf("axonn: unexpected message tag %v", msg.Tag))
		}
	}

	// Data-parallel phase: all-reduce the (compressed under SAMO) ∇θ16 slab
	// across the stage group in one call — §IV-A. It holds fp16-grid values,
	// so it goes through AllReduceHalf, at the paper's two bytes per element
	// when the group has 2 or 3 ranks.
	if err := w.rk.AllReduceHalf(w.stageGroup, w.state.ReduceBuffer()); err != nil {
		return 0, err
	}

	// Global overflow consensus so every rank agrees to step or skip. This
	// collective doubles as the batch-end barrier that makes the arena
	// reset below safe — and the reason a checkpoint at step k+1 can only
	// exist if EVERY rank finished batch k.
	w.flagBuf[0] = 0
	if w.state.Overflow() {
		w.flagBuf[0] = 1
	}
	if err := w.rk.AllReduce(w.allRanks, w.flagBuf); err != nil {
		return 0, err
	}
	w.state.StepGiven(w.flagBuf[0] > 0)

	// Average the reported loss across data-parallel groups (float64 stays
	// intact when there is only one group).
	if w.last && cfg.Gdata > 1 {
		w.lossBuf[0] = float32(w.batchLoss)
		if err := w.rk.AllReduce(w.lossGroup, w.lossBuf); err != nil {
			return 0, err
		}
		w.batchLoss = float64(w.lossBuf[0]) / float64(cfg.Gdata)
	}

	w.shardIn = nil
	w.shardTargets = nil
	w.arena.Reset()
	return w.batchLoss, nil
}

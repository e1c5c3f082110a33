// Package serve runs forward-only models behind a dynamic micro-batching
// engine: concurrent callers submit single samples, a batching loop takes
// whatever is queued (never more than MaxBatch, never holding a batch open
// on a timer), pads it to the next power of two and runs one forward, and a
// bounded admission queue turns overload into immediate backpressure instead
// of unbounded latency.
//
// The engine's determinism contract: a response equals the offline
// inference forward of the sample ALONE, bit for bit — whatever shared its
// batch, whatever bucket it rode in, whatever the traffic. Every forward
// kernel computes an output row from that row's inputs alone, identically at
// every batch height, worker count and GEMM autotuner candidate (the
// row-invariance contract stated above tensor's gemm), so the engine is free
// to size each batch to what arrived. Two choices follow from the forward
// costing the same per row at every height:
//
//   - No gather window. A fuller batch is never cheaper per sample, so
//     holding a request back only adds latency; under load the queue fills
//     while a forward runs and batches grow by themselves.
//   - Power-of-two buckets, not exact fit. tensor.Arena keys its free lists
//     by exact size, so every distinct batch height retains its own working
//     set: exact fit keeps Σk/8 = 4.5× the bucket-8 set, pow2 at most 1.875×
//     (Stats.ArenaBytes; pinned by TestServeArenaBytesBounded).
package serve

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/tensor"
)

var (
	// ErrOverloaded is returned by Infer when the admission queue is full:
	// the caller sheds load (or retries with backoff) instead of queueing
	// without bound.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned by Infer after Close has begun draining.
	ErrClosed = errors.New("serve: engine closed")
)

// PanicError is what every request of a batch gets when the model's forward
// panicked on it (an out-of-vocabulary token id, say): the batch fails, the
// engine keeps serving. Value is the recovered panic value.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("serve: forward panicked: %v", e.Value) }

// Config tunes the batching engine. The zero value gets serving defaults.
type Config struct {
	// MaxBatch is the largest number of samples gathered into one forward
	// (default 8); a gathered batch pads to the next power of two.
	MaxBatch int
	// QueueDepth bounds the admission queue (default 4×MaxBatch). A full
	// queue rejects with ErrOverloaded.
	QueueDepth int
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Requests      int64 // samples admitted and answered
	Batches       int64 // forward passes that answered them
	PaddedSamples int64 // replicated padding samples across those batches
	Rejected      int64 // ErrOverloaded rejections
	Failed        int64 // samples admitted whose batch failed (see PanicError)
	ArenaBytes    int64 // activation bytes the inferencer's arenas retain
}

// MeanBatch is the average samples per forward (0 before the first batch).
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// request is one admitted sample riding the queue to the batching loop.
type request struct {
	x    *tensor.Tensor // caller-owned; read once during batch assembly
	resp *tensor.Tensor // engine-allocated; caller-owned after done
	err  error
	done chan struct{}
}

// Engine serves an InferenceState. One batching goroutine owns the
// Inferencer (whose arenas are not concurrency-safe); any number of
// goroutines may call Infer concurrently.
type Engine struct {
	inf *core.Inferencer
	cfg Config

	mu     sync.RWMutex // closed/queue lifecycle; RLock on the submit path
	closed bool
	queue  chan *request

	// Sample-shape contract, fixed by the first admitted request: every
	// sample must share it, so batch buffers recycle by padded size alone.
	shapeMu sync.Mutex
	shape   []int

	done chan struct{} // batching loop exited

	// Batching-loop state (single goroutine; no locks).
	batchScratch []*request
	inBufs       map[int]*tensor.Tensor // padded sample count -> input buffer

	statMu sync.Mutex
	stats  Stats
}

// New builds an engine over a forward-only state and starts its batching
// loop. Call Close to drain and stop it.
func New(st *core.InferenceState, cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		inf:    core.NewInferencer(st),
		cfg:    cfg,
		queue:  make(chan *request, cfg.QueueDepth),
		done:   make(chan struct{}),
		inBufs: make(map[int]*tensor.Tensor),
	}
	go e.loop()
	return e
}

// Infer submits one sample and blocks until its outputs are ready. x is one
// sample — for an MLP a (1, features) row, for a GPT model a (seq, 1)
// token column, for a CNN a (1, c, h, w) image — and every sample the
// engine ever sees must share one shape (the first request fixes it). The
// caller must not mutate x until Infer returns; the returned tensor is
// freshly allocated and owned by the caller, and its bits equal the offline
// inference forward of x alone (Model.Infer, Inferencer.Forward), whatever
// batch it rode in. A sample the model panics on fails its whole batch with
// a *PanicError; the engine keeps serving.
func (e *Engine) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x == nil || x.Rank() == 0 || x.Dim(0) < 1 {
		return nil, fmt.Errorf("serve: invalid sample tensor")
	}
	if err := e.checkShape(x); err != nil {
		return nil, err
	}
	r := &request{x: x, done: make(chan struct{})}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case e.queue <- r:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.statMu.Lock()
		e.stats.Rejected++
		e.statMu.Unlock()
		return nil, ErrOverloaded
	}
	<-r.done
	return r.resp, r.err
}

func (e *Engine) checkShape(x *tensor.Tensor) error {
	e.shapeMu.Lock()
	defer e.shapeMu.Unlock()
	if e.shape == nil {
		e.shape = append([]int(nil), x.Shape()...)
		return nil
	}
	got := x.Shape()
	if len(got) != len(e.shape) {
		return fmt.Errorf("serve: sample shape %v does not match engine shape %v", got, e.shape)
	}
	for i, d := range e.shape {
		if got[i] != d {
			return fmt.Errorf("serve: sample shape %v does not match engine shape %v", got, e.shape)
		}
	}
	return nil
}

// Close drains gracefully: admission stops (ErrClosed), every already-
// queued request is served, the batching loop exits, and the GEMM
// autotuner's table flushes to its persisted file so the next process
// starts warm. Safe to call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	<-e.done
	return tensor.FlushTuneTable()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	return e.stats
}

func (e *Engine) loop() {
	defer close(e.done)
	for r := range e.queue {
		e.runBatch(e.gather(r))
	}
}

// gather assembles one batch: the leading request plus whatever is already
// queued, up to MaxBatch. It never waits on a clock (see the package
// comment), but it yields the processor once first, so that callers who are
// already runnable — in a closed loop, the ones the previous batch just
// answered — submit before the queue is read and ride in this batch. Without
// the yield the loop and the one caller that woke it trade the processor
// through the scheduler's run-next slot, which inherits the time slice, and
// every other runnable caller waits out its 10 ms: 12 closed-loop clients on
// a 0.1 ms forward measured p99 12–20 ms, against 2 ms with it. With nothing
// else runnable the yield returns at once.
func (e *Engine) gather(first *request) []*request {
	batch := append(e.batchScratch[:0], first)
	runtime.Gosched()
	// The loop is the queue's only receiver, so a non-empty queue cannot
	// block the receive (a closed one still yields what it buffered).
	for len(batch) < e.cfg.MaxBatch && len(e.queue) > 0 {
		batch = append(batch, <-e.queue)
	}
	e.batchScratch = batch
	return batch
}

// ceilPow2 returns the smallest power of two ≥ n.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// runBatch pads the gathered samples to their power-of-two bucket
// (replicating the last sample, so padding rows exercise the exact kernels
// real rows do), runs one windowed inference forward, and slices each
// request's rows out of the batch output into its own response tensor.
func (e *Engine) runBatch(batch []*request) {
	k := len(batch)
	kPad := ceilPow2(k)
	s0 := batch[0].x.Dim(0)
	sampleLen := batch[0].x.Len()

	in, ok := e.inBufs[kPad]
	if !ok {
		shape := append([]int{kPad * s0}, batch[0].x.Shape()[1:]...)
		in = tensor.New(shape...)
		e.inBufs[kPad] = in
	}
	dst := in.Data()
	for i, r := range batch {
		copy(dst[i*sampleLen:(i+1)*sampleLen], r.x.Data())
	}
	last := batch[k-1].x.Data()
	for i := k; i < kPad; i++ {
		copy(dst[i*sampleLen:(i+1)*sampleLen], last)
	}

	y, err := e.forward(in)
	if err == nil && y.Dim(0)%kPad != 0 {
		err = fmt.Errorf("serve: model output dim 0 %d not divisible by batch %d", y.Dim(0), kPad)
	}
	if err != nil {
		e.fail(batch, err)
		return
	}
	// Counted before answered, so a caller holding its response reads
	// Stats that include it.
	e.statMu.Lock()
	e.stats.Requests += int64(k)
	e.stats.Batches++
	e.stats.PaddedSamples += int64(kPad - k)
	e.stats.ArenaBytes = e.inf.ArenaBytes()
	e.statMu.Unlock()

	rps := y.Dim(0) / kPad // output rows per sample
	rowLen := y.Len() / y.Dim(0)
	outShape := append([]int{rps}, y.Shape()[1:]...)
	src := y.Data()
	for i, r := range batch {
		r.resp = tensor.New(outShape...)
		copy(r.resp.Data(), src[i*rps*rowLen:(i+1)*rps*rowLen])
		close(r.done)
	}
}

// forward runs the model, turning a panic in it — the one thing on the
// batching goroutine that a request's contents can cause — into a
// *PanicError, so that it fails one batch and not the process. Nothing needs
// cleaning up: the next Forward resets both arenas on entry, reclaiming
// whatever the abandoned pass held.
func (e *Engine) forward(in *tensor.Tensor) (y *tensor.Tensor, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v}
		}
	}()
	return e.inf.Forward(in), nil
}

// fail answers every request of batch with err.
func (e *Engine) fail(batch []*request, err error) {
	e.statMu.Lock()
	e.stats.Failed += int64(len(batch))
	e.statMu.Unlock()
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
}

package comm

import "time"

// Async collective lane.
//
// AllReduceHalfAsync hands a gradient reduce off to a per-Rank worker
// goroutine and returns a handle immediately; the caller overlaps its own
// compute and calls Wait when it needs the result. The lane carries only
// AllReduceHalf: the reduces worth hiding behind backward are the ∇θ16
// buckets, and the rest (the overflow flag, the loss) are one-element
// synchronous AllReduces. The worker executes queued operations SERIALLY
// in launch order — that, plus every rank launching the same operations in
// the same order, preserves the fabric's FIFO
// (from, tag) matching invariant with no new wire protocol, and means
// results are bitwise-identical to issuing the same calls synchronously.
//
// Concurrency contract (single-owner, no locks): between a launch and the
// completion of its Wait, the owner goroutine must not touch the Rank's
// matching state — i.e. no synchronous collectives and no Recv-side
// reordering while handles are outstanding. The engine obeys this by
// draining every handle before its next synchronous collective. The
// happens-before edges are the queue send (owner → worker) and the done
// receive (worker → owner); under that discipline the shared Rank fields
// (pending, bounds, ops) are data-race free.
//
// Fault behaviour matches the synchronous path exactly: the worker runs the
// same collective bodies, which race the fabric's poison channel and fire
// the same CrashAtOp/deadline fault points, so a poisoned fabric unwinds
// every in-flight and queued operation and Wait returns the typed error.

// asyncQueueDepth bounds the launch queue. Deep enough that a full model's
// bucket list launches without ever blocking the backward pass; if it does
// fill, the owner blocks on the send while the worker drains — progress,
// not deadlock, since matched peers run independently.
const asyncQueueDepth = 64

// asyncOp is one queued reduce.
type asyncOp struct {
	group []int
	buf   []float32
	h     *ReduceHandle
}

// ReduceHandle tracks one in-flight async all-reduce. Handles are pooled on
// the owning Rank: Wait returns the handle to the pool, so steady-state
// launch/wait cycles allocate nothing. A handle is single-use — do not Wait
// twice, and do not retain it after Wait.
type ReduceHandle struct {
	rk   *Rank
	done chan error // buffered (cap 1): the worker never blocks completing
}

// AllReduceHalfAsync launches AllReduceHalf of buf over group on the async
// lane and returns immediately. buf must stay untouched until Wait returns.
func (rk *Rank) AllReduceHalfAsync(group []int, buf []float32) *ReduceHandle {
	if rk.asyncCh == nil {
		rk.asyncCh = make(chan asyncOp, asyncQueueDepth)
		rk.asyncDone = make(chan struct{})
		go rk.asyncWorker()
	}
	h := rk.getHandle()
	rk.asyncCh <- asyncOp{group: group, buf: buf, h: h}
	return h
}

func (rk *Rank) asyncWorker() {
	defer close(rk.asyncDone)
	for op := range rk.asyncCh {
		op.h.done <- rk.allReduceHalf(op.group, op.buf)
	}
}

func (rk *Rank) getHandle() *ReduceHandle {
	if n := len(rk.freeHandles); n > 0 {
		h := rk.freeHandles[n-1]
		rk.freeHandles = rk.freeHandles[:n-1]
		return h
	}
	return &ReduceHandle{rk: rk, done: make(chan error, 1)}
}

// Wait blocks until the reduce completes (or the fabric is poisoned, in
// which case the collective body has already unwound and delivered the
// typed error). Only the time actually spent blocked here counts as exposed
// collective time — a reduce that finished behind compute costs nothing.
// Wait recycles the handle; it must not be used again.
func (h *ReduceHandle) Wait() error {
	var err error
	select {
	case err = <-h.done:
		// Completed behind compute: fully hidden, no exposed time.
	default:
		start := time.Now()
		err = <-h.done
		h.rk.f.stats[h.rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	}
	h.rk.freeHandles = append(h.rk.freeHandles, h)
	return err
}

// CloseAsync shuts down the rank's async lane, waiting for the worker to
// finish any queued operations (on a poisoned fabric they unwind
// immediately). Safe to call when the lane was never started, and the lane
// restarts lazily on the next launch. Callers must not hold un-Waited
// handles across CloseAsync — drain first.
func (rk *Rank) CloseAsync() {
	if rk.asyncCh == nil {
		return
	}
	close(rk.asyncCh)
	<-rk.asyncDone
	rk.asyncCh = nil
	rk.asyncDone = nil
}

package comm

// Fault model. A Fabric is born healthy; a rank failure — injected by a
// FaultPlan in tests, or detected by the collective deadline in production —
// POISONS the fabric: a single typed error is recorded once and a
// fabric-wide channel is closed, so every blocking primitive (Recv,
// collective sends and receives) unwinds promptly with that error instead
// of deadlocking on a peer that will never answer. Poisoning is one-way and
// idempotent: the first error wins, later failures are ignored, and a
// poisoned fabric can only be torn down (Close) and replaced. Recovery —
// rebuilding ranks and resuming from a durable checkpoint — is the
// engine's job (internal/axonn + internal/ckpt); the fabric only
// guarantees that failure is prompt, typed and deterministic.

import (
	"errors"
	"fmt"
	"time"
)

// RankFailedError reports that a rank died (by fault injection or an
// engine-level failure attributed to a rank). Step is the engine step the
// rank had most recently begun (via BeginStep; -1 before the first step).
type RankFailedError struct {
	Rank int
	Step int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("comm: rank %d failed at step %d", e.Rank, e.Step)
}

// DeadlineError reports that a blocking receive gave up after the
// configured collective deadline — the backstop detector for a peer that
// stalled or died without poisoning the fabric (e.g. a dropped message).
type DeadlineError struct {
	Rank    int
	Step    int
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: rank %d timed out after %v at step %d (peer stalled or dead)",
		e.Rank, e.Timeout, e.Step)
}

// ErrFabricClosed is the poison recorded by Close on a healthy fabric.
var ErrFabricClosed = errors.New("comm: fabric closed")

// FaultPlan is a deterministic fault-injection schedule for one Fabric.
// Every field is evaluated on fixed counters (engine step index, per-rank
// collective entry count, fabric-wide p2p message count), so a plan replays
// identically on every run — fault scenarios are tests, not dice rolls.
// Inject with Fabric.InjectFaults before handing out Ranks.
type FaultPlan struct {
	// CrashAtStep maps rank -> engine step: the rank dies (poisons the
	// fabric with RankFailedError) when BeginStep is called with that step.
	CrashAtStep map[int]int
	// CrashAtOp maps rank -> 0-based collective-entry index: the rank dies
	// entering its Nth collective call, mid-batch crash points included.
	CrashAtOp map[int]int
	// DropP2PEvery drops every Nth point-to-point message fabric-wide
	// (0 = none): the message is counted by the sender's stats but never
	// delivered, as on a lossy wire. The collective deadline is the
	// intended detector.
	DropP2PEvery int
	// DelayP2PEvery holds back every Nth point-to-point message and
	// re-delivers it after the next message bound for the same destination
	// (0 = none) — a deterministic reordering, not a timer.
	DelayP2PEvery int
	// Seed offsets the Drop/Delay schedules so different plans with the
	// same period hit different messages.
	Seed uint64
}

// InjectFaults arms the plan on the fabric. Call once, before the rank
// goroutines start. A nil plan is a no-op. Ranks named by the plan must
// exist (programmer error otherwise).
func (f *Fabric) InjectFaults(p *FaultPlan) {
	if p == nil {
		return
	}
	check := func(r int) {
		if r < 0 || r >= f.n {
			panic(fmt.Sprintf("comm: fault plan names rank %d outside [0,%d)", r, f.n))
		}
	}
	f.crashAtStep = make([]int, f.n)
	f.crashAtOp = make([]int, f.n)
	for i := range f.crashAtStep {
		f.crashAtStep[i] = -1
		f.crashAtOp[i] = -1
	}
	for r, s := range p.CrashAtStep {
		check(r)
		f.crashAtStep[r] = s
	}
	for r, op := range p.CrashAtOp {
		check(r)
		f.crashAtOp[r] = op
	}
	f.dropEvery = p.DropP2PEvery
	f.delayEvery = p.DelayP2PEvery
	f.faultSeed = p.Seed
	if f.delayEvery > 0 {
		f.delayed = make([]*Message, f.n)
	}
	f.faulty = true
}

// SetDeadline bounds every blocking receive (data-plane Recv and the
// collective receives). When a wait exceeds d the fabric is poisoned with a
// DeadlineError — the backstop detector for dead or stalled peers. Zero
// (the default) disables the detector; the deadline path allocates a timer
// per blocked receive, so leave it off where the zero-allocation contract
// matters more than fault detection.
func (f *Fabric) SetDeadline(d time.Duration) { f.deadlineNs.Store(int64(d)) }

func (f *Fabric) deadline() time.Duration { return time.Duration(f.deadlineNs.Load()) }

// Poison records err as the fabric's terminal error (first caller wins) and
// wakes every blocked primitive. Idempotent and safe from any goroutine.
// Engine code uses it to convert a local rank failure into a fabric-wide
// prompt unwind instead of letting peers deadlock on missing messages.
func (f *Fabric) Poison(err error) {
	if err == nil {
		err = errors.New("comm: fabric poisoned")
	}
	f.poisonOnce.Do(func() {
		f.poisonErr = err
		f.poisoned.Store(true)
		close(f.poisonCh)
		// Remote peers don't share poisonCh; tell them (best effort,
		// no-op on the local transport). After close(poisonCh) so local
		// unwinding never waits on the wire.
		f.tr.PropagatePoison(err)
	})
}

// Err returns the poison error, or nil while the fabric is healthy.
func (f *Fabric) Err() error {
	if f.poisoned.Load() {
		return f.poisonErr
	}
	return nil
}

// Close tears the fabric down: it poisons the fabric (with ErrFabricClosed
// if still healthy — an earlier failure's error is never masked) so any
// straggling rank unwinds, closes the transport's connections and
// listeners, and drains the pooled collective buffers so a replaced
// fabric's memory is reclaimed promptly.
func (f *Fabric) Close() {
	f.Poison(ErrFabricClosed)
	f.tr.Close()
	f.bufs.Drain()
}

// Fail poisons the fabric with a RankFailedError for this rank, carrying
// cause when non-nil. The engine calls it when a rank hits a local,
// non-communication failure (bad message, panic converted to error) so
// peers unwind with a typed, attributable error.
func (rk *Rank) Fail(cause error) error {
	err := &RankFailedError{Rank: rk.r, Step: rk.step}
	if cause != nil {
		rk.f.Poison(fmt.Errorf("%w: %w", err, cause))
	} else {
		rk.f.Poison(err)
	}
	return rk.f.Err()
}

// BeginStep marks the start of engine step `step` on this rank (recorded in
// failure errors), returns the poison error if the fabric is already dead,
// and fires any CrashAtStep fault scheduled for this rank.
func (rk *Rank) BeginStep(step int) error {
	rk.step = step
	if err := rk.f.Err(); err != nil {
		return err
	}
	if rk.f.crashAtStep != nil && rk.f.crashAtStep[rk.r] == step {
		err := &RankFailedError{Rank: rk.r, Step: step}
		rk.f.Poison(err)
		return err
	}
	return nil
}

// enterColl is the common prologue of every collective call: fail fast on a
// poisoned fabric and fire any CrashAtOp fault scheduled for this rank's
// Nth collective entry.
func (rk *Rank) enterColl() error {
	if err := rk.f.Err(); err != nil {
		return err
	}
	op := rk.ops
	rk.ops++
	if rk.f.crashAtOp != nil && rk.f.crashAtOp[rk.r] == op {
		err := &RankFailedError{Rank: rk.r, Step: rk.step}
		rk.f.Poison(err)
		return err
	}
	return nil
}

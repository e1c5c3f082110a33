package comm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// waitAll runs fn on every rank like runGroup but with a watchdog: a fault
// test that deadlocks is a failed test, not a hung runner.
func waitAll(t *testing.T, f *Fabric, fn func(rk *Rank)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for r := 0; r < f.Size(); r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				fn(f.Rank(r))
			}(r)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ranks deadlocked: abort path failed to unwind")
	}
}

func TestRecvAfterPoison(t *testing.T) {
	f := NewFabric(2)
	s, r := f.Rank(0), f.Rank(1)
	must(s.Send(1, TagActivation, 0, []float32{1}))
	want := &RankFailedError{Rank: 0, Step: 3}
	f.Poison(want)
	// The fast path must win even though a message is queued: a poisoned
	// fabric's history is suspect and the engine restarts from a checkpoint.
	if _, err := r.Recv(); !errors.Is(err, want) {
		t.Fatalf("Recv after poison: err=%v, want %v", err, want)
	}
	if err := s.Send(1, TagActivation, 1, []float32{2}); !errors.Is(err, want) {
		t.Fatalf("Send after poison: err=%v, want %v", err, want)
	}
	var rf *RankFailedError
	if !errors.As(f.Err(), &rf) || rf.Rank != 0 || rf.Step != 3 {
		t.Fatalf("Err() = %v, want typed RankFailedError{0,3}", f.Err())
	}
}

func TestPoisonFirstErrorWins(t *testing.T) {
	f := NewFabric(1)
	first := &RankFailedError{Rank: 0, Step: 1}
	f.Poison(first)
	f.Poison(&RankFailedError{Rank: 0, Step: 99})
	if !errors.Is(f.Err(), first) {
		t.Fatalf("second Poison overwrote first: %v", f.Err())
	}
}

func TestZeroLengthCollectivesUnderAbort(t *testing.T) {
	// Zero-length buffers take the same entry/abort path as real payloads:
	// healthy fabric reduces them fine, poisoned fabric rejects them with
	// the typed error instead of silently succeeding (the engine uses the
	// error as its abort signal, so a nil-error no-op would mask a failure).
	f := NewFabric(3)
	waitAll(t, f, func(rk *Rank) {
		if err := rk.AllReduce(group(3), nil); err != nil {
			t.Errorf("rank %d: healthy zero-length AllReduce: %v", rk.ID(), err)
		}
		if err := rk.AllReduce(group(3), []float32{}); err != nil {
			t.Errorf("rank %d: healthy empty-slice AllReduce: %v", rk.ID(), err)
		}
		if err := rk.AllReduceHalf(group(3), nil); err != nil {
			t.Errorf("rank %d: healthy zero-length AllReduceHalf: %v", rk.ID(), err)
		}
	})
	want := &RankFailedError{Rank: 1, Step: 0}
	f.Poison(want)
	waitAll(t, f, func(rk *Rank) {
		if err := rk.AllReduce(group(3), nil); !errors.Is(err, want) {
			t.Errorf("rank %d: poisoned zero-length AllReduce: %v", rk.ID(), err)
		}
		if err := rk.AllReduce(group(3), []float32{1}); !errors.Is(err, want) {
			t.Errorf("rank %d: poisoned one-element AllReduce: %v", rk.ID(), err)
		}
		if err := rk.AllReduceHalf(group(3), []float32{1}); !errors.Is(err, want) {
			t.Errorf("rank %d: poisoned one-element AllReduceHalf: %v", rk.ID(), err)
		}
		if err := rk.AllReduceHalf(group(3), nil); !errors.Is(err, want) {
			t.Errorf("rank %d: poisoned zero-length AllReduceHalf: %v", rk.ID(), err)
		}
	})
}

func TestConcurrentPoisonVsInflightRings(t *testing.T) {
	// -race stress: ranks hammer all-reduces while an outside goroutine
	// poisons the fabric mid-flight. Every rank must unwind promptly with
	// the poison error — no deadlock, no race on the poison state, and the
	// error every rank sees is the same first-winner.
	for trial := 0; trial < 20; trial++ {
		f := NewFabric(4)
		want := &RankFailedError{Rank: 2, Step: trial}
		go func() {
			// No timer: scheduling jitter alone lands the poison at a
			// different point in the all-reduce each trial.
			f.Poison(want)
		}()
		waitAll(t, f, func(rk *Rank) {
			buf := make([]float32, 1024)
			for {
				if err := rk.AllReduce(group(4), buf); err != nil {
					if !errors.Is(err, want) {
						t.Errorf("trial %d rank %d: unwound with %v, want %v",
							trial, rk.ID(), err, want)
					}
					return
				}
			}
		})
	}
}

func TestCrashAtStepUnwindsPeers(t *testing.T) {
	f := NewFabric(3)
	f.InjectFaults(&FaultPlan{CrashAtStep: map[int]int{1: 2}})
	errs := make([]error, 3)
	waitAll(t, f, func(rk *Rank) {
		buf := []float32{float32(rk.ID())}
		for step := 0; step < 10; step++ {
			if err := rk.BeginStep(step); err != nil {
				errs[rk.ID()] = err
				return
			}
			if err := rk.AllReduce(group(3), buf); err != nil {
				errs[rk.ID()] = err
				return
			}
		}
		t.Errorf("rank %d finished all steps despite injected crash", rk.ID())
	})
	for r, err := range errs {
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("rank %d: %v, want RankFailedError", r, err)
		}
		if rf.Rank != 1 || rf.Step != 2 {
			t.Fatalf("rank %d: crash attributed to rank %d step %d, want rank 1 step 2",
				r, rf.Rank, rf.Step)
		}
	}
}

func TestCrashAtOpIsDeterministic(t *testing.T) {
	// The op counter indexes collective entries per rank, so the same plan
	// must fire at the same collective on every run.
	run := func() error {
		f := NewFabric(2)
		f.InjectFaults(&FaultPlan{CrashAtOp: map[int]int{0: 3}})
		var got error
		waitAll(t, f, func(rk *Rank) {
			buf := []float32{1}
			for {
				if err := rk.AllReduce(group(2), buf); err != nil {
					if rk.ID() == 0 {
						got = err
					}
					return
				}
			}
		})
		return got
	}
	a, b := run(), run()
	var rf *RankFailedError
	if !errors.As(a, &rf) || rf.Rank != 0 {
		t.Fatalf("run 1: %v, want RankFailedError for rank 0", a)
	}
	if a.Error() != b.Error() {
		t.Fatalf("fault not deterministic: %q vs %q", a, b)
	}
}

func TestDeadlineDetectsSilentPeer(t *testing.T) {
	// Rank 1 never sends: rank 0's Recv must trip the deadline backstop and
	// poison the fabric with a typed DeadlineError, not block forever.
	f := NewFabric(2)
	f.SetDeadline(50 * time.Millisecond)
	r := f.Rank(0)
	if err := r.BeginStep(4); err != nil {
		t.Fatal(err)
	}
	_, err := r.Recv()
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("Recv on silent peer: %v, want DeadlineError", err)
	}
	if de.Rank != 0 || de.Step != 4 {
		t.Fatalf("DeadlineError{%d,%d}, want {0,4}", de.Rank, de.Step)
	}
	if f.Err() == nil {
		t.Fatal("deadline did not poison the fabric")
	}
}

func TestDropP2PCaughtByDeadline(t *testing.T) {
	// Every message dropped; the collective deadline is the remedy the drop
	// schedule documents, so the receiver must surface DeadlineError.
	f := NewFabric(2)
	f.InjectFaults(&FaultPlan{DropP2PEvery: 1})
	f.SetDeadline(50 * time.Millisecond)
	waitAll(t, f, func(rk *Rank) {
		if rk.ID() == 0 {
			if err := rk.Send(1, TagActivation, 0, []float32{1}); err != nil {
				t.Errorf("drop must look like success to the sender: %v", err)
			}
			return
		}
		_, err := rk.Recv()
		var de *DeadlineError
		if !errors.As(err, &de) {
			t.Errorf("Recv of dropped message: %v, want DeadlineError", err)
		}
	})
}

func TestDelayP2PReordersWithoutLoss(t *testing.T) {
	// Delaying every 2nd message reorders the stream deterministically but
	// loses nothing once enough traffic flushes the held slot.
	f := NewFabric(2)
	f.InjectFaults(&FaultPlan{DelayP2PEvery: 2, Seed: 1})
	const n = 16
	s, r := f.Rank(0), f.Rank(1)
	for i := 0; i < n; i++ {
		must(s.Send(1, TagActivation, i, []float32{float32(i)}))
	}
	seen := make(map[int]bool)
	inOrder := true
	prev := -1
	for i := 0; i < n; i++ {
		m := must1(r.Recv())
		seen[m.MB] = true
		if m.MB < prev {
			inOrder = false
		}
		prev = m.MB
	}
	if len(seen) != n {
		t.Fatalf("lost messages under delay: got %d/%d distinct", len(seen), n)
	}
	if inOrder {
		t.Fatal("delay schedule produced no reordering: fault not exercised")
	}
}

func TestFailAttachesCause(t *testing.T) {
	f := NewFabric(2)
	rk := f.Rank(1)
	if err := rk.BeginStep(7); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("loss exploded")
	err := rk.Fail(cause)
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 || rf.Step != 7 {
		t.Fatalf("Fail: %v, want RankFailedError{1,7}", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Fail dropped the cause: %v", err)
	}
}

func TestCloseDrainsPoolAndPoisons(t *testing.T) {
	f := runGroup(2, func(rk *Rank) {
		buf := make([]float32, 4096)
		must(rk.AllReduce(group(2), buf))
	})
	if f.PooledBytes() == 0 {
		t.Fatal("test premise broken: pool empty before Close")
	}
	f.Close()
	if got := f.PooledBytes(); got != 0 {
		t.Fatalf("Close left %d pooled bytes", got)
	}
	if !errors.Is(f.Err(), ErrFabricClosed) {
		t.Fatalf("Close poison = %v, want ErrFabricClosed", f.Err())
	}
	// Close after a real failure must not mask the original error.
	f2 := NewFabric(1)
	want := &RankFailedError{Rank: 0, Step: 0}
	f2.Poison(want)
	f2.Close()
	if !errors.Is(f2.Err(), want) {
		t.Fatalf("Close masked poison: %v", f2.Err())
	}
}

func TestInjectFaultsRejectsUnknownRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fault plan naming rank 9 on a 2-rank fabric must panic")
		}
	}()
	NewFabric(2).InjectFaults(&FaultPlan{CrashAtStep: map[int]int{9: 0}})
}

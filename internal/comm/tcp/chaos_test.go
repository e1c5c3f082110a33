package tcp

// Chaos tests for the wire: hard connection drops and stalled sockets.
// Each scenario requires every blocked rank to unwind promptly with the
// matching typed error — RankFailedError for a dead connection,
// DeadlineError for a peer that is accepted but silent — never a hang.
// The per-scenario watchdog is itself the no-deadlock assertion.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
)

const chaosWatchdog = 15 * time.Second

// loopbackFabrics builds n single-rank TCP endpoints with one fabric and
// rank per endpoint, registering teardown.
func loopbackFabrics(t *testing.T, n int) ([]*comm.Fabric, []*comm.Rank, []*Transport) {
	t.Helper()
	trs, err := Loopback(n)
	if err != nil {
		t.Fatalf("loopback: %v", err)
	}
	fabs := make([]*comm.Fabric, n)
	ranks := make([]*comm.Rank, n)
	for i, tr := range trs {
		fabs[i] = comm.NewFabricOver(tr)
		ranks[i] = fabs[i].Rank(i)
		t.Cleanup(fabs[i].Close)
	}
	return fabs, ranks, trs
}

// runRanks runs fn per rank under the chaos watchdog.
func runRanks(t *testing.T, ranks []*comm.Rank, fn func(rk *comm.Rank) error) []error {
	t.Helper()
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, rk := range ranks {
		wg.Add(1)
		go func(i int, rk *comm.Rank) {
			defer wg.Done()
			errs[i] = fn(rk)
		}(i, rk)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(chaosWatchdog):
		t.Fatal("chaos scenario deadlocked: ranks did not unwind")
	}
	return errs
}

// TestChaosHardClosePeerMidCollective kills one endpoint's connections
// (no poison frame — as a SIGKILLed process would) while every rank loops
// all-reduces. Every survivor must unwind with a RankFailedError;
// the aborted endpoint's own ranks unwind too.
func TestChaosHardClosePeerMidCollective(t *testing.T) {
	_, ranks, trs := loopbackFabrics(t, 3)
	group := []int{0, 1, 2}
	errs := runRanks(t, ranks, func(rk *comm.Rank) error {
		buf := make([]float32, 512)
		for i := range buf {
			buf[i] = float32(rk.ID() + i)
		}
		for i := 0; ; i++ {
			if rk.ID() == 1 && i == 3 {
				trs[1].Abort() // wire drops mid-stream, between collectives
			}
			if err := rk.AllReduce(group, buf); err != nil {
				return err
			}
		}
	})
	for r, err := range errs {
		var rf *comm.RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("rank %d: got %v, want RankFailedError", r, err)
		}
	}
}

// TestChaosHardCloseMidSend drops the connection under a stream of p2p
// sends: the sender must surface a typed RankFailedError from Send or the
// next Recv, not block or silently succeed forever.
func TestChaosHardCloseMidSend(t *testing.T) {
	fabs, ranks, trs := loopbackFabrics(t, 2)
	errs := runRanks(t, ranks, func(rk *comm.Rank) error {
		if rk.ID() == 1 {
			// Receive a few messages, then die without a word.
			for i := 0; i < 3; i++ {
				if _, err := rk.Recv(); err != nil {
					return err
				}
			}
			trs[1].Abort()
			return errors.New("aborted")
		}
		buf := make([]float32, 4096)
		for i := 0; ; i++ {
			if err := rk.Send(1, comm.TagActivation, i, buf); err != nil {
				return err
			}
			// A send can land in socket buffers after the drop; the
			// reader side of the dead link is the reliable detector, so
			// poll the fabric between sends rather than relying on write
			// errors alone.
			if err := fabs[0].Err(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	})
	var rf *comm.RankFailedError
	if !errors.As(errs[0], &rf) {
		t.Fatalf("sender: got %v, want RankFailedError", errs[0])
	}
	if rf.Rank != 1 {
		t.Fatalf("sender: failure attributed to rank %d, want 1", rf.Rank)
	}
}

// TestChaosStalledSocket wires a fake peer that completes the handshake
// and then never writes another byte — a stalled remote, not a dead one.
// No connection error ever fires, so the fabric's deadline backstop must
// unwind the blocked rank with a DeadlineError.
func TestChaosStalledSocket(t *testing.T) {
	// Fake peer: listener that accepts proc 0's dial, plus an outbound
	// dial to proc 0 with a valid handshake. Both connections then go
	// silent forever.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fake listener: %v", err)
	}
	defer fakeLn.Close()

	realLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("real listener: %v", err)
	}
	addrs := []string{realLn.Addr().String(), fakeLn.Addr().String()}

	var held []net.Conn
	var heldMu sync.Mutex
	defer func() {
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()
	go func() {
		// Accept proc 0's outbound connection and hold it silently.
		c, err := fakeLn.Accept()
		if err != nil {
			return
		}
		heldMu.Lock()
		held = append(held, c)
		heldMu.Unlock()
	}()
	go func() {
		// Dial proc 0 as proc 1 with a valid handshake, then stall.
		c, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
		if err != nil {
			return
		}
		if err := writeHandshake(c, 1); err != nil {
			c.Close()
			return
		}
		heldMu.Lock()
		held = append(held, c)
		heldMu.Unlock()
	}()

	tr, err := Connect(Config{
		Addrs: addrs, Proc: 0, Ranks: 2,
		DialTimeout: 5 * time.Second, Listener: realLn,
	})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	f := comm.NewFabricOver(tr)
	defer f.Close()
	f.SetDeadline(200 * time.Millisecond)

	rk := f.Rank(0)
	done := make(chan error, 1)
	go func() {
		buf := make([]float32, 256)
		done <- rk.AllReduce([]int{0, 1}, buf)
	}()
	select {
	case err := <-done:
		var de *comm.DeadlineError
		if !errors.As(err, &de) {
			t.Fatalf("got %v, want DeadlineError", err)
		}
		if de.Rank != 0 {
			t.Fatalf("deadline attributed to rank %d, want 0", de.Rank)
		}
	case <-time.After(chaosWatchdog):
		t.Fatal("rank hung on stalled socket despite deadline backstop")
	}
}

// TestChaosAbortDuringBarrier drops an endpoint while the others wait in
// a barrier — a one-element all-reduce, which funnels through the owner of
// the only non-empty chunk and so is the all-to-one-to-all pattern most
// sensitive to a missing peer: both survivors must unwind typed.
func TestChaosAbortDuringBarrier(t *testing.T) {
	_, ranks, trs := loopbackFabrics(t, 3)
	group := []int{0, 1, 2}
	errs := runRanks(t, ranks, func(rk *comm.Rank) error {
		if rk.ID() == 2 {
			time.Sleep(30 * time.Millisecond) // let 0 and 1 block in the barrier
			trs[2].Abort()
			return errors.New("aborted")
		}
		for {
			if err := rk.AllReduce(group, []float32{1}); err != nil {
				return err
			}
		}
	})
	for r := 0; r < 2; r++ {
		var rf *comm.RankFailedError
		if !errors.As(errs[r], &rf) {
			t.Fatalf("rank %d: got %v, want RankFailedError", r, errs[r])
		}
		if rf.Rank != 2 {
			t.Fatalf("rank %d: failure attributed to rank %d, want 2", r, errs[r])
		}
	}
}

// TestConnectRejectsBadConfig pins the config validation surface.
func TestConnectRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Addrs: nil, Proc: 0, Ranks: 1},
		{Addrs: []string{"a", "b"}, Proc: 2, Ranks: 2},
		{Addrs: []string{"a", "b"}, Proc: -1, Ranks: 2},
		{Addrs: []string{"a", "b", "c"}, Proc: 0, Ranks: 2},
	}
	for i, cfg := range cases {
		if _, err := Connect(cfg); err == nil {
			t.Fatalf("case %d: Connect accepted invalid config %+v", i, cfg)
		}
	}
}

// TestRankBlocksCoverFabric pins the contiguous rank-block layout the
// engine relies on for checkpoint-shard ownership.
func TestRankBlocksCoverFabric(t *testing.T) {
	for _, tc := range []struct{ ranks, nproc int }{{4, 2}, {7, 3}, {8, 8}, {5, 1}} {
		b := procBounds(tc.ranks, tc.nproc)
		if b[0] != 0 || b[tc.nproc] != tc.ranks {
			t.Fatalf("%d/%d: bounds %v do not cover the fabric", tc.ranks, tc.nproc, b)
		}
		for j := 0; j < tc.nproc; j++ {
			if b[j+1] <= b[j] {
				t.Fatalf("%d/%d: empty block %d in %v", tc.ranks, tc.nproc, j, b)
			}
		}
	}
	tr := &Transport{cfg: Config{Proc: 1, Ranks: 7}, nproc: 3, bounds: procBounds(7, 3)}
	for r := 0; r < 7; r++ {
		wantLocal := r >= tr.bounds[1] && r < tr.bounds[2]
		if tr.IsLocal(r) != wantLocal {
			t.Fatalf("IsLocal(%d) = %v, want %v", r, tr.IsLocal(r), wantLocal)
		}
		want := 0
		for want+1 < tr.nproc && r >= tr.bounds[want+1] {
			want++
		}
		if got := tr.procOf(r); got != want {
			t.Fatalf("procOf(%d) = %d, want %d", r, got, want)
		}
	}
}

package tcp

// Chaos tests for the wire: hard connection drops and stalled sockets.
// Each scenario requires every blocked rank to unwind promptly with the
// matching typed error — RankFailedError for a dead connection,
// DeadlineError for a peer that is accepted but silent — never a hang.
// The per-scenario watchdog is itself the no-deadlock assertion.

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime/metrics"
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

// fakePeer connects a real endpoint, proc 0 of a two-process fabric of one
// rank each, to a hand-driven proc 1: it accepts proc 0's outbound
// connection and holds it silently, and returns the fabric of proc 0 and
// proc 1's outbound connection, handshake written, for the test to write
// frames on or to hold silent.
func fakePeer(t *testing.T) (*comm.Fabric, net.Conn) {
	t.Helper()
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("fake listener: %v", err)
	}
	t.Cleanup(func() { fakeLn.Close() })
	realLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("real listener: %v", err)
	}
	addrs := []string{realLn.Addr().String(), fakeLn.Addr().String()}

	accepted, dialed := make(chan net.Conn, 1), make(chan net.Conn, 1)
	go func() {
		c, _ := fakeLn.Accept()
		accepted <- c
	}()
	go func() {
		c, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
		if err == nil && writeHandshake(c, 1) != nil {
			c.Close()
			c = nil
		}
		dialed <- c
	}()

	tr, err := Connect(Config{
		Addrs: addrs, Proc: 0, Ranks: 2,
		DialTimeout: 5 * time.Second, Listener: realLn,
	})
	out := <-dialed
	if err != nil {
		fakeLn.Close() // proc 0 may never have dialed: unblock the Accept
	}
	for _, c := range []net.Conn{out, <-accepted} {
		if c != nil {
			t.Cleanup(func() { c.Close() })
		}
	}
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	f := comm.NewFabricOver(tr)
	t.Cleanup(f.Close)
	return f, out
}

// TestChaosStalledSocket wires a fake peer that completes the handshake
// and then never writes another byte — a stalled remote, not a dead one.
// No connection error ever fires, so the fabric's deadline backstop must
// unwind the blocked rank with a DeadlineError.
func TestChaosStalledSocket(t *testing.T) {
	f, _ := fakePeer(t)
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

// TestMalformedHeaderFailsLinkTyped sends, for each check the reader makes,
// a length prefix (claiming 256 MiB unless the check is on the prefix
// itself) and a fixed header that fails that check, then stalls. The link
// must fail typed — a RankFailedError for the peer's rank — and without the
// reader taking a buffer for the claimed payload: the heap grows by less
// than 1 MiB.
func TestMalformedHeaderFailsLinkTyped(t *testing.T) {
	le := binary.LittleEndian
	coll := func(to, from int, n uint32) []byte {
		b := appendInt32s([]byte{frameColl}, to, from, 1)
		return le.AppendUint32(b, n)
	}
	const claim = maxFrameBytes
	for _, tc := range []struct {
		name   string
		prefix uint32
		hdr    []byte
	}{
		{"unknown kind", claim, []byte{7, 0, 0, 0, 0}},
		{"to not local", claim, coll(1, 1, claim/4)},
		{"from outside peer", claim, coll(0, 0, claim/4)},
		{"length mismatch", claim, coll(0, 1, 4)},
		{"too many elements", 17 + 4*(maxFrameBytes/4+1), coll(0, 1, maxFrameBytes/4+1)},
		{"too many shape dims", claim, appendInt32s([]byte{frameData}, 0, 1, 0, 0, 0, maxShapeDims+1)},
		{"poison message too long", claim, le.AppendUint32(append([]byte{framePoison}, make([]byte, 17)...), maxPoisonMsg+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, out := fakePeer(t)
			sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(sample)
			before := sample[0].Value.Uint64()
			if _, err := out.Write(append(le.AppendUint32(nil, tc.prefix), tc.hdr...)); err != nil {
				t.Fatalf("write: %v", err)
			}
			select { // the peer now stalls
			case <-f.Done():
			case <-time.After(chaosWatchdog):
				t.Error("link still open after a malformed header")
			}
			metrics.Read(sample)
			if grew := sample[0].Value.Uint64() - before; grew >= 1<<20 {
				t.Errorf("heap allocations grew by %d bytes for a malformed header", grew)
			}
			var rf *comm.RankFailedError
			if err := f.Err(); !errors.As(err, &rf) || rf.Rank != 1 {
				t.Fatalf("fabric poisoned with %v, want RankFailedError for rank 1", err)
			}
		})
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

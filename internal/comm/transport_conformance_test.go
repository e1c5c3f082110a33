package comm_test

// Transport conformance suite: every test here runs against BOTH
// transports — the in-process channel mesh and the TCP wire via loopback
// endpoints — and pins them to identical semantics: bitwise-equal
// collective results, exact p2p ordering, and the same typed errors
// (RankFailedError / DeadlineError / ErrFabricClosed) unwinding every
// blocked rank on failure, with the types surviving the wire.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
	"github.com/sparse-dl/samo/internal/comm/tcp"
)

// mesh is one fabric-per-rank view of a transport: on local all ranks
// share one fabric; on tcp-loopback each rank is its own single-rank
// process endpoint with its own fabric, so poison and faults must cross
// the wire to reach the others.
type mesh struct {
	name  string
	fabs  []*comm.Fabric // indexed by rank (local: same pointer repeated)
	ranks []*comm.Rank
}

func (m *mesh) closeAll() {
	for _, f := range m.fabs {
		f.Close() // idempotent; local repeats are fine
	}
}

func newMesh(t testing.TB, transport string, n int) *mesh {
	t.Helper()
	m := &mesh{name: transport}
	switch transport {
	case "local":
		f := comm.NewFabric(n)
		for r := 0; r < n; r++ {
			m.fabs = append(m.fabs, f)
			m.ranks = append(m.ranks, f.Rank(r))
		}
	case "tcp":
		trs, err := tcp.Loopback(n)
		if err != nil {
			t.Fatalf("tcp loopback: %v", err)
		}
		for r, tr := range trs {
			f := comm.NewFabricOver(tr)
			m.fabs = append(m.fabs, f)
			m.ranks = append(m.ranks, f.Rank(r))
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	return m
}

// forEachTransport runs fn against a fresh n-rank mesh of each transport.
func forEachTransport(t *testing.T, n int, fn func(t *testing.T, m *mesh)) {
	for _, transport := range []string{"local", "tcp"} {
		t.Run(fmt.Sprintf("%s/n%d", transport, n), func(t *testing.T) {
			m := newMesh(t, transport, n)
			defer m.closeAll()
			fn(t, m)
		})
	}
}

// runMesh runs fn concurrently on every rank under a watchdog: a fault
// that deadlocks instead of unwinding fails fast, not at the suite
// timeout.
func runMesh(t *testing.T, m *mesh, fn func(rk *comm.Rank) error) []error {
	t.Helper()
	errs := make([]error, len(m.ranks))
	var wg sync.WaitGroup
	for i, rk := range m.ranks {
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
	case <-time.After(30 * time.Second):
		t.Fatalf("[%s] mesh deadlocked: ranks did not unwind", m.name)
	}
	return errs
}

func groupAll(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// testInput fills deterministic, bit-diverse per-rank inputs.
func testInput(rank, n int) []float32 {
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.Sin(float64(rank*131071+i*257+1)) * 3.25)
	}
	return buf
}

func bitsOf(buf []float32) []uint32 {
	b := make([]uint32, len(buf))
	for i, v := range buf {
		b[i] = math.Float32bits(v)
	}
	return b
}

// collResult is one rank's outputs from the three data-parallel
// collectives under test.
type collResult struct {
	allReduce []uint32
	broadcast []uint32
	ordered   []uint32
}

// runCollectives executes AllReduce, Broadcast (from the last rank) and
// AllReduceOrdered on deterministic inputs and records the result bits.
func runCollectives(t *testing.T, m *mesh, n, sz int) []collResult {
	t.Helper()
	group := groupAll(n)
	out := make([]collResult, n)
	errs := runMesh(t, m, func(rk *comm.Rank) error {
		r := rk.ID()
		ar := testInput(r, sz)
		if err := rk.AllReduce(group, ar); err != nil {
			return err
		}
		out[r].allReduce = bitsOf(ar)

		bc := testInput(r, sz)
		if err := rk.Broadcast(group, n-1, bc); err != nil {
			return err
		}
		out[r].broadcast = bitsOf(bc)

		ord := testInput(r, sz)
		if err := rk.AllReduceOrdered(group, ord); err != nil {
			return err
		}
		out[r].ordered = bitsOf(ord)
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("[%s] rank %d: %v", m.name, r, err)
		}
	}
	return out
}

// TestConformanceCollectivesBitwise pins AllReduce, Broadcast and
// AllReduceOrdered results bitwise-identical across the two transports at
// worker counts 1, 4 and 8 — float32 framing on the wire must be
// bit-preserving, and the collective schedules must not depend on the
// transport underneath.
func TestConformanceCollectivesBitwise(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		for _, sz := range []int{1, 5, 1024, 4099} {
			t.Run(fmt.Sprintf("n%d/sz%d", n, sz), func(t *testing.T) {
				mLocal := newMesh(t, "local", n)
				defer mLocal.closeAll()
				want := runCollectives(t, mLocal, n, sz)

				mTCP := newMesh(t, "tcp", n)
				defer mTCP.closeAll()
				got := runCollectives(t, mTCP, n, sz)

				for r := 0; r < n; r++ {
					check := func(kind string, w, g []uint32) {
						if len(w) != len(g) {
							t.Fatalf("rank %d %s: length %d vs %d", r, kind, len(w), len(g))
						}
						for i := range w {
							if w[i] != g[i] {
								t.Fatalf("rank %d %s[%d]: local bits %08x, tcp bits %08x",
									r, kind, i, w[i], g[i])
							}
						}
					}
					check("allreduce", want[r].allReduce, got[r].allReduce)
					check("broadcast", want[r].broadcast, got[r].broadcast)
					check("ordered", want[r].ordered, got[r].ordered)
				}
			})
		}
	}
}

// TestConformanceOrderedReduceMatchesSerial pins AllReduceOrdered to the
// serial rank-order sum exactly, on both transports: bitwise
// reproducibility of the ordered reduction is a cross-transport contract,
// not a local-transport accident.
func TestConformanceOrderedReduceMatchesSerial(t *testing.T) {
	const n, sz = 4, 513
	want := make([]float32, sz)
	for r := 0; r < n; r++ {
		in := testInput(r, sz)
		for i := range want {
			if r == 0 {
				want[i] = in[i]
			} else {
				want[i] += in[i]
			}
		}
	}
	forEachTransport(t, n, func(t *testing.T, m *mesh) {
		group := groupAll(n)
		got := make([][]float32, n)
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			buf := testInput(rk.ID(), sz)
			if err := rk.AllReduceOrdered(group, buf); err != nil {
				return err
			}
			got[rk.ID()] = buf
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		for r := 0; r < n; r++ {
			for i := range want {
				if math.Float32bits(got[r][i]) != math.Float32bits(want[i]) {
					t.Fatalf("rank %d elem %d: got bits %08x, want %08x",
						r, i, math.Float32bits(got[r][i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// TestConformanceConcurrentAsyncCollectives pins the async lane on both
// transports: each rank launches a whole schedule of reduces — several
// in-flight at once, on DISTINCT groups (evens and odds run disjoint
// collectives concurrently), mixing the ring and rank-ordered algorithms —
// then drains and runs one synchronous global reduce. Results must be
// bitwise-identical to issuing the same schedule synchronously on the local
// transport: async vs sync and local vs tcp may not change a single bit.
func TestConformanceConcurrentAsyncCollectives(t *testing.T) {
	const n = 4
	szs := []int{3, 257, 1024, 33, 512, 65}
	half := func(parity int) []int {
		var g []int
		for r := parity; r < n; r += 2 {
			g = append(g, r)
		}
		return g
	}

	// runSchedule executes the per-rank schedule and returns, for each rank,
	// the result bits of every op (the K group reduces + the final global).
	runSchedule := func(m *mesh, async bool) [][][]uint32 {
		t.Helper()
		out := make([][][]uint32, n)
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			r := rk.ID()
			group := half(r % 2)
			bufs := make([][]float32, len(szs))
			for i, sz := range szs {
				bufs[i] = testInput(r*17+i, sz)
			}
			if async {
				defer rk.CloseAsync()
				handles := make([]*comm.ReduceHandle, len(bufs))
				for i, buf := range bufs {
					if i%2 == 0 {
						handles[i] = rk.AllReduceAsync(group, buf)
					} else {
						handles[i] = rk.AllReduceOrderedAsync(group, buf)
					}
				}
				for _, h := range handles {
					if err := h.Wait(); err != nil {
						return err
					}
				}
			} else {
				for i, buf := range bufs {
					var err error
					if i%2 == 0 {
						err = rk.AllReduce(group, buf)
					} else {
						err = rk.AllReduceOrdered(group, buf)
					}
					if err != nil {
						return err
					}
				}
			}
			// Drained: a synchronous global collective must now be safe —
			// the engine's consensus-after-overlap pattern.
			global := testInput(r+100, 64)
			if err := rk.AllReduceOrdered(groupAll(n), global); err != nil {
				return err
			}
			res := make([][]uint32, 0, len(bufs)+1)
			for _, buf := range bufs {
				res = append(res, bitsOf(buf))
			}
			res = append(res, bitsOf(global))
			out[r] = res
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("[%s async=%v] rank %d: %v", m.name, async, r, err)
			}
		}
		return out
	}

	mRef := newMesh(t, "local", n)
	defer mRef.closeAll()
	want := runSchedule(mRef, false)

	for _, transport := range []string{"local", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			m := newMesh(t, transport, n)
			defer m.closeAll()
			got := runSchedule(m, true)
			for r := 0; r < n; r++ {
				for op := range want[r] {
					if len(got[r][op]) != len(want[r][op]) {
						t.Fatalf("rank %d op %d: length %d vs %d", r, op, len(got[r][op]), len(want[r][op]))
					}
					for i := range want[r][op] {
						if got[r][op][i] != want[r][op][i] {
							t.Fatalf("rank %d op %d elem %d: async/%s bits %08x, sync/local bits %08x",
								r, op, i, transport, got[r][op][i], want[r][op][i])
						}
					}
				}
			}
		})
	}
}

// TestConformanceAsyncPoisonUnwinds pins async fault behaviour: a poisoned
// fabric must unwind queued and in-flight async reduces with the same typed
// error the synchronous path returns, on both transports, with Wait and
// CloseAsync both terminating.
func TestConformanceAsyncPoisonUnwinds(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, m *mesh) {
		group := groupAll(4)
		go func() {
			time.Sleep(20 * time.Millisecond)
			m.fabs[1].Poison(&comm.RankFailedError{Rank: 1, Step: 9})
		}()
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			defer rk.CloseAsync()
			buf := testInput(rk.ID(), 256)
			for {
				h := rk.AllReduceAsync(group, buf)
				if err := h.Wait(); err != nil {
					return err
				}
			}
		})
		for r, err := range errs {
			var rf *comm.RankFailedError
			if !errors.As(err, &rf) {
				t.Fatalf("rank %d: got %v, want RankFailedError", r, err)
			}
			if rf.Rank != 1 || rf.Step != 9 {
				t.Fatalf("rank %d: got RankFailedError{%d,%d}, want {1,9}", r, rf.Rank, rf.Step)
			}
		}
	})
}

// TestConformanceSendRecvOrder pins the p2p contract on both transports:
// per-sender FIFO delivery with payload bits, shape, tag, microbatch and
// sequence numbers intact.
func TestConformanceSendRecvOrder(t *testing.T) {
	const msgs = 100
	forEachTransport(t, 2, func(t *testing.T, m *mesh) {
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			if rk.ID() == 0 {
				for i := 0; i < msgs; i++ {
					data := testInput(i, 7+i%5)
					if err := rk.Send(1, comm.TagActivation, i, data, 1, len(data)); err != nil {
						return err
					}
				}
				return nil
			}
			lastSeq := 0
			for i := 0; i < msgs; i++ {
				msg, err := rk.Recv()
				if err != nil {
					return err
				}
				if msg.From != 0 || msg.Tag != comm.TagActivation || msg.MB != i {
					return fmt.Errorf("msg %d: got from=%d tag=%d mb=%d", i, msg.From, msg.Tag, msg.MB)
				}
				if msg.Seq <= lastSeq {
					return fmt.Errorf("msg %d: seq %d not increasing past %d", i, msg.Seq, lastSeq)
				}
				lastSeq = msg.Seq
				want := testInput(i, 7+i%5)
				if len(msg.Shape) != 2 || msg.Shape[0] != 1 || msg.Shape[1] != len(want) {
					return fmt.Errorf("msg %d: shape %v", i, msg.Shape)
				}
				if len(msg.Data) != len(want) {
					return fmt.Errorf("msg %d: %d elements, want %d", i, len(msg.Data), len(want))
				}
				for j := range want {
					if math.Float32bits(msg.Data[j]) != math.Float32bits(want[j]) {
						return fmt.Errorf("msg %d elem %d: bits differ", i, j)
					}
				}
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	})
}

// TestConformancePoisonUnwindsTyped poisons one rank's fabric mid-stream
// and requires every rank on every fabric to unwind promptly with the
// same typed RankFailedError — on tcp that means the type crosses the
// wire via poison frames, fields intact.
func TestConformancePoisonUnwindsTyped(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, m *mesh) {
		group := groupAll(4)
		go func() {
			time.Sleep(20 * time.Millisecond)
			m.fabs[1].Poison(&comm.RankFailedError{Rank: 1, Step: 7})
		}()
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			buf := testInput(rk.ID(), 256)
			for {
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
			if rf.Rank != 1 || rf.Step != 7 {
				t.Fatalf("rank %d: got RankFailedError{Rank:%d, Step:%d}, want {1, 7}", r, rf.Rank, rf.Step)
			}
		}
	})
}

// TestConformanceCrashAtOpTyped arms a deterministic mid-collective crash
// on one rank's fabric and requires every rank to unwind with a
// RankFailedError attributing that rank, identically on both transports.
func TestConformanceCrashAtOpTyped(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, m *mesh) {
		m.fabs[2].InjectFaults(&comm.FaultPlan{CrashAtOp: map[int]int{2: 5}})
		group := groupAll(4)
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			buf := testInput(rk.ID(), 128)
			for i := 0; i < 50; i++ {
				if err := rk.AllReduce(group, buf); err != nil {
					return err
				}
			}
			return nil
		})
		for r, err := range errs {
			var rf *comm.RankFailedError
			if !errors.As(err, &rf) {
				t.Fatalf("rank %d: got %v, want RankFailedError", r, err)
			}
			if rf.Rank != 2 {
				t.Fatalf("rank %d: crash attributed to rank %d, want 2", r, rf.Rank)
			}
		}
	})
}

// TestConformanceDeadlineTyped pins the backstop detector on both
// transports: a rank blocked on a peer that never answers gives up after
// the configured deadline with a typed DeadlineError.
func TestConformanceDeadlineTyped(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, m *mesh) {
		m.fabs[0].SetDeadline(150 * time.Millisecond)
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			if rk.ID() != 0 {
				return nil // rank 1 never enters the collective
			}
			buf := testInput(0, 64)
			return rk.AllReduce(groupAll(2), buf)
		})
		var de *comm.DeadlineError
		if !errors.As(errs[0], &de) {
			t.Fatalf("rank 0: got %v, want DeadlineError", errs[0])
		}
		if de.Rank != 0 {
			t.Fatalf("deadline attributed to rank %d, want 0", de.Rank)
		}
	})
}

// TestConformanceCloseUnwinds pins teardown on both transports: Close
// unwinds blocked ranks with ErrFabricClosed, and closing a fabric that
// already failed never masks the original typed error.
func TestConformanceCloseUnwinds(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, m *mesh) {
		go func() {
			time.Sleep(20 * time.Millisecond)
			m.closeAll()
		}()
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			_, err := rk.Recv() // no deadline: only Close can release this
			return err
		})
		for r, err := range errs {
			if !errors.Is(err, comm.ErrFabricClosed) {
				t.Fatalf("rank %d: got %v, want ErrFabricClosed", r, err)
			}
		}
	})
	forEachTransport(t, 2, func(t *testing.T, m *mesh) {
		first := &comm.RankFailedError{Rank: 0, Step: 3}
		m.fabs[0].Poison(first)
		m.closeAll()
		var rf *comm.RankFailedError
		if err := m.fabs[0].Err(); !errors.As(err, &rf) || rf.Rank != 0 || rf.Step != 3 {
			t.Fatalf("Close masked the original failure: %v", err)
		}
	})
}

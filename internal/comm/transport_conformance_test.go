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
	"github.com/sparse-dl/samo/internal/fp16"
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

// runAllReduce executes AllReduce on deterministic inputs and records each
// rank's result bits.
func runAllReduce(t *testing.T, m *mesh, n, sz int) [][]uint32 {
	t.Helper()
	inputs := make([][]float32, n)
	for r := range inputs {
		inputs[r] = testInput(r, sz)
	}
	return runReduce(t, m, inputs, false)
}

// runReduce runs AllReduce (AllReduceHalf when half) over the whole mesh,
// rank r on a copy of inputs[r], and records each rank's result bits.
func runReduce(t *testing.T, m *mesh, inputs [][]float32, half bool) [][]uint32 {
	t.Helper()
	group := groupAll(len(inputs))
	out := make([][]uint32, len(inputs))
	errs := runMesh(t, m, func(rk *comm.Rank) error {
		buf := append([]float32(nil), inputs[rk.ID()]...)
		reduce := rk.AllReduce
		if half {
			reduce = rk.AllReduceHalf
		}
		if err := reduce(group, buf); err != nil {
			return err
		}
		out[rk.ID()] = bitsOf(buf)
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("[%s] rank %d: %v", m.name, r, err)
		}
	}
	return out
}

// sameAsSerial fails unless every rank's result bits equal the serial
// group-ordered sum of inputs.
func sameAsSerial(t *testing.T, what string, got [][]uint32, inputs [][]float32) {
	t.Helper()
	want := comm.SerialSum(inputs)
	for r := range got {
		for i := range want {
			if got[r][i] != math.Float32bits(want[i]) {
				t.Fatalf("%s, %d elements: rank %d elem %d: got bits %08x, want %08x",
					what, len(want), r, i, got[r][i], math.Float32bits(want[i]))
			}
		}
	}
}

// widenHalf returns binary16 h widened to float32, exactly.
func widenHalf(h uint16) float32 {
	s := uint32(h&0x8000) << 16
	a := uint32(h & 0x7FFF)
	switch {
	case a >= 0x7C00:
		return math.Float32frombits(s | 0x7F800000 | (a&0x3FF)<<13)
	case a >= 0x400:
		return math.Float32frombits(s | ((a>>10)+112)<<23 | (a&0x3FF)<<13)
	}
	return math.Float32frombits(s | math.Float32bits(float32(a)/(1<<24)))
}

// gridInput is testInput rounded onto the binary16 grid, with specials
// sprinkled in: what a ∇θ16 slab can hold.
func gridInput(rank, n int) []float32 {
	buf := testInput(rank, n)
	for i, v := range buf {
		buf[i] = fp16.Round(v)
	}
	comm.Sprinkle(buf, rank)
	return buf
}

// allHalves returns every binary16 pattern widened, in an order fixed by
// seed: ±0, subnormals, normals, ±Inf and every NaN payload of both signs.
func allHalves(seed uint32) []float32 {
	p := make([]float32, 1<<16)
	for i := range p {
		p[i] = widenHalf(uint16(i))
	}
	x := seed*2654435761 + 1
	for i := len(p) - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestConformanceCollectivesBitwise pins AllReduce results bitwise-identical
// across the two transports at worker counts 1, 4 and 8 — float32 framing
// on the wire must be bit-preserving, and the collective schedule must not
// depend on the transport underneath.
func TestConformanceCollectivesBitwise(t *testing.T) {
	for _, n := range []int{1, 4, 8} {
		for _, sz := range []int{1, 5, 1024, 4099} {
			t.Run(fmt.Sprintf("n%d/sz%d", n, sz), func(t *testing.T) {
				mLocal := newMesh(t, "local", n)
				defer mLocal.closeAll()
				want := runAllReduce(t, mLocal, n, sz)

				mTCP := newMesh(t, "tcp", n)
				defer mTCP.closeAll()
				got := runAllReduce(t, mTCP, n, sz)

				for r := 0; r < n; r++ {
					if len(want[r]) != len(got[r]) {
						t.Fatalf("rank %d: length %d vs %d", r, len(want[r]), len(got[r]))
					}
					for i := range want[r] {
						if want[r][i] != got[r][i] {
							t.Fatalf("rank %d elem %d: local bits %08x, tcp bits %08x",
								r, i, want[r][i], got[r][i])
						}
					}
				}
			})
		}
	}
}

// TestConformanceAllReduceMatchesSerial pins AllReduce to the serial
// rank-order sum exactly, on both transports and at group sizes whose
// chunks split unevenly or come out empty: bitwise reproducibility is a
// cross-transport contract, not a local-transport accident.
// Specials (±0, ±Inf, NaNs of both signs with distinct payloads) are
// sprinkled in: the NaN each add returns is part of the contract.
func TestConformanceAllReduceMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		forEachTransport(t, n, func(t *testing.T, m *mesh) {
			for _, sz := range []int{n - 1, 513} {
				inputs := make([][]float32, n)
				for r := range inputs {
					inputs[r] = testInput(r, sz)
					comm.Sprinkle(inputs[r], r)
				}
				sameAsSerial(t, "AllReduce", runReduce(t, m, inputs, false), inputs)
			}
		})
	}
}

// TestConformanceAllReduceHalfMatchesSerial pins AllReduceHalf to the serial
// group-order sum, bit for bit, on both transports, at the group sizes that
// exchange half bits (2, 3) and those that run AllReduce (1, 4, 5), and to
// AllReduce on the same inputs: at every length to 17 and at 8k ± 1, and
// with each rank's buffer its own permutation of all 2¹⁶ half patterns.
func TestConformanceAllReduceHalfMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		forEachTransport(t, n, func(t *testing.T, m *mesh) {
			perRank := func(input func(r int) []float32) [][]float32 {
				in := make([][]float32, n)
				for r := range in {
					in[r] = input(r)
				}
				return in
			}
			var cases [][][]float32
			for _, sz := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 8191, 8193} {
				cases = append(cases, perRank(func(r int) []float32 { return gridInput(r, sz) }))
			}
			cases = append(cases, perRank(func(r int) []float32 { return allHalves(uint32(r + 1)) }))
			for _, inputs := range cases {
				half := runReduce(t, m, inputs, true)
				sameAsSerial(t, "AllReduceHalf", half, inputs)
				full := runReduce(t, m, inputs, false)
				for r := range full {
					for i := range full[r] {
						if half[r][i] != full[r][i] {
							t.Fatalf("%d elements: rank %d elem %d: AllReduceHalf bits %08x, AllReduce %08x",
								len(full[r]), r, i, half[r][i], full[r][i])
						}
					}
				}
			}
		})
	}
}

// TestConformanceAllReduceHalfFailsTyped pins the half exchange's two
// refusals on both transports, at G = 2 and 3: an element off the binary16
// grid, which is never rounded, and a peer whose buffer length does not
// match. Every rank unwinds with a RankFailedError (the type crosses the
// wire) and none hangs; the rank holding the off-grid element also reports
// it as an OffGridError.
func TestConformanceAllReduceHalfFailsTyped(t *testing.T) {
	for _, n := range []int{2, 3} {
		forEachTransport(t, n, func(t *testing.T, m *mesh) {
			errs := runMesh(t, m, func(rk *comm.Rank) error {
				buf := gridInput(rk.ID(), 100)
				if rk.ID() == 1 {
					buf[37] = math.Float32frombits(0x3F800001) // 1 + 2⁻²³
				}
				return rk.AllReduceHalf(groupAll(n), buf)
			})
			for r, err := range errs {
				var rf *comm.RankFailedError
				if !errors.As(err, &rf) || rf.Rank != 1 {
					t.Fatalf("off grid: rank %d: got %v, want RankFailedError of rank 1", r, err)
				}
			}
			var og *comm.OffGridError
			if !errors.As(errs[1], &og) || og.Index != 37 || og.Bits != 0x3F800001 {
				t.Fatalf("off grid: rank 1: got %v, want OffGridError at 37", errs[1])
			}
		})
		forEachTransport(t, n, func(t *testing.T, m *mesh) {
			errs := runMesh(t, m, func(rk *comm.Rank) error {
				sz := 100
				if rk.ID() == 1 {
					sz = 103 // 52 words, not 50
				}
				return rk.AllReduceHalf(groupAll(n), gridInput(rk.ID(), sz))
			})
			for r, err := range errs {
				var rf *comm.RankFailedError
				if !errors.As(err, &rf) {
					t.Fatalf("length mismatch: rank %d: got %v, want RankFailedError", r, err)
				}
			}
		})
	}
}

// TestConformanceHalfPoisonUnwinds poisons one rank's fabric while the
// ranks loop on AllReduceHalf in pairs, where the half exchange runs: every
// rank unwinds with the same typed RankFailedError, on both transports, and
// the pair without the poisoned rank learns of it from the fabric.
func TestConformanceHalfPoisonUnwinds(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, m *mesh) {
		go func() {
			time.Sleep(20 * time.Millisecond)
			m.fabs[1].Poison(&comm.RankFailedError{Rank: 1, Step: 9})
		}()
		errs := runMesh(t, m, func(rk *comm.Rank) error {
			group := []int{rk.ID() &^ 1, rk.ID() | 1}
			buf := make([]float32, 256)
			for {
				if err := rk.AllReduceHalf(group, buf); err != nil {
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

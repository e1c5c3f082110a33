package comm_test

// Transport benchmarks: the same collective and p2p workloads over the
// in-process channel mesh and the TCP loopback wire. The ratio between
// the two is the framing + syscall overhead of the wire path. Nothing
// gates it: loopback cost is machine state, not code.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sparse-dl/samo/internal/comm"
)

// BenchmarkAllReduce times a full all-reduce across 2, 3 and 4 ranks per
// transport and size: AllReduce (reduce-scatter + all-gather) everywhere,
// and AllReduceHalf (one exchange of half words) at 2 and 3 ranks, where it
// runs its own path. Two ranks also reduce one bucket of the dense
// data-parallel MLP's 768×768 weight (589 824 elements). Ranks iterate in
// lockstep — collectives self-synchronize — so one iteration is one
// fabric-wide all-reduce. The half cases reduce a zero buffer, which every
// sum keeps on the binary16 grid; the conversions and the wire cost the same
// for any value. Bytes per op are the buffer's float32 bytes on every row,
// so MB/s compares the two paths on the same payload.
func BenchmarkAllReduce(b *testing.B) {
	type bcase struct {
		n, sz int
		half  bool
	}
	var cases []bcase
	for _, n := range []int{2, 3, 4} {
		szs := []int{1024, 65536}
		if n == 2 {
			szs = append(szs, 589824)
		}
		for _, sz := range szs {
			cases = append(cases, bcase{n, sz, false})
			if n <= 3 {
				cases = append(cases, bcase{n, sz, true})
			}
		}
	}
	for _, transport := range []string{"local", "tcp"} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/r%d/sz%d", transport, c.n, c.sz)
			if c.half {
				name = fmt.Sprintf("%s/r%d/half/sz%d", transport, c.n, c.sz)
			}
			b.Run(name, func(b *testing.B) {
				m := newMesh(b, transport, c.n)
				defer m.closeAll()
				group := groupAll(c.n)
				bufs := make([][]float32, c.n)
				for r := range bufs {
					bufs[r] = testInput(r, c.sz)
					if c.half {
						bufs[r] = make([]float32, c.sz)
					}
				}
				b.SetBytes(int64(4 * c.sz))
				b.ResetTimer()
				var wg sync.WaitGroup
				for r := 0; r < c.n; r++ {
					wg.Add(1)
					go func(rk *comm.Rank, buf []float32) {
						defer wg.Done()
						reduce := rk.AllReduce
						if c.half {
							reduce = rk.AllReduceHalf
						}
						for i := 0; i < b.N; i++ {
							if err := reduce(group, buf); err != nil {
								b.Errorf("rank %d: %v", rk.ID(), err)
								return
							}
						}
					}(m.ranks[r], bufs[r])
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkSendRecv times a p2p ping-pong between two ranks per
// transport: one iteration is one round trip (two sends, two receives),
// the latency-bound pattern of inter-layer activation/gradient exchange.
func BenchmarkSendRecv(b *testing.B) {
	for _, transport := range []string{"local", "tcp"} {
		for _, sz := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("%s/sz%d", transport, sz), func(b *testing.B) {
				m := newMesh(b, transport, 2)
				defer m.closeAll()
				payload := testInput(1, sz)
				b.SetBytes(int64(4 * sz))
				b.ResetTimer()
				var wg sync.WaitGroup
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(rk *comm.Rank) {
						defer wg.Done()
						peer := 1 - rk.ID()
						for i := 0; i < b.N; i++ {
							if rk.ID() == 0 {
								if err := rk.Send(peer, comm.TagActivation, i, payload); err != nil {
									b.Errorf("send: %v", err)
									return
								}
								if _, err := rk.Recv(); err != nil {
									b.Errorf("recv: %v", err)
									return
								}
							} else {
								msg, err := rk.Recv()
								if err != nil {
									b.Errorf("recv: %v", err)
									return
								}
								if err := rk.Send(peer, comm.TagGradient, i, msg.Data); err != nil {
									b.Errorf("send: %v", err)
									return
								}
							}
						}
					}(m.ranks[r])
				}
				wg.Wait()
			})
		}
	}
}

package comm_test

// Transport benchmarks: the same collective and p2p workloads over the
// in-process channel mesh and the TCP loopback wire. The ratio between
// the two is the framing + syscall overhead of the wire path; bench.sh
// records both to BENCH_comm.json and warns (never fails) when the
// overhead drifts past the expected envelope.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sparse-dl/samo/internal/comm"
)

// BenchmarkAllReduce times a full all-reduce (reduce-scatter + all-gather)
// across 2 and 4 ranks per transport and size. Ranks iterate in lockstep —
// collectives self-synchronize — so one iteration is one fabric-wide
// all-reduce.
func BenchmarkAllReduce(b *testing.B) {
	for _, transport := range []string{"local", "tcp"} {
		for _, n := range []int{2, 4} {
			for _, sz := range []int{1024, 65536} {
				b.Run(fmt.Sprintf("%s/r%d/sz%d", transport, n, sz), func(b *testing.B) {
					m := newMesh(b, transport, n)
					defer m.closeAll()
					group := groupAll(n)
					bufs := make([][]float32, n)
					for r := range bufs {
						bufs[r] = testInput(r, sz)
					}
					b.SetBytes(int64(4 * sz))
					b.ResetTimer()
					var wg sync.WaitGroup
					for r := 0; r < n; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							for i := 0; i < b.N; i++ {
								if err := m.ranks[r].AllReduce(group, bufs[r]); err != nil {
									b.Errorf("rank %d: %v", r, err)
									return
								}
							}
						}(r)
					}
					wg.Wait()
				})
			}
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

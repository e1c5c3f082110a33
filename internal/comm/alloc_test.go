package comm_test

import (
	"fmt"
	"testing"
)

// TestAllReduceZeroAlloc pins the steady state of AllReduce ("async=false")
// and AllReduceHalf ("async=false/half") to zero heap allocations at G = 2
// and at G = 3, where the chunks split unevenly, on both transports (the
// labels predate the removal of the async lane and stay so the subtest
// names stay stable): every chunk a rank receives
// comes from its fabric's pool — a local sender's copy, or the TCP reader's
// straight off the socket — the half words of a rank's own buffer are packed
// in place, and a TCP send writes header and chunk from reused memory. Ranks
// are persistent goroutines driven over channels, so one measured run is one
// fabric-wide reduce and nothing else; the count is process-wide, so it
// covers the TCP readers too.
func TestAllReduceZeroAlloc(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, op := range []string{"async=false", "async=false/half"} {
			t.Run(fmt.Sprintf("n%d/%s", n, op), func(t *testing.T) {
				for _, transport := range []string{"local", "tcp"} {
					t.Run(transport, func(t *testing.T) {
						m := newMesh(t, transport, n)
						defer m.closeAll()
						g := groupAll(n)
						start := make([]chan struct{}, n)
						done := make(chan error, n)
						for r, rk := range m.ranks {
							start[r] = make(chan struct{})
							go func(start <-chan struct{}) {
								buf := make([]float32, 1000)
								for range start {
									if op == "async=false/half" {
										done <- rk.AllReduceHalf(g, buf)
									} else {
										done <- rk.AllReduce(g, buf)
									}
								}
							}(start[r])
						}
						defer func() {
							for _, c := range start {
								close(c)
							}
						}()
						var err error
						step := func() {
							for _, c := range start {
								c <- struct{}{}
							}
							for range start {
								if e := <-done; e != nil && err == nil {
									err = e
								}
							}
						}
						step() // first reduce fills the pools and pending queues
						allocs := testing.AllocsPerRun(100, step)
						if err != nil {
							t.Fatal(err)
						}
						if allocs != 0 {
							t.Errorf("steady-state reduce allocates %.1f times per run, want 0", allocs)
						}
					})
				}
			})
		}
	}
}

package comm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/sparse-dl/samo/internal/tensor"
)

// runGroup executes fn concurrently on every rank of a fresh fabric.
func runGroup(n int, fn func(rk *Rank)) *Fabric {
	f := NewFabric(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(f.Rank(r))
		}(r)
	}
	wg.Wait()
	return f
}

func group(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// must / must1 panic on a primitive error: these tests run on healthy
// fabrics, so any error is a test bug and the panic carries the cause.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// specialBits are values whose sums the NaN rule decides, all on the
// binary16 grid: both zeros, both infinities, and NaNs of both signs with
// distinct payloads, signalling ones included.
var specialBits = []uint32{0, 0x80000000, 0x7F800000, 0xFF800000,
	0x7FC00000, 0xFFC00000, 0x7FC02000, 0xFFE00000, 0x7FA00000, 0xFF802000}

// sprinkle overwrites even elements of buf with specials. Over the first
// 2·L² elements (L specials) ranks 0 and 1 meet in every ordered pair, ranks
// 2 and 3 likewise shifted by one; past them one rank in four holds a
// special at each even element, so specials meet finite values too.
func sprinkle(buf []float32, rank int) {
	l := len(specialBits)
	for i := 0; i < len(buf); i += 2 {
		k := i / 2
		if k >= l*l && k%4 != rank%4 {
			continue
		}
		d := k % l
		if rank%2 == 1 {
			d = k / l % l
		}
		buf[i] = math.Float32frombits(specialBits[(d+rank/2)%l])
	}
}

// serialAdd is one add of the serial sum: a NaN operand comes back quieted,
// the first operand's before the second's (x86's rule, which a Go add may
// not keep: the compiler may swap the operands); otherwise the float32 sum.
func serialAdd(a, b float32) float32 {
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return a + b
}

// serialSum is the serial group-ordered sum x₀ + x₁ + … + x_{G−1}.
func serialSum(inputs [][]float32) []float32 {
	want := append([]float32(nil), inputs[0]...)
	for _, in := range inputs[1:] {
		for i, v := range in {
			want[i] = serialAdd(want[i], v)
		}
	}
	return want
}

// Exported to the conformance suite (package comm_test).
var (
	Sprinkle  = sprinkle
	SerialSum = serialSum
)

func TestSendRecvBasic(t *testing.T) {
	f := NewFabric(2)
	s, r := f.Rank(0), f.Rank(1)
	must(s.Send(1, TagActivation, 7, []float32{1, 2, 3}))
	m := must1(r.Recv())
	if m.From != 0 || m.Tag != TagActivation || m.MB != 7 || len(m.Data) != 3 {
		t.Fatalf("bad message: %+v", m)
	}
	if f.Stats(0).P2PMessages.Load() != 1 || f.Stats(0).P2PElements.Load() != 3 {
		t.Error("stats not recorded")
	}
}

func TestSendIsAsync(t *testing.T) {
	// A send with no receiver posted must not block (buffered).
	f := NewFabric(2)
	s := f.Rank(0)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			must(s.Send(1, TagGradient, i, []float32{float32(i)}))
		}
		close(done)
	}()
	<-done // would deadlock if Send were synchronous
	r := f.Rank(1)
	for i := 0; i < 100; i++ {
		m := must1(r.Recv())
		if m.MB != i {
			t.Fatalf("message %d arrived as %d: FIFO violated", i, m.MB)
		}
	}
}

func TestAllReduceRingSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, sz := range []int{1, 5, 64, 129} {
			results := make([][]float32, n)
			runGroup(n, func(rk *Rank) {
				buf := make([]float32, sz)
				for i := range buf {
					buf[i] = float32(rk.ID()*1000 + i)
				}
				must(rk.AllReduce(group(n), buf))
				results[rk.ID()] = buf
			})
			for i := 0; i < sz; i++ {
				var want float32
				for r := 0; r < n; r++ {
					want += float32(r*1000 + i)
				}
				for r := 0; r < n; r++ {
					if math.Abs(float64(results[r][i]-want)) > 1e-3 {
						t.Fatalf("n=%d sz=%d rank %d elem %d: %g want %g",
							n, sz, r, i, results[r][i], want)
					}
				}
			}
		}
	}
}

func TestAllReduceMatchesSerialExactly(t *testing.T) {
	// Sizes below n leave chunks empty; 100 and 4099 split unevenly for
	// most n. Every rank must hold the serial rank-ordered sum, bit for bit,
	// the NaN each add returns included: the owner of a chunk at group
	// position p > 0 joins its own contribution after the partial sum.
	rng := tensor.NewRNG(1)
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, sz := range []int{0, 1, n - 1, 100, 4099} {
			inputs := make([][]float32, n)
			for r := range inputs {
				inputs[r] = make([]float32, sz)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.Norm())
				}
				sprinkle(inputs[r], r)
			}
			want := serialSum(inputs)
			results := make([][]float32, n)
			runGroup(n, func(rk *Rank) {
				buf := append([]float32(nil), inputs[rk.ID()]...)
				must(rk.AllReduce(group(n), buf))
				results[rk.ID()] = buf
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Float32bits(results[r][i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d sz=%d rank %d elem %d: %g != serial %g (must be bitwise)",
							n, sz, r, i, results[r][i], want[i])
					}
				}
			}
		}
	}
}

func TestAllReduceSubgroupsConcurrently(t *testing.T) {
	// Two disjoint groups reducing at the same time must not interfere —
	// the data-parallel groups of AxoNN do exactly this.
	n := 4
	groups := [][]int{{0, 2}, {1, 3}}
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		g := groups[rk.ID()%2]
		buf := []float32{float32(rk.ID() + 1)}
		must(rk.AllReduce(g, buf))
		results[rk.ID()] = buf
	})
	if results[0][0] != 4 || results[2][0] != 4 { // 1+3
		t.Errorf("group {0,2}: %v %v", results[0], results[2])
	}
	if results[1][0] != 6 || results[3][0] != 6 { // 2+4
		t.Errorf("group {1,3}: %v %v", results[1], results[3])
	}
}

func TestAllReduceLinearityProperty(t *testing.T) {
	// allreduce(a+b) == allreduce(a) + allreduce(b) elementwise (within fp
	// tolerance): the property gradient accumulation depends on.
	f := func(seed uint64) bool {
		n, sz := 3, 16
		rng := tensor.NewRNG(seed)
		a := make([][]float32, n)
		b := make([][]float32, n)
		for r := 0; r < n; r++ {
			a[r] = make([]float32, sz)
			b[r] = make([]float32, sz)
			for i := 0; i < sz; i++ {
				a[r][i] = float32(rng.Norm())
				b[r][i] = float32(rng.Norm())
			}
		}
		sum := func(in [][]float32) []float32 {
			var out []float32
			runGroup(n, func(rk *Rank) {
				buf := append([]float32(nil), in[rk.ID()]...)
				must(rk.AllReduce(group(n), buf))
				if rk.ID() == 0 {
					out = buf
				}
			})
			return out
		}
		ab := make([][]float32, n)
		for r := 0; r < n; r++ {
			ab[r] = make([]float32, sz)
			for i := range ab[r] {
				ab[r][i] = a[r][i] + b[r][i]
			}
		}
		ra, rb, rab := sum(a), sum(b), sum(ab)
		for i := 0; i < sz; i++ {
			if math.Abs(float64(ra[i]+rb[i]-rab[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCollectiveElementAccounting(t *testing.T) {
	n, sz := 4, 100
	f := runGroup(n, func(rk *Rank) {
		buf := make([]float32, sz)
		must(rk.AllReduce(group(n), buf))
	})
	// AllReduce receives 2·(G−1)/G·sz elements per rank.
	perRank := f.Stats(0).CollElements.Load()
	want := int64(2 * (n - 1) * sz / n)
	if math.Abs(float64(perRank-want)) > float64(n) {
		t.Errorf("per-rank collective elements %d, want ≈%d", perRank, want)
	}
	// The count is of elements received, whatever their width: at G = 2
	// both paths receive exactly sz per rank — AllReduce two halves of the
	// buffer at 4 bytes, AllReduceHalf all of it at 2.
	for _, half := range []bool{false, true} {
		f := runGroup(2, func(rk *Rank) {
			buf := make([]float32, sz+1)
			if half {
				must(rk.AllReduceHalf(group(2), buf))
			} else {
				must(rk.AllReduce(group(2), buf))
			}
		})
		for r := 0; r < 2; r++ {
			if got := f.Stats(r).CollElements.Load(); got != int64(sz+1) {
				t.Errorf("G = 2, half %v: rank %d received %d elements, want %d", half, r, got, sz+1)
			}
			if got := f.Stats(r).CollOps.Load(); got != 1 {
				t.Errorf("G = 2, half %v: rank %d counted %d collectives, want 1", half, r, got)
			}
		}
	}
}

func TestOutOfOrderCollMatching(t *testing.T) {
	// A rank that is late to one collective must still match messages from
	// a subsequent one correctly (pending-queue path): run two back-to-back
	// reductions with skewed entry.
	n := 3
	results := make([][]float32, n)
	runGroup(n, func(rk *Rank) {
		a := []float32{float32(rk.ID())}
		b := []float32{float32(rk.ID() * 10)}
		must(rk.AllReduce(group(n), a))
		must(rk.AllReduce(group(n), b))
		results[rk.ID()] = []float32{a[0], b[0]}
	})
	for r := 0; r < n; r++ {
		if results[r][0] != 3 || results[r][1] != 30 {
			t.Errorf("rank %d: %v, want [3 30]", r, results[r])
		}
	}
}

func TestBufferPoolBoundedAcrossFabrics(t *testing.T) {
	// Experiment sweeps create many fabrics and push many distinct buffer
	// sizes through each. The collective buffer pool is scoped per fabric
	// and bounded, so (a) one fabric can never retain more than the bound
	// no matter how many sizes it sees, and (b) finished fabrics take their
	// pools with them instead of growing process-global state.
	const cycles = 8
	for cyc := 0; cyc < cycles; cyc++ {
		n := 3 + cyc%3
		f := runGroup(n, func(rk *Rank) {
			g := group(n)
			// Many distinct sizes per cycle, as a sweep over layer shapes
			// would produce.
			for _, sz := range []int{31, 64, 257, 1024, 4099, 16384, 65537} {
				buf := make([]float32, sz)
				for i := range buf {
					buf[i] = float32(rk.ID() + i)
				}
				must(rk.AllReduce(g, buf))
				must(rk.AllReduce(g, buf[:1]))
			}
		})
		if got := f.PooledBytes(); got > maxPoolFloats*4 {
			t.Fatalf("cycle %d: fabric retains %d bytes, bound is %d", cyc, got, maxPoolFloats*4)
		}
	}
}

func TestBufferPoolCapacityReuse(t *testing.T) {
	// The fabric's float pool, and the type's class arithmetic held at a
	// second element size.
	t.Run("float32", func(t *testing.T) { testPoolCapacityReuse[float32](t, maxPoolFloats) })
	t.Run("byte", func(t *testing.T) { testPoolCapacityReuse[byte](t, 8<<20) })
}

func testPoolCapacityReuse[T any](t *testing.T, max int64) {
	// Nearly-equal sizes must share buffers (power-of-two classes), not
	// each pin their own: after cycling sizes 1000..1007 the pool holds at
	// most one 1024-class buffer, where the old exact-size map kept eight.
	p := Pool[T]{Max: max}
	for sz := 1000; sz < 1008; sz++ {
		b := p.Get(sz)
		if len(b) != sz {
			t.Fatalf("Get(%d) returned len %d", sz, len(b))
		}
		p.Put(b)
	}
	if p.Retained() != 1024 {
		t.Fatalf("pool retains %d elements after same-class cycling, want 1024", p.Retained())
	}
	// And the retained buffer satisfies any size in its class without
	// allocating a new one.
	b := p.Get(1024)
	if p.Retained() != 0 {
		t.Fatalf("pool retains %d elements after Get, want 0", p.Retained())
	}
	p.Put(b)
	// The bound is per instance: a second buffer of a served class is
	// dropped once it would exceed Max, while an EMPTY class may retain one
	// buffer past it (a chunk bigger than the budget must still recycle).
	p.Max = 1024
	p.Put(make([]T, 1024))
	p.Put(make([]T, 4096))
	if p.Retained() != 1024+4096 {
		t.Fatalf("pool retains %d elements, want %d", p.Retained(), 1024+4096)
	}
}

// Package comm is the communication fabric standing in for NCCL/MPI on
// Summit: one goroutine per rank, a pluggable Transport as the links. It
// provides the two communication patterns the paper optimizes —
//
//   - asynchronous point-to-point messaging with a per-rank inbox (AxoNN's
//     message-driven scheduling reads whatever activation/gradient arrives
//     next, §II-E), used by inter-layer parallelism;
//   - an all-reduce returning the serial rank-ordered sum, used by data
//     parallelism, with a twin for fp16-grid payloads (the gradient) that
//     moves them at two bytes per element.
//
// The default transport is the in-process channel mesh (LocalTransport);
// internal/comm/tcp supplies a multi-process wire transport with identical
// semantics (see transport.go). Every rank records the bytes it moved, so
// experiments can attribute communication volume exactly.
package comm

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Pool recycles buffers in power-of-two capacity classes. A fabric keeps its
// float32 chunk buffers in one: every collective chunk a rank receives is
// taken from it (a local sender's copy, or a wire transport's read straight
// off the socket) and returned to it once the receiver folds the payload in,
// so steady-state collectives allocate nothing.
//
// A pool is scoped to its fabric, not the process: experiment sweeps create
// many fabrics with many distinct buffer sizes, and a process-wide pool
// retained every one of them forever. A fabric's pool is shared across that
// fabric's ranks (buffers migrate between its goroutines by design) and dies
// with it.
//
// Buffers are reused for any request the class capacity covers (Get
// reslices), so nearly-equal sizes — all-reduce chunk boundaries differ by
// one element across ranks — share buffers instead of each pinning their own.
// Total retained capacity is bounded by Max; Put drops buffers beyond the
// bound and lets the GC take them.
type Pool[T any] struct {
	// Max bounds the retained capacity, in elements; set before first use.
	// An EMPTY class may retain one buffer past the bound — a chunk bigger
	// than the whole budget must still round-trip through the pool, or
	// every all-reduce of a large model would allocate.
	Max int64

	mu sync.Mutex
	// Class i holds buffers with cap 2^i; 64 classes cover every
	// representable capacity (class = ceil-log2, at most 63 for an int).
	byClass  [64][][]T
	retained int64 // total element capacity currently pooled
}

// maxPoolFloats bounds a fabric pool's retained capacity (4 MiB of
// float32s). An all-reduce keeps a few chunks per peer in flight, so steady
// state sits far below the bound; the bound only bites when a sweep pushes
// many distinct large sizes through one fabric.
const maxPoolFloats = 1 << 20

// bufClass returns the class index whose buffers can hold n elements:
// ceil(log2(n)).
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a buffer of length n (nil for 0), pooled if its class has one.
func (p *Pool[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	c := bufClass(n)
	p.mu.Lock()
	if list := p.byClass[c]; len(list) > 0 {
		b := list[len(list)-1]
		p.byClass[c] = list[:len(list)-1]
		p.retained -= int64(cap(b))
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	// Allocate the full class capacity so the buffer is reusable for every
	// size in its class.
	b := make([]T, 1<<c)
	return b[:n]
}

// Put returns a buffer obtained from Get.
func (p *Pool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	c := bufClass(cap(b))
	if 1<<c != cap(b) {
		return // not class-aligned (foreign buffer): don't pool it
	}
	p.mu.Lock()
	if len(p.byClass[c]) > 0 && p.retained+int64(cap(b)) > p.Max {
		p.mu.Unlock() // over budget and class already served: drop for GC
		return
	}
	p.retained += int64(cap(b))
	p.byClass[c] = append(p.byClass[c], b)
	p.mu.Unlock()
}

// Retained returns the element capacity currently pooled.
func (p *Pool[T]) Retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}

// Drain releases every pooled buffer to the GC.
func (p *Pool[T]) Drain() {
	p.mu.Lock()
	p.byClass = [64][][]T{}
	p.retained = 0
	p.mu.Unlock()
}

// PooledBytes returns the bytes currently retained by the fabric's
// collective buffer pool (bounded by design; see Pool).
func (f *Fabric) PooledBytes() int64 { return f.bufs.Retained() * 4 }

// Tag classifies data-plane messages so the engine can dispatch them.
type Tag int

// Data-plane message tags used by the training engine.
const (
	TagActivation Tag = iota // forward activations, stage i -> i+1
	TagGradient              // backward gradients, stage i+1 -> i
)

// Message is one point-to-point payload. MB identifies the microbatch it
// belongs to; Seq is a sender-assigned sequence number; Shape optionally
// carries the tensor geometry so the receiver can reconstruct it.
type Message struct {
	From  int
	Tag   Tag
	MB    int
	Data  []float32
	Shape []int
	Seq   int
}

// Stats counts a rank's traffic in elements, whatever their width on the
// wire: AllReduce receives float32s at 4 bytes, AllReduceHalf's exchange
// binary16 values at 2, and both count each element once.
type Stats struct {
	P2PMessages  atomic.Int64
	P2PElements  atomic.Int64
	CollOps      atomic.Int64
	CollElements atomic.Int64
	// ExposedCollNanos is wall time the rank's goroutine spent inside
	// collective calls. Every collective is synchronous, so all of it sits
	// on the rank's critical path.
	ExposedCollNanos atomic.Int64
}

// Fabric connects n ranks. Create once, then hand each goroutine its Rank.
// A fabric carries a fault model (see fault.go): it can be poisoned — by an
// injected FaultPlan, the collective deadline detector, or an engine calling
// Poison/Fail — after which every blocking primitive returns the poison
// error instead of waiting on dead peers.
type Fabric struct {
	n      int
	tr     Transport
	remote bool // any rank not local to this process
	stats  []Stats
	bufs   Pool[float32]

	// Poison state: one-way, first error wins (fault.go).
	poisonOnce sync.Once
	poisoned   atomic.Bool
	poisonErr  error
	poisonCh   chan struct{}

	// Backstop detector: blocking receives give up after this long (0=off).
	deadlineNs atomic.Int64

	// Armed fault plan (nil-equivalent when faulty is false).
	faulty      bool
	crashAtStep []int // per rank, -1 = never
	crashAtOp   []int
	dropEvery   int
	delayEvery  int
	faultSeed   uint64
	p2pSeen     atomic.Int64
	delayMu     sync.Mutex
	delayed     []*Message // per destination, at most one held-back message
}

// NewFabric creates an in-process fabric with n ranks and generous channel
// buffering (sends are asynchronous until the buffer fills, mirroring
// NCCL's eager protocol for small messages).
func NewFabric(n int) *Fabric {
	return NewFabricOver(NewLocalTransport(n))
}

// NewFabricOver creates a fabric on an explicit transport (the channel mesh
// via NewLocalTransport, or a wire transport such as tcp.Connect). The
// fabric takes ownership: Fabric.Close tears the transport down.
func NewFabricOver(tr Transport) *Fabric {
	n := tr.Size()
	if n < 1 {
		panic("comm: fabric needs at least one rank")
	}
	f := &Fabric{n: n,
		tr:       tr,
		bufs:     Pool[float32]{Max: maxPoolFloats},
		stats:    make([]Stats, n),
		poisonCh: make(chan struct{}),
	}
	for r := 0; r < n; r++ {
		if !tr.IsLocal(r) {
			f.remote = true
			break
		}
	}
	tr.Attach(f)
	return f
}

// Size returns the number of ranks.
func (f *Fabric) Size() int { return f.n }

// Rank returns the handle for rank r, which must be local to this process's
// transport. Each handle must be used by a single goroutine.
func (f *Fabric) Rank(r int) *Rank {
	if r < 0 || r >= f.n {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", r, f.n))
	}
	if !f.tr.IsLocal(r) {
		panic(fmt.Sprintf("comm: rank %d is not local to this process's transport", r))
	}
	return &Rank{f: f, r: r, step: -1, pending: make(map[pendKey]*pendQueue)}
}

// Stats returns the traffic counters for rank r.
func (f *Fabric) Stats(r int) *Stats { return &f.stats[r] }

// TotalP2PElements sums point-to-point elements over all ranks.
func (f *Fabric) TotalP2PElements() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].P2PElements.Load()
	}
	return s
}

// TotalCollElements sums collective elements over all ranks.
func (f *Fabric) TotalCollElements() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].CollElements.Load()
	}
	return s
}

// TotalExposedCollNanos sums exposed (blocking) collective wall time over
// all ranks. See Stats.ExposedCollNanos for the exposure semantics.
func (f *Fabric) TotalExposedCollNanos() int64 {
	var s int64
	for i := range f.stats {
		s += f.stats[i].ExposedCollNanos.Load()
	}
	return s
}

type pendKey struct {
	from, tag int
}

// pendQueue is a FIFO of out-of-order collective messages. It reuses its
// backing array (head index instead of re-slicing) so transient reordering
// does not allocate in steady state, and compacts the live tail to the
// front once the dead prefix dominates, so a queue that never fully drains
// (steady push/pop interleave) cannot grow its backing array without
// bound.
type pendQueue struct {
	items []CollFrame
	head  int
}

// pendCompactMin is the dead-prefix length below which pop skips
// compaction: tiny queues reset for free when they drain, and compacting
// every pop would turn the O(1) head-index pop back into O(n) shifting.
const pendCompactMin = 32

func (q *pendQueue) push(m CollFrame) { q.items = append(q.items, m) }

func (q *pendQueue) pop() (CollFrame, bool) {
	if q.head >= len(q.items) {
		return CollFrame{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = CollFrame{}
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= pendCompactMin && q.head*2 >= len(q.items):
		// Dead prefix is at least half the array and worth reclaiming:
		// move the live tail down. Amortized O(1) — a compaction of k
		// moves is paid for by the >=k pops that created the prefix.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return m, true
}

// Rank is one participant's endpoint. Not safe for concurrent use by
// multiple goroutines (each simulated GPU is one goroutine, as on the real
// machine each GPU has one process).
type Rank struct {
	f       *Fabric
	r       int
	pending map[pendKey]*pendQueue
	seq     int
	step    int   // current engine step (BeginStep), for failure attribution
	ops     int   // collective entries so far, for CrashAtOp fault points
	bounds  []int // reusable chunk-boundary scratch for AllReduce
}

// chunkBounds fills the rank's reusable boundary scratch (an all-reduce
// runs once per gradient buffer per batch; allocating here would defeat the
// engine's zero-alloc steady state).
func (rk *Rank) chunkBounds(n, g int) []int {
	if cap(rk.bounds) < g+1 {
		rk.bounds = make([]int, g+1)
	}
	rk.bounds = rk.bounds[:g+1]
	fillChunkBounds(rk.bounds, n, g)
	return rk.bounds
}

// ID returns this rank's index.
func (rk *Rank) ID() int { return rk.r }

// Send delivers a data-plane message asynchronously. The data slice is
// handed over; the sender must not modify it afterwards (zero-copy, like a
// GPU handing a buffer to the NIC). shape, if given, describes the tensor
// geometry of data. On a poisoned fabric Send returns the poison error;
// under an armed fault plan the message may be deterministically dropped or
// held back (delivered after the destination's next message).
func (rk *Rank) Send(to int, tag Tag, mb int, data []float32, shape ...int) error {
	if err := rk.f.Err(); err != nil {
		return err
	}
	rk.seq++
	rk.f.stats[rk.r].P2PMessages.Add(1)
	rk.f.stats[rk.r].P2PElements.Add(int64(len(data)))
	msg := Message{From: rk.r, Tag: tag, MB: mb, Data: data, Shape: shape, Seq: rk.seq}
	if rk.f.faulty {
		n := uint64(rk.f.p2pSeen.Add(1)) + rk.f.faultSeed
		if d := rk.f.dropEvery; d > 0 && n%uint64(d) == 0 {
			return nil // lost on the wire; the deadline detector is the remedy
		}
		if d := rk.f.delayEvery; d > 0 && n%uint64(d) == 0 {
			rk.f.delayMu.Lock()
			held := rk.f.delayed[to]
			rk.f.delayed[to] = &msg
			rk.f.delayMu.Unlock()
			if held == nil {
				return nil
			}
			msg = *held // two holds collide: the older one goes out now
		}
	}
	if err := rk.deliver(to, msg); err != nil {
		return err
	}
	if rk.f.delayed != nil {
		rk.f.delayMu.Lock()
		held := rk.f.delayed[to]
		rk.f.delayed[to] = nil
		rk.f.delayMu.Unlock()
		if held != nil {
			return rk.deliver(to, *held)
		}
	}
	return nil
}

func (rk *Rank) deliver(to int, msg Message) error {
	return rk.f.tr.SendData(to, msg)
}

// Recv blocks for the next data-plane message. It returns the poison error
// as soon as the fabric dies (messages already queued are not drained), and
// trips the deadline detector when one is configured.
func (rk *Rank) Recv() (Message, error) {
	if err := rk.f.Err(); err != nil {
		return Message{}, err
	}
	var timeout <-chan time.Time
	d := rk.f.deadline()
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case m := <-rk.f.tr.DataCh(rk.r):
		return m, nil
	case <-rk.f.poisonCh:
		return Message{}, rk.f.Err()
	case <-timeout:
		err := &DeadlineError{Rank: rk.r, Step: rk.step, Timeout: d}
		rk.f.Poison(err)
		return Message{}, err
	}
}

// --- Collectives -----------------------------------------------------------
//
// All collective calls must be made by every rank of the group, with equal
// buffer lengths, in the same order. Internally they use a control-plane
// channel with (from, tag) matching so concurrent groups cannot interfere.

func (rk *Rank) recvColl(from, tag int) ([]float32, error) {
	k := pendKey{from, tag}
	if q := rk.pending[k]; q != nil {
		if m, ok := q.pop(); ok {
			return m.Data, nil
		}
	}
	var timeout <-chan time.Time
	d := rk.f.deadline()
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if err := rk.f.Err(); err != nil {
			return nil, err
		}
		select {
		case m := <-rk.f.tr.CollCh(rk.r):
			if m.From == from && m.Tag == tag {
				return m.Data, nil
			}
			mk := pendKey{m.From, m.Tag}
			q := rk.pending[mk]
			if q == nil {
				q = &pendQueue{}
				rk.pending[mk] = q
			}
			q.push(m)
		case <-rk.f.poisonCh:
			return nil, rk.f.Err()
		case <-timeout:
			err := &DeadlineError{Rank: rk.r, Step: rk.step, Timeout: d}
			rk.f.Poison(err)
			return nil, err
		}
	}
}

// groupPos returns this rank's index within group, panicking if absent.
func (rk *Rank) groupPos(group []int) int {
	for i, g := range group {
		if g == rk.r {
			return i
		}
	}
	panic(fmt.Sprintf("comm: rank %d not in group %v", rk.r, group))
}

// Collective tags: one per all-reduce phase (the half exchange is one
// phase). Each rank sends a peer at most one frame per phase, and frames
// between a pair arrive in order, so back-to-back reduces match without a
// sequence number.
const (
	tagReduceScatter = 1<<20 + iota
	tagAllGather
	tagHalfExchange
)

// AllReduce sums buf across the group in place. Every rank ends with the
// serial group-ordered sum x₀ + x₁ + … + x_{G−1}, bit for bit (NaNs
// included: each add returns its first operand's NaN, tensor.OrderedAdd),
// at every group size and buffer length: the rank at group position p owns
// chunk p of the buffer, receives every other rank's copy of it, folds the G
// contributions in group order, and sends the sum back to every other rank.
// Each rank receives 2·(G−1)/G of the buffer, as in a ring; an empty chunk
// moves nothing. AllReduceHalf is the same sum for a buffer on the binary16
// grid; it exchanges half bits when G ≤ 3 and runs this path otherwise. On a
// poisoned fabric (or when a fault fires) it unwinds with the typed error;
// buf's contents are then unspecified and the caller must not step on them.
func (rk *Rank) AllReduce(group []int, buf []float32) error {
	start := time.Now()
	err := rk.allReduce(group, buf)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// allReduce is AllReduce without the exposed-time accounting, shared with
// AllReduceHalf's other group sizes (their time is counted once, by
// AllReduceHalf).
func (rk *Rank) allReduce(group []int, buf []float32) error {
	if err := rk.enterColl(); err != nil {
		return err
	}
	g := len(group)
	if g == 1 {
		return nil
	}
	pos := rk.groupPos(group)
	bounds := rk.chunkBounds(len(buf), g)
	rk.f.stats[rk.r].CollOps.Add(1)

	// Reduce-scatter: hand every other chunk to its owner.
	for q, to := range group {
		if q != pos {
			if err := rk.sendChunk(to, tagReduceScatter, buf[bounds[q]:bounds[q+1]]); err != nil {
				return err
			}
		}
	}
	own := buf[bounds[pos]:bounds[pos+1]]
	if len(own) > 0 {
		if err := rk.foldOwned(group, pos, own); err != nil {
			return err
		}
	}
	// All-gather: send the owned sum to every other rank, take theirs.
	for q, to := range group {
		if q != pos {
			if err := rk.sendChunk(to, tagAllGather, own); err != nil {
				return err
			}
		}
	}
	for q, from := range group {
		lo, hi := bounds[q], bounds[q+1]
		if q == pos || lo == hi {
			continue
		}
		in, err := rk.recvColl(from, tagAllGather)
		if err != nil {
			return err
		}
		rk.f.stats[rk.r].CollElements.Add(int64(len(in)))
		copy(buf[lo:hi], in)
		rk.f.bufs.Put(in)
	}
	return nil
}

// maxHalfGroup is the largest group AllReduceHalf exchanges half bits in.
// A rank receives 2(G−1)·n bytes there against owner-folds' 8(G−1)/G·n:
// half at G = 2, three quarters at G = 3, equal at G = 4, so from 4 up it
// runs AllReduce. The bits are the same either way.
const maxHalfGroup = 3

// OffGridError reports an AllReduceHalf payload element that is not a
// binary16 value widened: the half exchange never rounds, so the rank
// fails instead, and the fabric with it.
type OffGridError struct {
	Index int    // the first such element of the rank's buffer
	Bits  uint32 // its float32 bits
}

func (e *OffGridError) Error() string {
	return fmt.Sprintf("comm: half all-reduce element %d (bits %#08x) is not on the binary16 grid", e.Index, e.Bits)
}

// AllReduceHalf is AllReduce for a buffer whose every element is a binary16
// value widened to float32 — a ∇θ16 slab: every rank ends with the same
// serial group-ordered sum, bit for bit. For G ∈ {2, 3} it exchanges the
// payload at two bytes per element: each rank packs buf into half words over
// buf's own front (fp16.PackHalves, which checks every element is on the
// grid), sends them to every other rank in one frame, and folds the G
// contributions itself in group order, widening as it reads — exact, so the
// sum is the serial one. One phase and, per rank, 2(G−1)·n bytes received
// into pooled buffers; the rank's own words need none. Any other G runs
// AllReduce. An element off the grid fails the rank with an OffGridError,
// and a peer's frame whose length does not match this rank's buffer fails
// it too: the fabric is poisoned and every rank unwinds with a
// RankFailedError. As with AllReduce, buf is unspecified after an error.
func (rk *Rank) AllReduceHalf(group []int, buf []float32) error {
	start := time.Now()
	err := rk.allReduceHalf(group, buf)
	rk.f.stats[rk.r].ExposedCollNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// allReduceHalf is AllReduceHalf without the exposed-time accounting.
func (rk *Rank) allReduceHalf(group []int, buf []float32) error {
	g := len(group)
	if g == 1 || g > maxHalfGroup {
		return rk.allReduce(group, buf)
	}
	if err := rk.enterColl(); err != nil {
		return err
	}
	pos := rk.groupPos(group)
	rk.f.stats[rk.r].CollOps.Add(1)
	n := len(buf)
	if n == 0 {
		return nil
	}
	own, bad := fp16.PackHalves(buf)
	if bad >= 0 {
		return rk.Fail(&OffGridError{Index: bad, Bits: math.Float32bits(buf[bad])})
	}
	for q, to := range group {
		if q != pos {
			if err := rk.sendChunk(to, tagHalfExchange, own); err != nil {
				return err
			}
		}
	}
	// Each rank's words in group order; the received ones go back to the
	// pool however this returns.
	var in [maxHalfGroup][]float32
	defer func() {
		for q, w := range in[:g] {
			if q != pos {
				rk.f.bufs.Put(w)
			}
		}
	}()
	in[pos] = own
	for q, from := range group {
		if q == pos {
			continue
		}
		w, err := rk.recvColl(from, tagHalfExchange)
		if err != nil {
			return err
		}
		in[q] = w
		if len(w) != len(own) {
			return rk.Fail(fmt.Errorf("comm: half all-reduce frame of %d words from rank %d, want %d for %d elements",
				len(w), from, len(own), n))
		}
		rk.f.stats[rk.r].CollElements.Add(int64(n))
	}
	fp16.SumHalves(buf, in[0], in[1], in[2])
	return nil
}

// sendChunk sends chunk to rank to; an empty chunk sends nothing (its
// receiver expects nothing). The transport borrows chunk only until it
// returns (see Transport.SendColl), so the caller may overwrite it.
func (rk *Rank) sendChunk(to, tag int, chunk []float32) error {
	if len(chunk) == 0 {
		return nil
	}
	return rk.f.tr.SendColl(to, CollFrame{From: rk.r, Tag: tag, Data: chunk})
}

// foldOwned receives every other rank's copy of the owned chunk and sums
// the G contributions in group order into own. The running sum x₀ + … + x_q
// builds in rank 0's received buffer until the rank's own contribution
// joins, then in own. Every add takes the running sum as its first operand,
// own's join included (AddIntoRev), because the NaN an add returns is its
// first operand's: the serial bits, NaN payloads and signs too.
func (rk *Rank) foldOwned(group []int, pos int, own []float32) error {
	acc := own
	for q, from := range group {
		if q == pos {
			if q > 0 {
				tensor.AddIntoRev(own, acc)
				rk.f.bufs.Put(acc)
				acc = own
			}
			continue
		}
		in, err := rk.recvColl(from, tagReduceScatter)
		if err != nil {
			return err
		}
		rk.f.stats[rk.r].CollElements.Add(int64(len(in)))
		if q == 0 {
			acc = in
			continue
		}
		tensor.AddInto(acc, in)
		rk.f.bufs.Put(in)
	}
	return nil
}

// fillChunkBounds splits n elements into g nearly equal contiguous chunks,
// writing the g+1 boundaries into b.
func fillChunkBounds(b []int, n, g int) {
	b[0] = 0
	base, rem := n/g, n%g
	for i := 0; i < g; i++ {
		b[i+1] = b[i] + base
		if i < rem {
			b[i+1]++
		}
	}
}

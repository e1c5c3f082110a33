// Package tcp is the wire transport for the communication fabric: the
// multi-process counterpart of comm.LocalTransport, standing in for the
// network links between Summit nodes. One Transport endpoint per process;
// the fabric's ranks are split into contiguous blocks over the processes
// in Config.Addrs order, and each pair of endpoints is connected by two
// one-directional TCP connections (each side dials its outbound link, so
// startup order does not matter and a restarted peer can always re-dial).
//
// Framing is length-prefixed little-endian: a u32 payload length, a kind
// byte (data / collective / poison), then the fixed header fields and the
// payload of 32-bit words, bit for bit — float32 values, or the half words
// of comm.Rank.AllReduceHalf (two binary16 values to a word, built
// arithmetically, so the per-word byte order keeps them in place) — so
// collectives are bitwise-identical to the in-process transport. A send writes the header from a per-peer scratch
// and the payload from the sender's own memory in one vectored write; a
// receive reads the fixed header, validates it, and only then reads the
// payload straight into its destination (a pooled fabric buffer for a
// collective chunk, the message's own slice for a data frame). On a
// little-endian host the payload is the float32 slice's own bytes, so
// steady-state collectives copy nothing and allocate nothing on the wire.
//
// Failure mapping follows the fabric's poison model: a connection read or
// write error poisons the local fabric with a RankFailedError attributed
// to the dead peer's first rank; a socket write that exceeds the fabric's
// collective deadline surfaces as a DeadlineError; and a poisoned fabric
// broadcasts a poison frame to every peer (best effort) so remote ranks
// unwind with the same typed error instead of waiting for their own
// detectors. Fabric.Close tears down connections without masking an
// earlier failure's error.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/sparse-dl/samo/internal/comm"
)

const (
	handshakeMagic    = 0x53414d4f // "SAMO"
	wireVersion       = 1
	frameData         = byte(0)
	frameColl         = byte(1)
	framePoison       = byte(2)
	maxFrameBytes     = 1 << 28 // bound on a frame's payload bytes
	maxShapeDims      = 8       // bound on a data frame's tensor rank
	maxPoisonMsg      = 1 << 12 // bound on a poison frame's message bytes
	chanDepth         = 4096    // matches LocalTransport's eager buffering
	dialRetryEvery    = 25 * time.Millisecond
	defaultDialBudget = 15 * time.Second
	poisonWriteBudget = time.Second
)

// Config describes one process's endpoint of a multi-process fabric.
type Config struct {
	// Addrs lists one listen address per process. The fabric's ranks are
	// split into contiguous blocks over the processes in this order, so
	// every process must pass the same Addrs.
	Addrs []string
	// Proc is this process's index into Addrs.
	Proc int
	// Ranks is the total rank count of the fabric (>= len(Addrs)).
	Ranks int
	// DialTimeout bounds the whole mesh construction — dialing every peer
	// (with retries, so a peer that is still starting or restarting after
	// a crash is awaited) and accepting every inbound connection.
	// 0 means 15s.
	DialTimeout time.Duration
	// Listener optionally supplies a pre-bound listener for Addrs[Proc]
	// (tests bind port 0 first to learn the address). Connect takes
	// ownership either way.
	Listener net.Listener
}

// peerConn is the two-connection link to one peer process: out is dialed
// by us (writes, and the frame writer's scratch, serialized by mu), in is
// accepted from the peer (owned by its reader goroutine).
type peerConn struct {
	mu  sync.Mutex
	out net.Conn
	in  net.Conn
	w   frameWriter
}

// Transport implements comm.Transport over TCP.
type Transport struct {
	cfg    Config
	nproc  int
	bounds []int // rank block boundaries per process, len nproc+1
	f      *comm.Fabric
	peers  []*peerConn // indexed by process, nil for self
	data   []chan comm.Message
	coll   []chan comm.CollFrame

	closed     atomic.Bool
	poisonMu   sync.Mutex
	poisonSent bool
}

// Connect builds this process's endpoint: it listens on Addrs[Proc], dials
// every other process (retrying until DialTimeout, so peers may start in
// any order), and accepts one inbound connection per peer. The returned
// transport is ready for comm.NewFabricOver.
func Connect(cfg Config) (*Transport, error) {
	nproc := len(cfg.Addrs)
	if nproc < 1 {
		return nil, errors.New("tcp: config needs at least one address")
	}
	if cfg.Proc < 0 || cfg.Proc >= nproc {
		return nil, fmt.Errorf("tcp: proc %d outside [0,%d)", cfg.Proc, nproc)
	}
	if cfg.Ranks < nproc {
		return nil, fmt.Errorf("tcp: %d ranks cannot cover %d processes", cfg.Ranks, nproc)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialBudget
	}
	t := &Transport{
		cfg:    cfg,
		nproc:  nproc,
		bounds: procBounds(cfg.Ranks, nproc),
		peers:  make([]*peerConn, nproc),
		data:   make([]chan comm.Message, cfg.Ranks),
		coll:   make([]chan comm.CollFrame, cfg.Ranks),
	}
	for r := t.bounds[cfg.Proc]; r < t.bounds[cfg.Proc+1]; r++ {
		t.data[r] = make(chan comm.Message, chanDepth)
		t.coll[r] = make(chan comm.CollFrame, chanDepth)
	}
	if nproc == 1 {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return t, nil
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Proc])
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Addrs[cfg.Proc], err)
		}
	}
	deadline := time.Now().Add(cfg.DialTimeout)

	// Dial every peer concurrently while accepting their dials to us.
	outs := make([]net.Conn, nproc)
	dialErrs := make([]error, nproc)
	var wg sync.WaitGroup
	for j := 0; j < nproc; j++ {
		if j == cfg.Proc {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			outs[j], dialErrs[j] = dialPeer(cfg.Addrs[j], cfg.Proc, deadline)
		}(j)
	}

	ins := make([]net.Conn, nproc)
	var acceptErr error
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for need := nproc - 1; need > 0; {
		c, err := ln.Accept()
		if err != nil {
			acceptErr = fmt.Errorf("tcp: accepting peers on %s: %w", cfg.Addrs[cfg.Proc], err)
			break
		}
		c.SetReadDeadline(deadline)
		peer, err := readHandshake(c)
		c.SetReadDeadline(time.Time{})
		if err != nil || peer < 0 || peer >= nproc || peer == cfg.Proc || ins[peer] != nil {
			c.Close() // stray, malformed, or duplicate connection
			continue
		}
		ins[peer] = c
		need--
	}
	ln.Close()
	wg.Wait()

	fail := func(err error) (*Transport, error) {
		for _, c := range outs {
			if c != nil {
				c.Close()
			}
		}
		for _, c := range ins {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	if acceptErr != nil {
		return fail(acceptErr)
	}
	for j := 0; j < nproc; j++ {
		if j == cfg.Proc {
			continue
		}
		if dialErrs[j] != nil {
			return fail(fmt.Errorf("tcp: dialing proc %d: %w", j, dialErrs[j]))
		}
		t.peers[j] = &peerConn{out: outs[j], in: ins[j]}
	}
	return t, nil
}

// Loopback builds n fully connected single-rank endpoints on 127.0.0.1
// (rank i lives on endpoint i) — the conformance and chaos harness for
// exercising the wire path inside one test process.
func Loopback(n int) ([]*Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i], errs[i] = Connect(Config{
				Addrs: addrs, Proc: i, Ranks: n,
				DialTimeout: 10 * time.Second, Listener: lns[i],
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, tr := range trs {
				if tr != nil {
					tr.Close()
				}
			}
			return nil, err
		}
	}
	return trs, nil
}

func dialPeer(addr string, proc int, deadline time.Time) (net.Conn, error) {
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("dial %s: timed out", addr)
		}
		step := 500 * time.Millisecond
		if remain < step {
			step = remain
		}
		c, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			c.SetWriteDeadline(deadline)
			err = writeHandshake(c, proc)
			c.SetWriteDeadline(time.Time{})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("dial %s: handshake: %w", addr, err)
			}
			return c, nil
		}
		// The peer may not be listening yet (arbitrary startup order, or a
		// crashed process being restarted): retry until the budget runs out.
		time.Sleep(dialRetryEvery)
	}
}

func writeHandshake(c io.Writer, proc int) error {
	var b [9]byte
	binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
	b[4] = wireVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(proc))
	_, err := c.Write(b[:])
	return err
}

func readHandshake(c io.Reader) (int, error) {
	var b [9]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return -1, err
	}
	if binary.LittleEndian.Uint32(b[0:4]) != handshakeMagic {
		return -1, errors.New("tcp: bad handshake magic")
	}
	if b[4] != wireVersion {
		return -1, fmt.Errorf("tcp: wire version %d, want %d", b[4], wireVersion)
	}
	return int(binary.LittleEndian.Uint32(b[5:9])), nil
}

// procBounds splits n ranks into nproc contiguous blocks (same arithmetic
// as the fabric's all-reduce chunks, so rank->process mapping is
// deterministic).
func procBounds(n, nproc int) []int {
	b := make([]int, nproc+1)
	base, rem := n/nproc, n%nproc
	for i := 0; i < nproc; i++ {
		b[i+1] = b[i] + base
		if i < rem {
			b[i+1]++
		}
	}
	return b
}

func (t *Transport) procOf(r int) int {
	for j := 0; j < t.nproc; j++ {
		if r < t.bounds[j+1] {
			return j
		}
	}
	panic(fmt.Sprintf("tcp: rank %d outside fabric of %d", r, t.cfg.Ranks))
}

// Size returns the fabric's total rank count.
func (t *Transport) Size() int { return t.cfg.Ranks }

// IsLocal reports whether rank r's block is this process's.
func (t *Transport) IsLocal(r int) bool {
	return r >= t.bounds[t.cfg.Proc] && r < t.bounds[t.cfg.Proc+1]
}

// FirstLocalRank returns the lowest rank hosted by this endpoint.
func (t *Transport) FirstLocalRank() int { return t.bounds[t.cfg.Proc] }

// Attach binds the fabric and starts one reader goroutine per peer link.
func (t *Transport) Attach(f *comm.Fabric) {
	t.f = f
	for j, p := range t.peers {
		if p == nil {
			continue
		}
		go t.readLoop(j, p.in)
	}
}

// DataCh returns local rank r's data-plane receive channel.
func (t *Transport) DataCh(r int) <-chan comm.Message { return t.data[r] }

// CollCh returns local rank r's collective-plane receive channel.
func (t *Transport) CollCh(r int) <-chan comm.CollFrame { return t.coll[r] }

// SendData delivers a data-plane message: a channel send for a local
// destination, a frame written from m's own memory for a remote one.
func (t *Transport) SendData(to int, m comm.Message) error {
	if t.IsLocal(to) {
		select {
		case t.data[to] <- m:
			return nil
		case <-t.f.Done():
			return t.f.Err()
		}
	}
	return t.writePeer(t.procOf(to), &frame{kind: frameData, to: to, msg: m})
}

// SendColl delivers a collective frame, borrowing fr.Data until it
// returns: a local destination gets a copy in a pooled fabric buffer, a
// remote one the payload written straight from fr.Data.
func (t *Transport) SendColl(to int, fr comm.CollFrame) error {
	if t.IsLocal(to) {
		out := t.f.WireBuf(len(fr.Data))
		copy(out, fr.Data)
		fr.Data = out
		select {
		case t.coll[to] <- fr:
			return nil
		case <-t.f.Done():
			return t.f.Err()
		}
	}
	return t.writePeer(t.procOf(to), &frame{kind: frameColl, to: to, coll: fr})
}

func (t *Transport) writePeer(proc int, fr *frame) error {
	if err := t.f.Err(); err != nil {
		return err
	}
	p := t.peers[proc]
	p.mu.Lock()
	if d := time.Duration(t.f.Deadline()); d > 0 {
		p.out.SetWriteDeadline(time.Now().Add(d))
	} else {
		p.out.SetWriteDeadline(time.Time{})
	}
	err := p.w.write(p.out, fr)
	p.mu.Unlock()
	if err != nil {
		return t.wireFailure(proc, err)
	}
	return nil
}

// wireFailure maps a connection error onto the fabric's poison path: a
// timeout becomes the DeadlineError backstop (attributed to this
// process's first rank, the detector), anything else a RankFailedError
// attributed to the dead peer's first rank. Errors during teardown are
// not new failures.
func (t *Transport) wireFailure(proc int, err error) error {
	if t.closed.Load() {
		if perr := t.f.Err(); perr != nil {
			return perr
		}
		return comm.ErrFabricClosed
	}
	var typed error
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		typed = fmt.Errorf("%w: tcp write to proc %d stalled: %v",
			&comm.DeadlineError{
				Rank:    t.FirstLocalRank(),
				Step:    -1,
				Timeout: time.Duration(t.f.Deadline()),
			}, proc, err)
	} else {
		typed = fmt.Errorf("%w: tcp link to proc %d (ranks %d-%d): %v",
			&comm.RankFailedError{Rank: t.bounds[proc], Step: -1},
			proc, t.bounds[proc], t.bounds[proc+1]-1, err)
	}
	t.f.Poison(typed)
	return t.f.Err()
}

// PropagatePoison broadcasts a poison frame to every peer so remote ranks
// unwind with the same typed error. Asynchronous: the poisoning rank's
// unwind must never wait on a wire whose peer may be the one that died.
func (t *Transport) PropagatePoison(err error) {
	go t.sendPoison(err)
}

func (t *Transport) sendPoison(err error) {
	t.poisonMu.Lock()
	defer t.poisonMu.Unlock()
	if t.poisonSent {
		return
	}
	t.poisonSent = true
	fr := frame{kind: framePoison, err: err}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.out.SetWriteDeadline(time.Now().Add(poisonWriteBudget))
		p.w.write(p.out, &fr) // best effort: the peer may already be gone
		p.mu.Unlock()
	}
}

// Close tears down every connection. Idempotent; called by Fabric.Close
// after the fabric is poisoned, so peers are told (poison frame) before
// their reader sees the close — a graceful shutdown surfaces remotely as
// the recorded error, not as a raw connection reset.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.f != nil {
		err := t.f.Err()
		if err == nil {
			err = comm.ErrFabricClosed
		}
		t.sendPoison(err)
	}
	t.closeConns()
	return nil
}

// Abort hard-closes every connection with no poison frame — a chaos hook
// simulating a killed process: peers see only the wire drop (read error /
// EOF) and must unwind through their own failure mapping. Marking the
// poison as already sent is what keeps the death silent: closing the conns
// wakes this endpoint's own readLoops, whose failure mapping poisons the
// local fabric (the abortee's own ranks unwind typed) and would otherwise
// race a misattributed poison frame onto any not-yet-closed peer conn.
func (t *Transport) Abort() {
	t.poisonMu.Lock()
	t.poisonSent = true
	t.poisonMu.Unlock()
	t.closeConns()
}

func (t *Transport) closeConns() {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.out.Close()
		p.in.Close()
	}
}

// readLoop drains one peer's inbound connection, dispatching frames into
// the local rank channels until the connection dies, a frame fails
// validation (both fail the link typed), or the fabric is poisoned.
func (t *Transport) readLoop(proc int, c net.Conn) {
	rd := frameReader{
		r:     bufio.NewReaderSize(c, 1<<16),
		local: [2]int{t.bounds[t.cfg.Proc], t.bounds[t.cfg.Proc+1]},
		peer:  [2]int{t.bounds[proc], t.bounds[proc+1]},
		take:  t.take,
	}
	for {
		fr, err := rd.next()
		if err != nil {
			t.readFailure(proc, err)
			return
		}
		if !t.dispatch(&fr) {
			return
		}
	}
}

// take gives a received payload its destination: a collective chunk goes
// into a buffer from the fabric's pool, which the folding collective
// returns it to; a data message owns its slice.
func (t *Transport) take(kind byte, n int) []float32 {
	if kind == frameColl || n == 0 {
		return t.f.WireBuf(n)
	}
	return make([]float32, n)
}

func (t *Transport) readFailure(proc int, err error) {
	if t.closed.Load() || t.f.Err() != nil {
		return // teardown or already-poisoned fabric: not a new failure
	}
	t.wireFailure(proc, err)
}

// dispatch injects one frame into its destination rank's channel,
// reporting false when the reader should stop (fabric poisoned).
func (t *Transport) dispatch(fr *frame) bool {
	switch fr.kind {
	case frameData:
		select {
		case t.data[fr.to] <- fr.msg:
			return true
		case <-t.f.Done():
			return false
		}
	case frameColl:
		select {
		case t.coll[fr.to] <- fr.coll:
			return true
		case <-t.f.Done():
			return false
		}
	default: // framePoison
		t.f.Poison(fr.err)
		return false
	}
}

// --- Frames -----------------------------------------------------------------
//
// Layout (little-endian), after the u32 length prefix, which counts every
// byte from the kind on:
//
//	data:   kind u8 | to i32 | from i32 | tag i32 | mb i32 | seq i32 |
//	        nshape u32 | shape i32... | n u32 | f32...
//	coll:   kind u8 | to i32 | from i32 | tag i32 | n u32 | f32...
//	poison: kind u8 | code u8 | rank i32 | step i32 | timeout i64 |
//	        msglen u32 | msg bytes
//
// Everything before the f32s is the frame's fixed header; a poison frame is
// all header.

// frame is one decoded wire frame: its kind, destination rank and the
// payload of its kind.
type frame struct {
	kind byte
	to   int
	msg  comm.Message   // frameData
	coll comm.CollFrame // frameColl
	err  error          // framePoison
}

// frameWriter writes frames to one connection: the header from a reused
// scratch and the payload from the caller's own memory, in one vectored
// write. It borrows the payload only until write returns.
type frameWriter struct {
	hdr  []byte
	vec  [2][]byte
	bufs net.Buffers
}

func (w *frameWriter) write(c io.Writer, fr *frame) error {
	b := append(w.hdr[:0], 0, 0, 0, 0, fr.kind) // length prefix filled below
	var payload []float32
	switch fr.kind {
	case frameData:
		m := &fr.msg
		b = appendInt32s(b, fr.to, m.From, int(m.Tag), m.MB, m.Seq, len(m.Shape))
		b = appendInt32s(b, m.Shape...)
		b = appendInt32s(b, len(m.Data))
		payload = m.Data
	case frameColl:
		b = appendInt32s(b, fr.to, fr.coll.From, fr.coll.Tag, len(fr.coll.Data))
		payload = fr.coll.Data
	case framePoison:
		b = appendPoison(b, fr.err)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4+4*len(payload)))
	w.hdr = b
	p := floatBytes(payload)
	swapOrder(p)
	w.vec = [2][]byte{b, p}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(c)
	swapOrder(p)
	w.vec = [2][]byte{} // a failed write leaves the payload here: do not pin it
	return err
}

func appendInt32s(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
	}
	return b
}

// errBadFrame marks a frame whose fixed header failed a check: the reader
// took no buffer for it, and the link it came on fails.
var errBadFrame = errors.New("tcp: malformed frame header")

// frameReader reads frames off one peer's inbound connection. It takes a
// payload buffer only once the frame's whole fixed header has arrived and
// passed every check — known kind, destination a local rank, source inside
// the peer's rank block, length prefix equal to header plus payload exactly,
// payload within maxFrameBytes — so a corrupt or hostile length prefix
// costs nothing.
type frameReader struct {
	r     io.Reader
	local [2]int // this process's rank block [lo, hi)
	peer  [2]int // the rank block of the process at the other end
	// take returns the destination of an n-element payload of a frame kind.
	take func(kind byte, n int) []float32
	hdr  [26 + maxPoisonMsg]byte // the longest fixed header: a poison frame's
}

func (r *frameReader) next() (frame, error) {
	h := r.hdr[:]
	le := binary.LittleEndian
	i32 := func(off int) int { return int(int32(le.Uint32(h[off:]))) }
	if _, err := io.ReadFull(r.r, h[:5]); err != nil {
		return frame{}, err
	}
	size, fr := le.Uint32(h), frame{kind: h[4]}
	have, hdrEnd := 5, 21 // header bytes read, and a collective's whole header
	switch fr.kind {
	case frameColl:
	case frameData:
		if _, err := io.ReadFull(r.r, h[5:29]); err != nil {
			return fr, err
		}
		nshape := le.Uint32(h[25:])
		if nshape > maxShapeDims {
			return fr, fmt.Errorf("%w: %d shape dims", errBadFrame, nshape)
		}
		have, hdrEnd = 29, 29+4*int(nshape)+4
	case framePoison:
		if _, err := io.ReadFull(r.r, h[5:26]); err != nil {
			return fr, err
		}
		msglen := le.Uint32(h[22:])
		if msglen > maxPoisonMsg || uint64(size) != 22+uint64(msglen) {
			return fr, fmt.Errorf("%w: poison length %d with a %d-byte message", errBadFrame, size, msglen)
		}
		if _, err := io.ReadFull(r.r, h[26:26+msglen]); err != nil {
			return fr, err
		}
		fr.err = decodePoison(h[4 : 26+msglen])
		return fr, nil
	default:
		return fr, fmt.Errorf("%w: kind %d", errBadFrame, fr.kind)
	}
	if _, err := io.ReadFull(r.r, h[have:hdrEnd]); err != nil {
		return fr, err
	}
	fr.to = i32(5)
	from, tag, n := i32(9), i32(13), le.Uint32(h[hdrEnd-4:])
	switch {
	case n > maxFrameBytes/4:
		return fr, fmt.Errorf("%w: %d-element payload", errBadFrame, n)
	case uint64(size) != uint64(hdrEnd-4)+4*uint64(n):
		return fr, fmt.Errorf("%w: length %d for a %d-byte header and %d elements", errBadFrame, size, hdrEnd-4, n)
	case fr.to < r.local[0] || fr.to >= r.local[1]:
		return fr, fmt.Errorf("%w: rank %d is not local", errBadFrame, fr.to)
	case from < r.peer[0] || from >= r.peer[1]:
		return fr, fmt.Errorf("%w: rank %d is not the peer's", errBadFrame, from)
	}
	if fr.kind == frameColl {
		fr.coll = comm.CollFrame{From: from, Tag: tag, Data: r.take(frameColl, int(n))}
		return fr, r.readFloats(fr.coll.Data)
	}
	fr.msg = comm.Message{From: from, Tag: comm.Tag(tag), MB: i32(17), Seq: i32(21), Data: r.take(frameData, int(n))}
	if nshape := (hdrEnd - 33) / 4; nshape > 0 {
		fr.msg.Shape = make([]int, nshape)
		for i := range fr.msg.Shape {
			fr.msg.Shape[i] = i32(29 + 4*i)
		}
	}
	return fr, r.readFloats(fr.msg.Data)
}

func (r *frameReader) readFloats(dst []float32) error {
	b := floatBytes(dst)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return err
	}
	swapOrder(b)
	return nil
}

// littleEndian reports whether this host stores a float32 in the wire's
// byte order, so a payload travels as its own bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views a float32 payload as its bytes, in place.
func floatBytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// swapOrder converts a payload between host and wire byte order in place:
// nothing on a little-endian host; on a big-endian one it reverses every
// 4-byte word, around a write and after a read.
func swapOrder(b []byte) {
	if littleEndian {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// Poison frame error codes.
const (
	poisonOther      = byte(0)
	poisonRankFailed = byte(1)
	poisonDeadline   = byte(2)
	poisonClosed     = byte(3)
)

// errMalformedPoison is what a poison frame outside its canonical encoding
// decodes to: the peer still declared the fabric dead, but said nothing
// this process can trust about why.
var errMalformedPoison = errors.New("tcp: malformed poison frame")

// peerError is an untyped failure carried by a peer's poison frame. It
// re-encodes with its message unchanged, so a poison relayed from process
// to process keeps one "tcp: " prefix.
type peerError string

func (e peerError) Error() string { return "tcp: " + string(e) }

// appendPoison appends a poison frame's body after its kind byte: it
// serializes a typed fabric error so the receiving process reconstructs the
// same type — errors.As on RankFailedError/DeadlineError works across the
// wire, which is what lets a remote engine's restart loop classify a peer
// crash as recoverable. A message longer than maxPoisonMsg is cut there.
func appendPoison(b []byte, err error) []byte {
	code, rank, step := poisonOther, 0, 0
	var timeout time.Duration
	var rf *comm.RankFailedError
	var de *comm.DeadlineError
	switch {
	case errors.As(err, &rf):
		code, rank, step = poisonRankFailed, rf.Rank, rf.Step
	case errors.As(err, &de):
		code, rank, step, timeout = poisonDeadline, de.Rank, de.Step, de.Timeout
	case errors.Is(err, comm.ErrFabricClosed):
		code = poisonClosed
	}
	msg := ""
	if pe, ok := err.(peerError); ok {
		msg = string(pe)
	} else if code == poisonOther && err != nil {
		msg = err.Error()
	}
	msg = msg[:min(len(msg), maxPoisonMsg)]
	le := binary.LittleEndian
	b = append(b, code)
	b = appendInt32s(b, rank, step)
	b = le.AppendUint64(b, uint64(timeout))
	b = le.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

// decodePoison reconstructs the error a poison frame's body (kind byte
// first, length already checked by the reader) carries. Only a frame in the
// one encoding appendPoison gives its error decodes: a known code, and zero
// in every field the code does not carry. Any other poison frame yields
// errMalformedPoison.
func decodePoison(buf []byte) error {
	code := buf[1]
	rank := int(int32(binary.LittleEndian.Uint32(buf[2:])))
	step := int(int32(binary.LittleEndian.Uint32(buf[6:])))
	timeout := time.Duration(binary.LittleEndian.Uint64(buf[10:]))
	msg := string(buf[22:])
	bare := rank == 0 && step == 0 && timeout == 0
	switch {
	case code == poisonRankFailed && timeout == 0 && msg == "":
		return &comm.RankFailedError{Rank: rank, Step: step}
	case code == poisonDeadline && msg == "":
		return &comm.DeadlineError{Rank: rank, Step: step, Timeout: timeout}
	case code == poisonClosed && bare && msg == "":
		return comm.ErrFabricClosed
	case code == poisonOther && bare && msg != "":
		return peerError(msg)
	}
	return errMalformedPoison
}

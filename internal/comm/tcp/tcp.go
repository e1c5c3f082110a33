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
// float32 payload (bit-preserving via math.Float32bits — collectives are
// bitwise-identical to the in-process transport). Wire byte buffers come
// from a power-of-two capacity-class pool mirroring the fabric's float
// pool, so steady-state sends and receives are allocation-free.
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
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
)

const (
	handshakeMagic    = 0x53414d4f // "SAMO"
	wireVersion       = 1
	frameData         = byte(0)
	frameColl         = byte(1)
	framePoison       = byte(2)
	maxFrameBytes     = 1 << 28 // defensive bound on a length prefix
	chanDepth         = 4096    // matches LocalTransport's eager buffering
	maxPoolBytes      = 8 << 20 // retained-capacity bound of the wire byte pool
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
// by us (writes serialized by mu), in is accepted from the peer (owned by
// its reader goroutine).
type peerConn struct {
	mu  sync.Mutex
	out net.Conn
	in  net.Conn
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
	bytes      comm.Pool[byte]
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
		bytes:  comm.Pool[byte]{Max: maxPoolBytes},
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

func writeHandshake(c net.Conn, proc int) error {
	var b [9]byte
	binary.LittleEndian.PutUint32(b[0:4], handshakeMagic)
	b[4] = wireVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(proc))
	_, err := c.Write(b[:])
	return err
}

func readHandshake(c net.Conn) (int, error) {
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
// as the fabric's ring chunks, so rank->process mapping is deterministic).
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
// destination, an encoded frame for a remote one.
func (t *Transport) SendData(to int, m comm.Message) error {
	if t.IsLocal(to) {
		select {
		case t.data[to] <- m:
			return nil
		case <-t.f.Done():
			return t.f.Err()
		}
	}
	buf := encodeData(&t.bytes, to, m)
	err := t.writePeer(t.procOf(to), buf)
	t.bytes.Put(buf)
	return err
}

// SendColl delivers a collective frame. Remote sends serialize the payload
// and return fr.Data to the fabric's float pool — the wire analogue of the
// local receiver's fold-and-put, keeping steady-state collectives
// allocation-free on both sides.
func (t *Transport) SendColl(to int, fr comm.CollFrame) error {
	if t.IsLocal(to) {
		select {
		case t.coll[to] <- fr:
			return nil
		case <-t.f.Done():
			return t.f.Err()
		}
	}
	buf := encodeColl(&t.bytes, to, fr)
	err := t.writePeer(t.procOf(to), buf)
	t.bytes.Put(buf)
	t.f.RecycleWireBuf(fr.Data)
	return err
}

func (t *Transport) writePeer(proc int, buf []byte) error {
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
	_, err := p.out.Write(buf)
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
	buf := encodePoison(&t.bytes, err)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.out.SetWriteDeadline(time.Now().Add(poisonWriteBudget))
		p.out.Write(buf) // best effort: the peer may already be gone
		p.mu.Unlock()
	}
	t.bytes.Put(buf)
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
// the local rank channels until the connection dies or the fabric is
// poisoned.
func (t *Transport) readLoop(proc int, c net.Conn) {
	br := bufio.NewReaderSize(c, 1<<16)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.readFailure(proc, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrameBytes {
			t.readFailure(proc, fmt.Errorf("frame length %d out of range", n))
			return
		}
		buf := t.bytes.Get(int(n))
		if _, err := io.ReadFull(br, buf); err != nil {
			t.bytes.Put(buf)
			t.readFailure(proc, err)
			return
		}
		ok := t.dispatch(buf)
		t.bytes.Put(buf)
		if !ok {
			return
		}
	}
}

func (t *Transport) readFailure(proc int, err error) {
	if t.closed.Load() || t.f.Err() != nil {
		return // teardown or already-poisoned fabric: not a new failure
	}
	t.wireFailure(proc, err)
}

// dispatch decodes one frame and injects it into the destination rank's
// channel, reporting false when the reader should stop (fabric poisoned).
func (t *Transport) dispatch(buf []byte) bool {
	switch buf[0] {
	case frameData:
		to, m, err := decodeData(buf)
		if err != nil || !t.IsLocal(to) {
			return true // malformed or misrouted: drop, the deadline detector is the remedy
		}
		select {
		case t.data[to] <- m:
			return true
		case <-t.f.Done():
			return false
		}
	case frameColl:
		to, fr, err := decodeColl(buf, t.f)
		if err != nil || !t.IsLocal(to) {
			return true
		}
		select {
		case t.coll[to] <- fr:
			return true
		case <-t.f.Done():
			return false
		}
	case framePoison:
		t.f.Poison(decodePoison(buf))
		return false
	default:
		return true
	}
}

// --- Frame encoding ---------------------------------------------------------
//
// Layout (little-endian), after the u32 payload-length prefix:
//
//	data:   kind u8 | to i32 | from i32 | tag i32 | mb i32 | seq i32 |
//	        nshape u32 | shape i32... | n u32 | f32...
//	coll:   kind u8 | to i32 | from i32 | tag i32 | n u32 | f32...
//	poison: kind u8 | code u8 | rank i32 | step i32 | timeout i64 |
//	        msglen u32 | msg bytes

func encodeData(p *comm.Pool[byte], to int, m comm.Message) []byte {
	n := 4 + 1 + 5*4 + 4 + 4*len(m.Shape) + 4 + 4*len(m.Data)
	buf := p.Get(n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n-4))
	buf[4] = frameData
	off := 5
	for _, v := range []int{to, m.From, int(m.Tag), m.MB, m.Seq} {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(v)))
		off += 4
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(m.Shape)))
	off += 4
	for _, s := range m.Shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(s)))
		off += 4
	}
	off += putFloats(buf[off:], m.Data)
	return buf[:off]
}

func decodeData(buf []byte) (int, comm.Message, error) {
	var m comm.Message
	if len(buf) < 1+5*4+4 {
		return 0, m, errors.New("tcp: short data frame")
	}
	off := 1
	geti := func() int {
		v := int(int32(binary.LittleEndian.Uint32(buf[off:])))
		off += 4
		return v
	}
	to := geti()
	m.From = geti()
	m.Tag = comm.Tag(geti())
	m.MB = geti()
	m.Seq = geti()
	nshape := geti()
	if nshape < 0 || len(buf) < off+4*nshape+4 {
		return 0, m, errors.New("tcp: bad data frame shape")
	}
	if nshape > 0 {
		m.Shape = make([]int, nshape)
		for i := range m.Shape {
			m.Shape[i] = geti()
		}
	}
	nd := geti()
	if nd < 0 || len(buf) != off+4*nd {
		return 0, m, errors.New("tcp: bad data frame payload")
	}
	if nd > 0 {
		m.Data = make([]float32, nd)
		getFloats(buf[off:], m.Data)
	}
	return to, m, nil
}

func encodeColl(p *comm.Pool[byte], to int, fr comm.CollFrame) []byte {
	n := 4 + 1 + 3*4 + 4 + 4*len(fr.Data)
	buf := p.Get(n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n-4))
	buf[4] = frameColl
	off := 5
	for _, v := range []int{to, fr.From, fr.Tag} {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(v)))
		off += 4
	}
	off += putFloats(buf[off:], fr.Data)
	return buf[:off]
}

// decodeColl decodes a collective frame, pulling the payload buffer from
// the fabric's float pool — the receiving collective returns it there, so
// the wire receive path recycles like the local zero-copy handoff.
func decodeColl(buf []byte, f *comm.Fabric) (int, comm.CollFrame, error) {
	var fr comm.CollFrame
	if len(buf) < 1+3*4+4 {
		return 0, fr, errors.New("tcp: short coll frame")
	}
	off := 1
	geti := func() int {
		v := int(int32(binary.LittleEndian.Uint32(buf[off:])))
		off += 4
		return v
	}
	to := geti()
	fr.From = geti()
	fr.Tag = geti()
	nd := geti()
	if nd < 0 || len(buf) != off+4*nd {
		return 0, fr, errors.New("tcp: bad coll frame payload")
	}
	fr.Data = f.WireBuf(nd)
	getFloats(buf[off:], fr.Data)
	return to, fr, nil
}

// Poison frame error codes.
const (
	poisonOther      = byte(0)
	poisonRankFailed = byte(1)
	poisonDeadline   = byte(2)
	poisonClosed     = byte(3)
)

// encodePoison serializes a typed fabric error so the receiving process
// reconstructs the same type — errors.As on RankFailedError/DeadlineError
// works across the wire, which is what lets a remote engine's restart
// loop classify a peer crash as recoverable.
func encodePoison(p *comm.Pool[byte], err error) []byte {
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
	if code == poisonOther && err != nil {
		msg = err.Error()
	}
	n := 4 + 1 + 1 + 4 + 4 + 8 + 4 + len(msg)
	buf := p.Get(n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n-4))
	buf[4] = framePoison
	buf[5] = code
	binary.LittleEndian.PutUint32(buf[6:], uint32(int32(rank)))
	binary.LittleEndian.PutUint32(buf[10:], uint32(int32(step)))
	binary.LittleEndian.PutUint64(buf[14:], uint64(timeout))
	binary.LittleEndian.PutUint32(buf[22:], uint32(len(msg)))
	copy(buf[26:], msg)
	return buf[:n]
}

func decodePoison(buf []byte) error {
	if len(buf) < 22 {
		return errors.New("tcp: short poison frame")
	}
	code := buf[1]
	rank := int(int32(binary.LittleEndian.Uint32(buf[2:])))
	step := int(int32(binary.LittleEndian.Uint32(buf[6:])))
	timeout := time.Duration(binary.LittleEndian.Uint64(buf[10:]))
	switch code {
	case poisonRankFailed:
		return &comm.RankFailedError{Rank: rank, Step: step}
	case poisonDeadline:
		return &comm.DeadlineError{Rank: rank, Step: step, Timeout: timeout}
	case poisonClosed:
		return comm.ErrFabricClosed
	default:
		msgLen := int(binary.LittleEndian.Uint32(buf[18:]))
		msg := "remote fabric poisoned"
		if msgLen > 0 && len(buf) >= 22+msgLen {
			msg = string(buf[22 : 22+msgLen])
		}
		return fmt.Errorf("tcp: %s", msg)
	}
}

func putFloats(dst []byte, src []float32) int {
	binary.LittleEndian.PutUint32(dst, uint32(len(src)))
	off := 4
	for _, v := range src {
		binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
		off += 4
	}
	return off
}

func getFloats(src []byte, dst []float32) {
	off := 0
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[off:]))
		off += 4
	}
}

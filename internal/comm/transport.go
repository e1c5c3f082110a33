package comm

// Transport abstraction. A Fabric is the failure-domain and collective-
// algorithm layer; the Transport underneath it is the wire: it owns the
// receive queues of the ranks that live in THIS process and knows how to
// move framed messages to every rank, local or remote.
//
// Two implementations exist:
//
//   - LocalTransport (here): the original in-process channel mesh. Every
//     rank is local and delivery is a channel send: a data message's
//     payload migrates sender→receiver zero-copy, a collective chunk as a
//     copy in a buffer from the fabric's pool.
//   - tcp.Transport (internal/comm/tcp): length-prefixed frames over TCP
//     sockets, one endpoint per process, for multi-process training. A
//     frame goes out as one vectored write from the sender's own memory
//     and comes in straight into its destination buffer, so steady-state
//     collectives are allocation-free; connection errors map onto the
//     poison path (RankFailedError) and socket write timeouts onto the
//     DeadlineError backstop.
//
// The all-reduce runs ABOVE the transport and is therefore identical on
// both — the conformance suite pins its results bitwise-equal across
// transports, and to the serial rank-ordered sum, at every group size.

// CollFrame is one collective-plane message: a tagged chunk moving between
// two ranks inside a collective. Data is 32-bit words moved bit for bit:
// float32 values, or AllReduceHalf's binary16 values two to a word. A
// received frame's Data comes from the fabric's capacity-class pool
// (Fabric.WireBuf); the receiving collective folds the payload in and
// returns the buffer to the pool.
type CollFrame struct {
	From int
	Tag  int
	Data []float32
}

// Transport moves framed messages between the ranks of one fabric. A
// transport is bound to exactly one Fabric via Attach (called by
// NewFabricOver before any traffic flows); implementations use the
// fabric's Done channel to unwind blocking deliveries when the fabric is
// poisoned, and its Poison method to report wire failures as typed errors.
type Transport interface {
	// Size is the total rank count of the fabric.
	Size() int
	// IsLocal reports whether rank r's receive queues live in this process.
	IsLocal(r int) bool
	// Attach binds the transport to its fabric and starts any receive
	// machinery (reader goroutines for wire transports). Called exactly
	// once, by NewFabricOver.
	Attach(f *Fabric)
	// DataCh returns local rank r's data-plane receive channel.
	DataCh(r int) <-chan Message
	// CollCh returns local rank r's collective-plane receive channel.
	CollCh(r int) <-chan CollFrame
	// SendData delivers a data-plane message to rank to (local or remote).
	// Blocking deliveries must unwind with the fabric's poison error when
	// the fabric dies.
	SendData(to int, m Message) error
	// SendColl delivers a collective frame to rank to. It borrows fr.Data
	// only until it returns, so the caller may overwrite the chunk straight
	// after: a transport that hands the payload to a goroutine of this
	// process copies it into Fabric.WireBuf first, and a wire transport
	// writes it to the socket from fr.Data itself.
	SendColl(to int, fr CollFrame) error
	// PropagatePoison tells remote peers the fabric died (best effort,
	// must not block the caller indefinitely). Local transports no-op:
	// every rank shares the poison channel already.
	PropagatePoison(err error)
	// Close tears down connections and listeners. Idempotent; called by
	// Fabric.Close after the fabric is poisoned.
	Close() error
}

// LocalTransport is the in-process channel mesh: the default transport,
// and the reference semantics every wire transport must match. Buffered
// channels model NCCL's eager protocol (sends are asynchronous until the
// buffer fills); data payloads are handed sender→receiver zero-copy.
type LocalTransport struct {
	f    *Fabric
	data []chan Message
	coll []chan CollFrame
}

// NewLocalTransport returns an in-process transport connecting n ranks.
func NewLocalTransport(n int) *LocalTransport {
	t := &LocalTransport{
		data: make([]chan Message, n),
		coll: make([]chan CollFrame, n),
	}
	for i := range t.data {
		t.data[i] = make(chan Message, 4096)
		t.coll[i] = make(chan CollFrame, 4096)
	}
	return t
}

// Size returns the rank count.
func (t *LocalTransport) Size() int { return len(t.data) }

// IsLocal is true for every rank: the mesh lives in one process.
func (t *LocalTransport) IsLocal(int) bool { return true }

// Attach binds the transport to its fabric.
func (t *LocalTransport) Attach(f *Fabric) { t.f = f }

// DataCh returns rank r's data-plane receive channel.
func (t *LocalTransport) DataCh(r int) <-chan Message { return t.data[r] }

// CollCh returns rank r's collective-plane receive channel.
func (t *LocalTransport) CollCh(r int) <-chan CollFrame { return t.coll[r] }

// SendData delivers m to rank to, unwinding with the poison error if the
// fabric dies while the channel is full.
func (t *LocalTransport) SendData(to int, m Message) error {
	select {
	case t.data[to] <- m:
		return nil
	case <-t.f.Done():
		return t.f.Err()
	}
}

// SendColl delivers a pooled copy of fr's payload to rank to.
func (t *LocalTransport) SendColl(to int, fr CollFrame) error {
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

// PropagatePoison is a no-op: every local rank already shares the
// fabric's poison channel.
func (t *LocalTransport) PropagatePoison(error) {}

// Close is a no-op: channels die with the fabric.
func (t *LocalTransport) Close() error { return nil }

// --- Fabric-side transport hooks -------------------------------------------
//
// Exported surface a wire transport (a different package) needs to
// interoperate with the fabric's poison model and buffer pool.

// Done returns the channel closed when the fabric is poisoned. Transports
// select on it so blocking deliveries unwind promptly on failure.
func (f *Fabric) Done() <-chan struct{} { return f.poisonCh }

// WireBuf returns a pooled float32 buffer of length n from the fabric's
// capacity-class pool: the destination of every collective chunk a rank of
// this process receives — a local sender's copy, or a wire transport's read
// straight off the socket. The receiving collective returns it to the same
// pool, so steady-state receives recycle rather than allocate.
func (f *Fabric) WireBuf(n int) []float32 { return f.bufs.Get(n) }

// Deadline returns the configured blocking-receive deadline (0 = off).
// Wire transports mirror it onto socket write deadlines so a peer that
// stops draining its socket surfaces as a DeadlineError, not a stuck send.
func (f *Fabric) Deadline() int64 { return f.deadlineNs.Load() }

// IsLocal reports whether rank r lives in this process.
func (f *Fabric) IsLocal(r int) bool { return f.tr.IsLocal(r) }

// RemotePeers reports whether this rank's fabric spans processes.
func (rk *Rank) RemotePeers() bool { return rk.f.remote }

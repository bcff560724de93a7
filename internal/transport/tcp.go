package transport

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wire"
)

// Timing knobs of the TCP transport. Vars, not consts, so fault-injection
// tests can tighten them; production code leaves them alone.
var (
	// handshakeTimeout bounds the Hello exchange on a fresh connection.
	handshakeTimeout = 5 * time.Second
	// writeTimeout bounds each batched write; a peer that cannot accept a
	// batch for this long is treated as disconnected.
	writeTimeout = 10 * time.Second
	// redialBase and redialCap bound the exponential reconnect backoff;
	// each wait is jittered ±50% so peers dialing a restarted node do not
	// thundering-herd it.
	redialBase = 10 * time.Millisecond
	redialCap  = time.Second
	// closeGrace is how long Close keeps redialing on behalf of a stream
	// that still has undelivered frames before giving up on the flush.
	closeGrace = 2 * time.Second
)

// ackEvery is the duplicate-suppression ack cadence: the receiver
// acknowledges every ackEvery-th sequenced frame, bounding the sender's
// resend buffer without an ack per frame.
const ackEvery = 32

// TCP is the socket Transport. Each directed node pair uses its own
// connection: the dialer writes sequenced frames, the acceptor writes
// back only handshake and ack frames. Connections are dialed on demand,
// survive drops by reconnecting with exponential backoff and replaying
// the unacked tail, and deliver exactly once — the receiver tracks the
// last sequence number delivered per sending node (across connections)
// and discards replays.
//
// Routes come from AddRoute or are learned: a dialer's Hello carries its
// listen port, and the acceptor routes replies to the connection's
// remote host at that port. So a node can answer whoever dialed it — a
// restarted cluster member its driver, a pool worker its frontend —
// without being told where they live. A route is learned only for a
// node that has none, so it never overrides one set with AddRoute.
type TCP struct {
	self string
	boot uint64 // this instance's incarnation; stream n sends boot+n in its handshake
	ln   net.Listener

	mu       sync.Mutex
	handler  Handler
	routes   map[string]string
	outs     map[string]*outbound
	conns    map[net.Conn]struct{} // inbound connections
	recv     map[string]*recvState
	offsets  map[string]*clockFilter // per-node clock offset sample reservoirs
	closed   bool
	closedAt time.Time
	streams  uint64 // outbound streams opened
	stats    Stats

	wg sync.WaitGroup // acceptor + inbound readers
}

// recvState is the per-sending-node duplicate filter. Its mutex also
// serializes delivery for that sender, so an old connection draining its
// last frames cannot interleave with a replacement connection. The state
// is scoped to one remote incarnation (boot): a restarted process with
// the same node name, or a stream reopened after a Release, starts a
// fresh sequence space, and a connection of the incarnation it replaced
// delivers nothing more.
type recvState struct {
	mu      sync.Mutex
	boot    uint64 // incarnation the filter state belongs to
	lastSeq uint64
	since   int // sequenced frames since the last ack
}

// outbound is one directed stream to a remote node: a queue of encoded,
// sequence-numbered frames, of which the prefix up to sendIdx has been
// transmitted on the current connection but not yet acknowledged.
type outbound struct {
	t    *TCP
	node string
	boot uint64 // the stream's incarnation: a Released node's next stream starts afresh

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []outFrame // unacked frames, ascending seq
	sendIdx int        // buf[:sendIdx] transmitted on the current conn
	nextSeq uint64
	conn    net.Conn // nil while disconnected
	closed  bool
	done    chan struct{}
}

type outFrame struct {
	seq uint64
	enc []byte // the whole snapshot frame: length prefix, body, CRC
}

// ListenTCP creates a TCP transport for node self, listening on addr
// (use ":0" for an ephemeral port; Addr reports the bound address).
func ListenTCP(self, addr string) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var boot [8]byte
	if _, err := crand.Read(boot[:]); err != nil {
		ln.Close()
		return nil, err
	}
	return &TCP{
		self:    self,
		boot:    binary.LittleEndian.Uint64(boot[:]),
		ln:      ln,
		routes:  make(map[string]string),
		outs:    make(map[string]*outbound),
		conns:   make(map[net.Conn]struct{}),
		recv:    make(map[string]*recvState),
		offsets: make(map[string]*clockFilter),
	}, nil
}

// Self returns the node name.
func (t *TCP) Self() string { return t.self }

// Addr returns the listener's bound address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// port is the listener's bound port, announced in every dialed Hello.
func (t *TCP) port() uint32 { return uint32(t.ln.Addr().(*net.TCPAddr).Port) }

// AddRoute maps a node name to its host:port.
func (t *TCP) AddRoute(node, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[node] = addr
}

// learnRoute routes replies to node, if it has no route yet, at the
// remote host of its inbound connection and the listen port its Hello
// announced.
func (t *TCP) learnRoute(node string, remote net.Addr, port uint32) {
	ta, ok := remote.(*net.TCPAddr)
	if !ok || port == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, set := t.routes[node]; !set {
		t.routes[node] = net.JoinHostPort(ta.IP.String(), strconv.Itoa(int(port)))
	}
}

// clockEstimate is one node's wall-clock offset estimate (remote −
// local, µs) together with its worst-case error: RTT/2 for a dialer's
// round-trip-symmetrized sample, a handshake-timeout sentinel for an
// acceptor's one-way sample.
type clockEstimate struct {
	off int64
	unc int64
}

// oneWayUncertainty bounds the error of an acceptor-side sample: the
// remote stamped its clock before a network hop of unknown length, so
// nothing tighter than the handshake timeout can be promised. Any
// round-trip-bounded estimate beats it.
var oneWayUncertainty = int64(handshakeTimeout / time.Microsecond)

// ClockOffsetMicros returns the wall-clock offset of node relative to this
// one (remote − local, µs), from the lowest-effective-uncertainty Hello
// sample in the node's reservoir; 0 before any handshake.
func (t *TCP) ClockOffsetMicros(node string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.offsets[node]
	if f == nil {
		return 0
	}
	off, _, _ := f.estimate(time.Now().UnixMicro())
	return off
}

// noteClock records an acceptor-side sample: the peer's handshake
// wall-clock reading against our clock at receipt. The estimate is
// biased by the one-way handshake latency, so it carries the sentinel
// uncertainty and yields to any round-trip-timed estimate.
func (t *TCP) noteClock(node string, wallMicros uint64) {
	if wallMicros == 0 {
		return // pre-v4 peer or zeroed clock: no estimate
	}
	off := int64(wallMicros) - time.Now().UnixMicro()
	t.noteEstimate(node, clockEstimate{off: off, unc: oneWayUncertainty})
}

// noteClockRTT records a dialer-side sample with full round-trip
// timing, the NTP midpoint estimate: the peer read its clock somewhere
// between our send (t0) and our receive (t3), so remote − local is
// wallMicros minus the interval's midpoint, with worst-case error
// RTT/2 whatever the latency asymmetry. This removes the systematic
// one-way bias the acceptor-side sample carries.
func (t *TCP) noteClockRTT(node string, wallMicros uint64, t0, t3 int64) {
	if wallMicros == 0 || t3 < t0 {
		return
	}
	rtt := t3 - t0
	off := int64(wallMicros) - (t0 + rtt/2)
	t.noteEstimate(node, clockEstimate{off: off, unc: rtt/2 + 1})
}

// noteEstimate folds one sample into the node's reservoir. The filter
// answers with the minimum-effective-uncertainty sample, so the estimate
// tightens monotonically across reconnects instead of resetting, and a
// stale tight sample yields only once drift outgrows its original bound.
func (t *TCP) noteEstimate(node string, e clockEstimate) {
	t.mu.Lock()
	f := t.offsets[node]
	if f == nil {
		f = &clockFilter{}
		t.offsets[node] = f
	}
	f.add(clockSample{off: e.off, unc: e.unc, at: time.Now().UnixMicro()})
	t.mu.Unlock()
}

// Start begins accepting connections and delivering frames to h.
func (t *TCP) Start(h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handler != nil {
		return fmt.Errorf("transport: TCP %q started twice", t.self)
	}
	t.handler = h
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

// Send enqueues f on the stream to node. The frame survives connection
// drops: it stays buffered until the receiving node acknowledges it.
func (t *TCP) Send(node string, f wire.Frame) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if _, ok := t.routes[node]; !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRoute, node)
	}
	o, ok := t.outs[node]
	if !ok {
		o = &outbound{t: t, node: node, boot: t.boot + t.streams, nextSeq: 1, done: make(chan struct{})}
		t.streams++
		o.cond = sync.NewCond(&o.mu)
		t.outs[node] = o
		go o.run()
	}
	t.mu.Unlock()

	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	seq := o.nextSeq
	o.nextSeq++
	body := wire.AppendFrame(nil, seq, f)
	if len(body) > snapshot.MaxFrame {
		o.mu.Unlock()
		return fmt.Errorf("transport: frame of %d bytes exceeds snapshot.MaxFrame", len(body))
	}
	enc := snapshot.AppendFrame(make([]byte, 0, snapshot.FrameSize(len(body))), body)
	o.buf = append(o.buf, outFrame{seq: seq, enc: enc})
	o.cond.Broadcast()
	o.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the transport's counters.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// DropConns closes every live connection (inbound and outbound) without
// closing the transport — the fault-injection hook. Outbound streams
// reconnect and replay their unacked tails; the per-sender sequence
// filter on the receiving side discards any replayed frame that had
// already been delivered.
func (t *TCP) DropConns() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	outs := make([]*outbound, 0, len(t.outs))
	for _, o := range t.outs {
		outs = append(outs, o)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, o := range outs {
		o.dropConn(nil)
	}
}

// Release closes the stream to node without flushing it. Its writer
// stops redialing, and a later Send opens a stream under a new
// incarnation, which the receiver's duplicate filter starts afresh.
func (t *TCP) Release(node string) {
	t.mu.Lock()
	o := t.outs[node]
	delete(t.outs, node)
	t.mu.Unlock()
	if o == nil {
		return
	}
	o.mu.Lock()
	o.buf, o.sendIdx, o.closed = nil, 0, true
	o.cond.Broadcast()
	o.mu.Unlock()
	o.dropConn(nil)
}

// Close shuts the transport down. Streams that are connected flush their
// queued frames best-effort; disconnected streams give up immediately.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.closedAt = time.Now()
	outs := make([]*outbound, 0, len(t.outs))
	for _, o := range t.outs {
		outs = append(outs, o)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.ln.Close()
	for _, o := range outs {
		o.close()
	}
	for _, o := range outs {
		<-o.done
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}

// --- inbound -------------------------------------------------------------

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

func (t *TCP) forgetConn(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
	conn.Close()
}

func (t *TCP) recvState(node string) *recvState {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs, ok := t.recv[node]
	if !ok {
		rs = &recvState{}
		t.recv[node] = rs
	}
	return rs
}

// serveConn handles one inbound connection: Hello exchange, then a read
// loop delivering sequenced frames through the duplicate filter, writing
// back an ack every ackEvery frames.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer t.forgetConn(conn)

	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
	if err != nil {
		return
	}
	_, f, err := wire.DecodeFrame(body)
	if err != nil {
		return
	}
	hello, ok := f.(wire.Hello)
	if !ok || hello.Version != wire.Version {
		return
	}
	from := hello.Node
	t.noteClock(from, hello.WallMicros)
	t.learnRoute(from, conn.RemoteAddr(), hello.Port)

	// Reply with the last sequence number already delivered from this
	// node, so a reconnecting sender replays exactly the lost tail. A new
	// incarnation of the node (same name, fresh Boot) starts a fresh
	// sequence space: keeping the old filter would drop its frames as
	// replays of its predecessor's.
	rs, boot := t.recvState(from), hello.Boot
	rs.mu.Lock()
	if rs.boot != boot {
		rs.boot = hello.Boot
		rs.lastSeq = 0
		rs.since = 0
	}
	reply := wire.Hello{Version: wire.Version, Node: t.self, Boot: t.boot, WallMicros: uint64(time.Now().UnixMicro()), LastSeq: rs.lastSeq}
	rs.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(snapshot.AppendFrame(nil, wire.AppendFrame(nil, 0, reply))); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	for {
		// A torn or corrupted frame ends the connection before anything
		// is delivered; the sender redials and replays from the last
		// delivered sequence number.
		body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
		if err != nil {
			return
		}
		seq, frame, err := wire.DecodeFrame(body)
		if err != nil {
			return
		}
		if seq == 0 {
			continue // unsequenced frames are connection control; none inbound today
		}
		// Deliver under the sender's lock: duplicate check, handler call,
		// and ack bookkeeping are one atomic step per sender, which keeps
		// FIFO delivery intact even while an old and a new connection
		// from the same node briefly coexist.
		rs.mu.Lock()
		if rs.boot != boot {
			// A newer stream from this node handshook since (a Release or
			// a restart), and the filter now tracks its sequence space:
			// this connection's frames are stale and end it undelivered.
			rs.mu.Unlock()
			return
		}
		if seq <= rs.lastSeq {
			rs.mu.Unlock()
			t.mu.Lock()
			t.stats.Duplicates++
			t.mu.Unlock()
			continue
		}
		rs.lastSeq = seq
		rs.since++
		// Ack every ackEvery frames, and additionally whenever the inbound
		// stream goes idle: a quiescent sender then holds no unacked tail,
		// so closing it later cannot trigger a pointless flush-redial of
		// frames the receiver already has.
		ack := rs.since >= ackEvery || br.Buffered() == 0
		if ack {
			rs.since = 0
		}
		t.mu.Lock()
		t.stats.FramesReceived++
		t.stats.BytesReceived += uint64(snapshot.FrameSize(len(body)))
		h := t.handler
		t.mu.Unlock()
		h(from, frame)
		rs.mu.Unlock()

		if ack {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(snapshot.AppendFrame(nil, wire.AppendFrame(nil, 0, wire.Ack{Seq: seq}))); err != nil {
				return
			}
		}
	}
}

// --- outbound ------------------------------------------------------------

func (o *outbound) close() {
	o.mu.Lock()
	o.closed = true
	if o.conn != nil {
		// Wake a writer blocked in cond.Wait and unstick one blocked in a
		// write; the run loop flushes what it can first.
		o.cond.Broadcast()
	}
	o.cond.Broadcast()
	o.mu.Unlock()
}

// dropConn closes the stream's current connection (any connection when
// conn is nil), sending the writer back to redial and replay.
func (o *outbound) dropConn(conn net.Conn) {
	o.mu.Lock()
	c := o.conn
	if c != nil && (conn == nil || conn == c) {
		o.conn = nil
		o.sendIdx = 0 // retransmit the unacked tail on the next connection
		o.cond.Broadcast()
	}
	o.mu.Unlock()
	if c != nil && (conn == nil || conn == c) {
		c.Close()
	}
}

// ack trims frames acknowledged up to seq from the resend buffer.
func (o *outbound) ack(seq uint64) {
	o.mu.Lock()
	n := 0
	for n < len(o.buf) && o.buf[n].seq <= seq {
		n++
	}
	if n > 0 {
		o.buf = o.buf[n:]
		o.sendIdx -= n
		if o.sendIdx < 0 {
			o.sendIdx = 0
		}
	}
	o.mu.Unlock()
}

// run is the stream's writer loop: dial, handshake, replay, stream, and
// on any error start over — until closed and drained.
func (o *outbound) run() {
	defer close(o.done)
	dials := 0
	for {
		o.mu.Lock()
		for o.sendIdx >= len(o.buf) && !o.closed {
			o.cond.Wait()
		}
		if o.closed && o.sendIdx >= len(o.buf) {
			o.mu.Unlock()
			return
		}
		o.mu.Unlock()

		conn, br, lastSeq, err := o.dial(dials)
		if err != nil {
			return // transport closed while redialing
		}
		dials++
		o.ack(lastSeq) // the receiver already has everything up to lastSeq

		o.mu.Lock()
		o.conn = conn
		o.sendIdx = 0
		o.mu.Unlock()

		// Ack reader for this connection: trims the resend buffer and
		// detects the peer closing the connection. It inherits the
		// handshake's buffered reader so no bytes are stranded.
		go func(c net.Conn, br *bufio.Reader) {
			for {
				body, err := snapshot.ReadFrame(br, snapshot.MaxFrame)
				if err != nil {
					o.dropConn(c)
					return
				}
				_, f, err := wire.DecodeFrame(body)
				if err != nil {
					o.dropConn(c)
					return
				}
				if a, ok := f.(wire.Ack); ok {
					o.ack(a.Seq)
				}
			}
		}(conn, br)

		o.stream(conn)
	}
}

// stream writes queued frames to conn, coalescing bursts through one
// buffered writer and flushing whenever the queue drains, until the
// connection drops or the stream closes with an empty queue.
func (o *outbound) stream(conn net.Conn) {
	bw := bufio.NewWriter(conn)
	for {
		o.mu.Lock()
		// Wait for work, pushing coalesced bytes out before each sleep.
		for o.sendIdx >= len(o.buf) && !o.closed && o.conn == conn {
			if bw.Buffered() > 0 {
				o.mu.Unlock()
				if err := bw.Flush(); err != nil {
					o.dropConn(conn)
					return
				}
				o.mu.Lock()
				continue // the queue may have refilled during the flush
			}
			o.cond.Wait()
		}
		if o.conn != conn {
			o.mu.Unlock()
			return // dropped; run() redials
		}
		if o.sendIdx >= len(o.buf) {
			// closed and drained
			o.mu.Unlock()
			bw.Flush()
			o.dropConn(conn)
			return
		}
		f := o.buf[o.sendIdx]
		o.sendIdx++
		o.mu.Unlock()

		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := bw.Write(f.enc); err != nil {
			o.dropConn(conn)
			return
		}
		o.t.mu.Lock()
		o.t.stats.FramesSent++
		o.t.stats.BytesSent += uint64(len(f.enc))
		o.t.mu.Unlock()
	}
}

// handshake sends the dialer's Hello, stamped t0, on conn and reads the
// acceptor's reply, refusing a reply that is not a Hello of this wire
// version.
func (o *outbound) handshake(conn net.Conn, t0 int64) (*bufio.Reader, wire.Hello, error) {
	_, err := conn.Write(snapshot.AppendFrame(nil, wire.AppendFrame(nil, 0, wire.Hello{Version: wire.Version, Node: o.t.self, Boot: o.boot, WallMicros: uint64(t0), Port: o.t.port()})))
	br := bufio.NewReader(conn)
	var body []byte
	if err == nil {
		body, err = snapshot.ReadFrame(br, snapshot.MaxFrame)
	}
	var f wire.Frame
	if err == nil {
		_, f, err = wire.DecodeFrame(body)
	}
	hello, ok := f.(wire.Hello)
	if err == nil && (!ok || hello.Version != wire.Version) {
		err = fmt.Errorf("transport: bad handshake from %q", o.node)
	}
	return br, hello, err
}

// dial connects to the stream's node and completes the Hello exchange,
// retrying with exponential backoff and ±50% jitter until it succeeds or
// the transport closes. It returns the peer's last delivered sequence
// number for replay trimming.
func (o *outbound) dial(attemptBase int) (net.Conn, *bufio.Reader, uint64, error) {
	backoff := redialBase
	for attempt := 0; ; attempt++ {
		o.mu.Lock()
		pending := o.sendIdx < len(o.buf)
		streamClosed := o.closed
		o.mu.Unlock()
		if streamClosed && !pending {
			return nil, nil, 0, ErrClosed
		}
		o.t.mu.Lock()
		tClosed, closedAt := o.t.closed, o.t.closedAt
		o.t.mu.Unlock()
		if tClosed && (!pending || time.Since(closedAt) > closeGrace) {
			// Closing: keep dialing only as a best-effort flush of frames
			// already queued, and only within the grace window.
			return nil, nil, 0, ErrClosed
		}

		o.t.mu.Lock()
		addr := o.t.routes[o.node]
		o.t.mu.Unlock()

		conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err == nil {
			conn.SetDeadline(time.Now().Add(handshakeTimeout))
			t0 := time.Now().UnixMicro()
			br, hello, err := o.handshake(conn, t0)
			if err == nil {
				// The dialer saw the whole round trip: symmetrize the sample.
				o.t.noteClockRTT(o.node, hello.WallMicros, t0, time.Now().UnixMicro())
				conn.SetDeadline(time.Time{})
				o.t.mu.Lock()
				o.t.stats.Dials++
				if attemptBase+attempt > 0 {
					o.t.stats.Reconnects++
				}
				o.t.mu.Unlock()
				return conn, br, hello.LastSeq, nil
			}
			conn.Close()
		}
		if tClosed {
			// Closing and the flush dial failed: the remote node is gone
			// for good (a live listener would have accepted), so burning
			// the rest of the grace window on redials helps nobody.
			return nil, nil, 0, ErrClosed
		}

		// Jittered exponential backoff before the next attempt.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		time.Sleep(sleep)
		backoff *= 2
		if backoff > redialCap {
			backoff = redialCap
		}
	}
}

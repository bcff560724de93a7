package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// collector records inbound frames and lets tests wait for a count.
type collector struct {
	mu     sync.Mutex
	frames []wire.Frame
	froms  []string
	ch     chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1)}
}

func (c *collector) handle(from string, f wire.Frame) {
	c.mu.Lock()
	c.frames = append(c.frames, f)
	c.froms = append(c.froms, from)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) waitFor(t *testing.T, n int) []wire.Frame {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		if len(c.frames) >= n {
			out := append([]wire.Frame(nil), c.frames...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			c.mu.Lock()
			got := len(c.frames)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d frames, have %d", n, got)
		}
	}
}

// assertSequential checks the frames are Stop{Err: "0"}, Stop{Err: "1"}, …
// — exactly once each, in order.
func assertSequential(t *testing.T, frames []wire.Frame, n int) {
	t.Helper()
	if len(frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(frames), n)
	}
	for i, f := range frames {
		s, ok := f.(wire.Stop)
		if !ok || s.Err != fmt.Sprint(i) {
			t.Fatalf("frame %d = %#v, want Stop{%d}", i, f, i)
		}
	}
}

func TestInProcFIFO(t *testing.T) {
	mesh := NewMesh()
	a, b := mesh.Node("a"), mesh.Node("b")
	col := newCollector()
	if err := b.Start(col.handle); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(func(string, wire.Frame) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.Stop{Err: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	assertSequential(t, col.waitFor(t, n), n)
	if st := a.Stats(); st.FramesSent != n || st.BytesSent == 0 {
		t.Fatalf("sender stats = %+v", st)
	}
	if st := b.Stats(); st.FramesReceived != n || st.BytesReceived == 0 {
		t.Fatalf("receiver stats = %+v", st)
	}
}

func TestInProcNoRoute(t *testing.T) {
	mesh := NewMesh()
	a := mesh.Node("a")
	if err := a.Start(func(string, wire.Frame) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.Send("ghost", wire.Poll{}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

// tcpPair builds two connected TCP transports on ephemeral ports.
func tcpPair(t *testing.T, aHandler, bHandler Handler) (*TCP, *TCP) {
	t.Helper()
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddRoute("b", b.Addr())
	b.AddRoute("a", a.Addr())
	if err := a.Start(aHandler); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(bHandler); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPFIFOExactlyOnce(t *testing.T) {
	col := newCollector()
	a, b := tcpPair(t, func(string, wire.Frame) {}, col.handle)

	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.Stop{Err: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	assertSequential(t, col.waitFor(t, n), n)
	// Every frame crossed the socket and was counted on both ends: each
	// as its wire body plus length prefix and 4 CRC bytes.
	want := uint64(0)
	for i := 0; i < n; i++ {
		want += uint64(len(frameBytes(uint64(i+1), wire.Stop{Err: fmt.Sprint(i)})))
	}
	if st := b.Stats(); st.FramesReceived != n || st.BytesReceived != want {
		t.Fatalf("receiver stats = %+v, want %d frames in %d bytes", st, n, want)
	}
	if st := a.Stats(); st.FramesSent < n || st.BytesSent < want || (st.FramesSent == n && st.BytesSent != want) {
		t.Fatalf("sender stats = %+v, want %d frames in %d bytes", st, n, want)
	}
}

func TestTCPBidirectional(t *testing.T) {
	colA, colB := newCollector(), newCollector()
	a, b := tcpPair(t, colA.handle, colB.handle)

	if err := a.Send("b", wire.Poll{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", wire.Status{Epoch: 1, Idle: true}); err != nil {
		t.Fatal(err)
	}
	if f := colB.waitFor(t, 1)[0]; f.(wire.Poll).Epoch != 1 {
		t.Fatalf("b got %#v", f)
	}
	if f := colA.waitFor(t, 1)[0]; !f.(wire.Status).Idle {
		t.Fatalf("a got %#v", f)
	}
	colA.mu.Lock()
	from := colA.froms[0]
	colA.mu.Unlock()
	if from != "b" {
		t.Fatalf("a got frame from %q, want b", from)
	}
}

// TestTCPLearnedRoute: a node answers a dialer it has no route for, at
// the connection's remote host and the listen port the dialer's Hello
// announced; a route set with AddRoute is never overwritten by one
// learned.
func TestTCPLearnedRoute(t *testing.T) {
	start := func(name string, h Handler) *TCP {
		tr, err := ListenTCP(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		if err := tr.Start(h); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	route := func(tr *TCP, node string) string {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.routes[node]
	}
	colA, colB, colC := newCollector(), newCollector(), newCollector()
	a, b, c := start("a", colA.handle), start("b", colB.handle), start("c", colC.handle)

	// b knows nothing of a until a dials in; then its reply reaches a.
	a.AddRoute("b", b.Addr())
	if err := a.Send("b", wire.Poll{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	colB.waitFor(t, 1)
	if got := route(b, "a"); got != a.Addr() {
		t.Fatalf("b learned route %q for a, want %q", got, a.Addr())
	}
	if err := b.Send("a", wire.Status{Epoch: 1, Idle: true}); err != nil {
		t.Fatal(err)
	}
	if f := colA.waitFor(t, 1)[0]; !f.(wire.Status).Idle {
		t.Fatalf("a got %#v", f)
	}

	// c was told where a lives; a dialing in must not change that.
	const configured = "127.0.0.1:1"
	c.AddRoute("a", configured)
	a.AddRoute("c", c.Addr())
	if err := a.Send("c", wire.Poll{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	colC.waitFor(t, 1)
	if got := route(c, "a"); got != configured {
		t.Fatalf("a dialing in overwrote c's configured route: %q, want %q", got, configured)
	}
}

// TestTCPReconnectExactlyOnce is the transport-level fault-injection
// test: connections are torn down repeatedly in mid-stream and every
// frame must still arrive exactly once, in order, via handshake replay
// plus receiver-side duplicate suppression.
func TestTCPReconnectExactlyOnce(t *testing.T) {
	col := newCollector()
	a, b := tcpPair(t, func(string, wire.Frame) {}, col.handle)

	// A goroutine streams frames continuously while the main goroutine
	// tears down every connection at three points of observed progress —
	// so drops strand frames that are genuinely in flight and the
	// handshake replay has real work to do.
	const n = 2000
	go func() {
		for i := 0; i < n; i++ {
			if a.Send("b", wire.Stop{Err: fmt.Sprint(i)}) != nil {
				return
			}
		}
	}()
	for _, target := range []int{n / 4, n / 2, 3 * n / 4} {
		col.waitFor(t, target)
		a.DropConns()
		b.DropConns()
	}

	assertSequential(t, col.waitFor(t, n), n)

	// Reconnects are counted at handshake completion, which may trail the
	// last delivery; wait for the counter rather than the clock.
	deadline := time.Now().Add(10 * time.Second)
	for a.Stats().Reconnects == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ast, bst := a.Stats(), b.Stats()
	if ast.Reconnects == 0 {
		t.Fatalf("sender never reconnected: %+v", ast)
	}
	if bst.FramesReceived != n {
		t.Fatalf("receiver counted %d frames, want %d", bst.FramesReceived, n)
	}
}

// frameBytes encodes f as it crosses the socket: one snapshot frame
// around its wire body.
func frameBytes(seq uint64, f wire.Frame) []byte {
	return snapshot.AppendFrame(nil, wire.AppendFrame(nil, seq, f))
}

// dialRaw opens a hand-driven connection to tr as node "x" and completes
// the handshake, returning the acceptor's Hello.
func dialRaw(t *testing.T, tr *TCP) (net.Conn, wire.Hello) {
	t.Helper()
	return dialRawBoot(t, tr, 0)
}

// dialRawBoot is dialRaw for the incarnation boot of node "x".
func dialRawBoot(t *testing.T, tr *TCP, boot uint64) (net.Conn, wire.Hello) {
	t.Helper()
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(frameBytes(0, wire.Hello{Version: wire.Version, Node: "x", Boot: boot})); err != nil {
		t.Fatal(err)
	}
	body, err := snapshot.ReadFrame(bufio.NewReader(conn), snapshot.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	_, f, err := wire.DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	return conn, f.(wire.Hello)
}

// TestTCPRefusesOtherWireVersion: nodes of different wire versions get no
// further than the handshake. An acceptor hangs up on a Hello of another
// version without replying or delivering the frames behind it, and a
// dialer refuses such a reply as a bad handshake.
func TestTCPRefusesOtherWireVersion(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Start(col.handle); err != nil {
		t.Fatal(err)
	}
	data := func(name string) wire.Frame {
		return wire.Data{From: "x", To: "p", Payload: wire.Activate{Rel: rel.Name(name)}}
	}

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	old := append(frameBytes(0, wire.Hello{Version: wire.Version - 1, Node: "x"}), frameBytes(1, data("old"))...)
	if _, err := conn.Write(old); err != nil {
		t.Fatal(err)
	}
	// The acceptor closes without a reply: EOF, or a reset when it left
	// the Data frame unread.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("acceptor kept a connection of another wire version open")
	}
	if n != 0 {
		t.Fatalf("acceptor replied %d bytes to a Hello of another wire version", n)
	}
	// A current node's frame is the first the handler sees.
	conn2, _ := dialRaw(t, b)
	if _, err := conn2.Write(frameBytes(1, data("new"))); err != nil {
		t.Fatal(err)
	}
	if got := col.waitFor(t, 1); got[0].(wire.Data).Payload != (wire.Activate{Rel: "new"}) {
		t.Fatalf("handler saw %v, want only the current node's frame", got)
	}

	// The dialer side, against an acceptor that answers with the previous
	// version.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := snapshot.ReadFrame(bufio.NewReader(c), snapshot.MaxFrame); err == nil {
			c.Write(frameBytes(0, wire.Hello{Version: wire.Version - 1, Node: "y"}))
		}
	}()
	dc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	dc.SetDeadline(time.Now().Add(10 * time.Second))
	o := &outbound{t: b, node: "y"}
	if _, _, err := o.handshake(dc, time.Now().UnixMicro()); err == nil || !strings.Contains(err.Error(), "bad handshake") {
		t.Fatalf("handshake with a reply of another wire version: err = %v, want a bad handshake", err)
	}
}

// TestTCPDuplicateSuppression speaks the protocol by hand: a client that
// ignores the handshake's LastSeq and replays already-delivered frames
// must have exactly the replays discarded.
func TestTCPDuplicateSuppression(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Start(col.handle); err != nil {
		t.Fatal(err)
	}

	conn, hello := dialRaw(t, b)
	if hello.LastSeq != 0 {
		t.Fatalf("fresh handshake LastSeq = %d", hello.LastSeq)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, err := conn.Write(frameBytes(seq, wire.Stop{Err: fmt.Sprint(seq - 1)})); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 10)
	conn.Close()

	conn2, hello2 := dialRaw(t, b)
	if hello2.LastSeq != 10 {
		t.Fatalf("reconnect handshake LastSeq = %d, want 10", hello2.LastSeq)
	}
	// Replay 5..10 (already delivered) and continue with 11..15.
	for seq := uint64(5); seq <= 15; seq++ {
		if _, err := conn2.Write(frameBytes(seq, wire.Stop{Err: fmt.Sprint(seq - 1)})); err != nil {
			t.Fatal(err)
		}
	}
	assertSequential(t, col.waitFor(t, 15), 15)
	if st := b.Stats(); st.Duplicates != 6 || st.FramesReceived != 15 {
		t.Fatalf("stats = %+v, want 6 duplicates over 15 frames", st)
	}
}

// TestTCPCorruptFrameDropped: a frame whose body was damaged in flight
// fails its CRC. The receiver drops it with its connection, the handler
// never sees it, and the counters hold only the frames delivered; the
// sender's replay on a new connection then delivers it intact.
func TestTCPCorruptFrameDropped(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Start(col.handle); err != nil {
		t.Fatal(err)
	}

	stop := func(seq uint64) wire.Frame { return wire.Stop{Err: fmt.Sprint(seq - 1)} }
	conn, _ := dialRaw(t, b)
	var good uint64
	for seq := uint64(1); seq <= 3; seq++ {
		enc := frameBytes(seq, stop(seq))
		good += uint64(len(enc))
		if _, err := conn.Write(enc); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 3)
	bad := frameBytes(4, stop(4))
	bad[len(bad)-5] ^= 0x01 // the body's last byte: a digit of Stop.Err
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	// The receiver hangs up instead of delivering: past the acks it
	// already wrote, the connection reads EOF.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("receiver kept the connection after a corrupt frame: %v", err)
	}

	conn2, hello := dialRaw(t, b)
	if hello.LastSeq != 3 {
		t.Fatalf("reconnect handshake LastSeq = %d, want 3", hello.LastSeq)
	}
	for seq := uint64(4); seq <= 5; seq++ {
		enc := frameBytes(seq, stop(seq))
		good += uint64(len(enc))
		if _, err := conn2.Write(enc); err != nil {
			t.Fatal(err)
		}
	}
	assertSequential(t, col.waitFor(t, 5), 5)
	if st := b.Stats(); st.FramesReceived != 5 || st.BytesReceived != good || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want 5 frames in %d bytes and no duplicates", st, good)
	}
}

// TestTCPSendBeforeRoute: sends to unrouted nodes fail fast instead of
// queueing forever.
func TestTCPSendBeforeRoute(t *testing.T) {
	a, err := ListenTCP("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.Start(func(string, wire.Frame) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("nowhere", wire.Poll{}); err == nil {
		t.Fatal("send without route succeeded")
	}
}

// TestTCPCloseFlushes: frames queued on a connected stream are delivered
// before Close returns.
func TestTCPCloseFlushes(t *testing.T) {
	col := newCollector()
	a, _ := tcpPair(t, func(string, wire.Frame) {}, col.handle)

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.Stop{Err: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	assertSequential(t, col.waitFor(t, n), n)
}

// TestTCPClockOffset: after a handshake in either direction, both sides
// hold a clock-offset estimate for the peer. Same machine, same clock —
// the estimate must be near zero (bounded by handshake latency), and the
// in-process mesh reports exactly zero.
func TestTCPClockOffset(t *testing.T) {
	colB := newCollector()
	a, b := tcpPair(t, func(string, wire.Frame) {}, colB.handle)

	if err := a.Send("b", wire.Poll{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	colB.waitFor(t, 1)

	const bound = int64(5 * time.Second / time.Microsecond)
	if off := a.ClockOffsetMicros("b"); off < -bound || off > bound {
		t.Fatalf("a's offset estimate for b = %dµs, want |off| < %dµs", off, bound)
	}
	if off := b.ClockOffsetMicros("a"); off < -bound || off > bound {
		t.Fatalf("b's offset estimate for a = %dµs, want |off| < %dµs", off, bound)
	}
	if off := a.ClockOffsetMicros("ghost"); off != 0 {
		t.Fatalf("offset for unknown node = %d, want 0", off)
	}

	mesh := NewMesh()
	if off := mesh.Node("x").ClockOffsetMicros("y"); off != 0 {
		t.Fatalf("in-proc offset = %d, want 0", off)
	}
}

// TestTCPRelease: releasing a stream to a node that is gone stops its
// writer's redials, and a stream to a live node opened after a release
// delivers from its first frame, though the receiver had already
// delivered that many frames from the released one.
func TestTCPRelease(t *testing.T) {
	col := newCollector()
	a, _ := tcpPair(t, func(string, wire.Frame) {}, col.handle)
	for i := 0; i < 3; i++ {
		if err := a.Send("b", wire.Stop{Err: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	col.waitFor(t, 3)
	a.Release("b")
	if err := a.Send("b", wire.Stop{Err: "3"}); err != nil {
		t.Fatal(err)
	}
	assertSequential(t, col.waitFor(t, 4), 4)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddRoute("gone", ln.Addr().String())
	ln.Close()
	if err := a.Send("gone", wire.Poll{}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	o := a.outs["gone"]
	a.mu.Unlock()
	a.Release("gone")
	select {
	case <-o.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the released stream's writer still redials")
	}
}

// TestTCPReleasedConnFramesDropped: frames of a released stream's
// connection can still sit in the receiver's buffers when the stream
// that replaced it has handshaken. They end their connection undelivered
// and leave the new stream's duplicate filter alone, so its frames 1..n
// are all delivered, once.
func TestTCPReleasedConnFramesDropped(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := b.Start(col.handle); err != nil {
		t.Fatal(err)
	}
	old, _ := dialRawBoot(t, b, 1)
	cur, _ := dialRawBoot(t, b, 2)
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := old.Write(frameBytes(seq, wire.Stop{Err: "stale"})); err != nil {
			t.Fatal(err)
		}
	}
	// The acceptor hangs up on the stale connection rather than ack it.
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := snapshot.ReadFrame(bufio.NewReader(old), snapshot.MaxFrame); err != io.EOF {
		t.Fatalf("stale connection read: err = %v, want EOF", err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := cur.Write(frameBytes(seq, wire.Stop{Err: fmt.Sprint(seq - 1)})); err != nil {
			t.Fatal(err)
		}
	}
	assertSequential(t, col.waitFor(t, 3), 3)
}

// Package transport moves wire frames between named nodes. It is the
// substrate under the multi-process distributed runtime: the cluster
// layer (internal/dist) routes evaluator messages and quiescence-control
// frames through a Transport without knowing whether the other node is a
// goroutine in the same process (InProc) or a process across a socket
// (TCP).
//
// Both implementations give the same two guarantees the evaluation model
// needs:
//
//   - FIFO per directed node pair: frames from node A to node B are
//     delivered in the order A sent them (the paper's per-sender ordering
//     assumption, extended across processes).
//   - Exactly-once delivery: every frame sent is delivered once, even
//     across dropped connections (TCP reconnects, replays its unacked
//     tail, and the receiver drops duplicates by stream sequence number).
//
// On TCP each message is one snapshot frame (see internal/snapshot) around
// its wire body: a torn or corrupted frame drops its connection unseen, and
// the sender's redial replays it.
//
// Frames are delivered to the handler one sender at a time, so handlers
// need no per-sender locking of their own; handlers must be cheap (an
// enqueue), never blocking, because they run on the receive path.
package transport

import (
	"errors"

	"repro/internal/wire"
)

// Handler receives one inbound frame. It runs on the transport's receive
// path: calls for the same sending node are sequential (preserving that
// sender's FIFO order); calls for different senders may be concurrent. It
// must not block and must not call back into the transport synchronously
// with unbounded work — hand the frame off and return.
type Handler func(from string, f wire.Frame)

// Transport is a full-duplex frame mover between this node and any named
// node it has a route to.
type Transport interface {
	// Self returns this node's name (the identity sent in handshakes).
	Self() string
	// Start installs the inbound handler and begins delivering frames.
	// Must be called exactly once, before the first Send.
	Start(h Handler) error
	// Send enqueues f for the named node and returns immediately. Frames
	// to the same destination are delivered in Send order.
	Send(node string, f wire.Frame) error
	// AddRoute teaches the transport where a node lives. The address
	// format is implementation-defined; InProc ignores it.
	AddRoute(node, addr string)
	// Release drops the stream to node and the frames queued on it, so a
	// node that is gone costs nothing; a later Send opens a new stream.
	Release(node string)
	// Stats returns a snapshot of the transport's I/O counters.
	Stats() Stats
	// ClockOffsetMicros reports the estimated wall-clock offset of the
	// named node relative to this one (remote minus local, in
	// microseconds), measured from the wall-clock samples exchanged in
	// the Hello handshake. 0 when unknown or when the nodes share a
	// clock (in-process). Dialer-side samples are symmetrized against
	// the handshake round trip (NTP midpoint, worst-case error RTT/2)
	// and preferred over one-way acceptor-side samples — good enough to
	// align trace timelines, not to order events.
	ClockOffsetMicros(node string) int64
	// Close shuts the transport down, flushing frames already queued to
	// connected nodes on a best-effort basis.
	Close() error
}

// Stats counts a transport's I/O. Bytes are encoded frame bytes including
// length prefixes (what actually crosses the wire), so they sit a few
// percent above the payload-byte figures the runtime reports per pair.
type Stats struct {
	Dials          uint64 // successful outbound handshakes
	Reconnects     uint64 // successful handshakes after a drop (subset of Dials)
	FramesSent     uint64
	FramesReceived uint64 // after duplicate suppression
	Duplicates     uint64 // frames dropped as replays
	BytesSent      uint64
	BytesReceived  uint64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// ErrNoRoute is returned by Send for a node with no known address.
var ErrNoRoute = errors.New("transport: no route to node")

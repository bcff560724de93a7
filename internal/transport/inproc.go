package transport

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Mesh connects InProc transports by name within one process. It is the
// default substrate: a cluster over a Mesh behaves exactly like the
// single-process runtime, except that every frame still round-trips
// through the wire codec — so byte counts are real and codec bugs surface
// in ordinary tests, not just over sockets.
type Mesh struct {
	mu    sync.Mutex
	nodes map[string]*InProc
}

// NewMesh returns an empty mesh.
func NewMesh() *Mesh {
	return &Mesh{nodes: make(map[string]*InProc)}
}

// Node returns the mesh's transport for the given name, creating it on
// first use.
func (m *Mesh) Node(name string) *InProc {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		n = &InProc{mesh: m, self: name}
		n.cond = sync.NewCond(&n.mu)
		m.nodes[name] = n
	}
	return n
}

type inFrame struct {
	from string
	enc  []byte
}

// InProc is the in-process Transport: Send encodes the frame and appends
// it to the destination's inbox; a single delivery goroutine per node
// decodes and hands frames to the handler. One inbox per node keeps
// per-sender FIFO trivially, and the encode/decode round trip keeps the
// wire codec honest.
type InProc struct {
	mesh *Mesh
	self string

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []inFrame
	handler Handler
	started bool
	closed  bool
	done    chan struct{}
	stats   Stats
}

// Self returns the node name.
func (n *InProc) Self() string { return n.self }

// AddRoute is a no-op: mesh nodes address each other by name.
func (n *InProc) AddRoute(node, addr string) {}

// Release is a no-op: a mesh node keeps no stream per destination.
func (n *InProc) Release(node string) {}

// ClockOffsetMicros is always 0: mesh nodes share one process clock.
func (n *InProc) ClockOffsetMicros(node string) int64 { return 0 }

// Start begins delivering inbound frames to h.
func (n *InProc) Start(h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("transport: InProc %q started twice", n.self)
	}
	n.started = true
	n.handler = h
	n.done = make(chan struct{})
	go n.deliver()
	return nil
}

// Send encodes f and appends it to node's inbox.
func (n *InProc) Send(node string, f wire.Frame) error {
	enc := wire.AppendFrame(nil, 0, f)

	n.mesh.mu.Lock()
	dst, ok := n.mesh.nodes[node]
	n.mesh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoRoute, node)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.stats.FramesSent++
	n.stats.BytesSent += uint64(len(enc))
	n.mu.Unlock()

	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrClosed, node)
	}
	dst.inbox = append(dst.inbox, inFrame{from: n.self, enc: enc})
	dst.cond.Broadcast()
	dst.mu.Unlock()
	return nil
}

func (n *InProc) deliver() {
	defer close(n.done)
	for {
		n.mu.Lock()
		for len(n.inbox) == 0 && !n.closed {
			n.cond.Wait()
		}
		if len(n.inbox) == 0 { // closed and drained
			n.mu.Unlock()
			return
		}
		f := n.inbox[0]
		n.inbox = n.inbox[1:]
		n.stats.FramesReceived++
		n.stats.BytesReceived += uint64(len(f.enc))
		h := n.handler
		n.mu.Unlock()

		_, frame, err := wire.DecodeFrame(f.enc)
		if err != nil {
			// An in-process frame that does not survive its own codec is
			// a codec bug; surface it loudly rather than dropping it.
			panic(fmt.Sprintf("transport: InProc %q: frame from %q does not decode: %v", n.self, f.from, err))
		}
		h(f.from, frame)
	}
}

// Stats returns a snapshot of the node's counters.
func (n *InProc) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close stops the node after draining already-queued inbound frames.
func (n *InProc) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.cond.Broadcast()
	started := n.started
	done := n.done
	n.mu.Unlock()
	if started {
		<-done
	}
	return nil
}

// Package dist provides the asynchronous peer-to-peer runtime used by the
// distributed evaluators: asynchronous message delivery that preserves
// per-sender FIFO order (the only ordering guarantee the paper's model
// assumes — Section 2, "for each individual peer the relative order of its
// alarms ... respects the order in which they were sent"), and distributed
// termination detection. The peers of one process are sequential locations
// that take turns on the goroutine that called Run: the peers with queued
// messages are served first-in, first-out, each draining its queue, so one
// run of one program delivers the same messages in the same order every
// time. Parallelism comes from what surrounds a network — independent
// sessions, and the member processes of a cluster — not from inside it.
//
// Termination ("the system reaches a fixpoint when no new relation may be
// activated and no new fact derived at any peer", Section 3.2) is detected
// by message counting: the network is quiescent exactly when no message is
// in flight. Within one process the count is exact — this stands in for the
// "standard termination detection algorithms for distributed computing" the
// paper cites [19, 33].
//
// A Network can also run as one node of a multi-process cluster (see
// cluster.go): SetRoute diverts messages addressed to peers hosted
// elsewhere, Inject delivers messages that arrived from other nodes, and
// SetExternal switches off local self-termination so a cluster-wide
// message-counting coordinator (the same counting argument, run over
// sampled per-node counters) decides quiescence instead.
package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Net is the runtime surface the evaluators program against: a closed set
// of peers exchanging asynchronous messages until quiescence. *Network is
// the single-process implementation; the cluster rounds in cluster.go
// implement it over a transport.
type Net interface {
	AddPeer(PeerID, Handler)
	SetTracer(obs.Tracer)
	Run(initial []Message, timeout time.Duration) (Stats, error)
}

// PeerID names a peer.
type PeerID string

// Message is an asynchronous message between peers. Payload is
// evaluator-defined; the runtime never inspects it.
type Message struct {
	From    PeerID
	To      PeerID
	Payload any

	// seq is the network-wide send sequence number, correlating the
	// send-side and delivery-side trace events of one hop.
	seq uint64
}

// Local is implemented by payloads that stand in for a wire payload between
// two peers of one process: the message carries the sender's in-memory form
// and reports the type name and encoded size of the wire payload it
// replaces, so traces and byte counters read the same wherever the two
// peers run.
type Local interface {
	Wire() (name string, size int)
}

// handleName labels the handler span of payload p with the type of the
// wire payload it is or stands in for. The wire kinds' labels are
// constants, so a traced message builds no string.
func handleName(p any) string {
	switch v := p.(type) {
	case wire.Facts:
		return "handle wire.Facts"
	case wire.Inject:
		return "handle wire.Inject"
	case wire.Install:
		return "handle wire.Install"
	case wire.Activate:
		return "handle wire.Activate"
	case Local:
		switch name, _ := v.Wire(); name {
		case "wire.Facts":
			return "handle wire.Facts"
		case "wire.Inject":
			return "handle wire.Inject"
		case "wire.Install":
			return "handle wire.Install"
		default:
			return "handle " + name
		}
	}
	return fmt.Sprintf("handle %T", p)
}

// payloadSize is the wire-encoded size of payload p (0 for payloads the
// wire codec does not know).
func payloadSize(p any) int {
	if l, ok := p.(Local); ok {
		_, size := l.Wire()
		return size
	}
	size, _ := wire.PayloadSize(p)
	return size
}

// Handler processes one message on behalf of a peer. Handlers run one at a
// time, on the goroutine that called Run; messages to a peer are handled in
// per-sender FIFO order. The handler may send further messages through ctx.
type Handler func(ctx *Context, m Message)

// Context is a peer's interface to the network during message handling.
type Context struct {
	net  *Network
	self PeerID
}

// Self returns the identity of the handling peer.
func (c *Context) Self() PeerID { return c.self }

// Send delivers payload to the given peer asynchronously.
func (c *Context) Send(to PeerID, payload any) {
	c.net.send(Message{From: c.self, To: to, Payload: payload})
}

// Abort stops the whole network; Run returns err.
func (c *Context) Abort(err error) {
	c.net.Stop(err)
}

// Stopped reports whether the network has been aborted or has quiesced.
// Long-running handlers should poll it and bail out: an abort stops
// message delivery but cannot interrupt a handler.
func (c *Context) Stopped() bool { return c.net.stopped.Load() }

// Pair names a directed sender→receiver channel.
type Pair struct {
	From PeerID
	To   PeerID
}

// Stats summarizes a network run.
type Stats struct {
	MessagesSent int
	Processed    map[PeerID]int // messages handled per peer
	// MessagesByPair counts sends per (sender, receiver) channel; the
	// values sum to MessagesSent (initial seed messages count under their
	// synthetic sender).
	MessagesByPair map[Pair]int
	// BytesSentByPair counts the wire-encoded payload bytes per channel,
	// charged by the sending node — the same figure whether the message
	// stays in-process or crosses a socket, so byte costs measured
	// in-proc predict network traffic exactly. Payload types unknown to
	// the wire codec (only found in toy tests) count zero bytes.
	BytesSentByPair map[Pair]int
	Elapsed         time.Duration
}

// ErrTimeout is returned by Run when the deadline passes before quiescence.
var ErrTimeout = errors.New("dist: network did not quiesce before deadline")

type peer struct {
	id      PeerID
	handler Handler
	queue   []Message // head counts the ones handled since the queue was last empty
	head    int
	sched   bool // on the ready list, or being drained
	ctx     Context
}

// Network is a closed set of peers exchanging asynchronous messages.
// Configure with AddPeer, then call Run exactly once.
//
// The mutex guards the queues and counters against what reaches a running
// network from other goroutines: Inject, Stop, Counters and the timeout
// timer. Handlers themselves run outside it, one at a time.
type Network struct {
	mu       sync.Mutex
	cond     *sync.Cond
	peers    map[PeerID]*peer
	order    []PeerID
	ready    []*peer     // peers with queued messages, in the order they got their first
	inflight int         // messages sent but not yet fully processed
	stopped  atomic.Bool // written under mu; handlers poll it without
	err      error
	stats    Stats
	seq      uint64     // send sequence number (trace flow IDs)
	tracer   obs.Tracer // never nil; obs.Nop by default

	// cluster-member state (see SetRoute / SetExternal / Inject).
	route    func(Message) // non-nil: messages to unknown peers go here
	external bool          // true: local quiescence does not stop the run
	notify   func()        // fired on each transition into local idleness
	wasIdle  bool          // suppresses duplicate notify calls
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	n := &Network{peers: make(map[PeerID]*peer), tracer: obs.Nop}
	n.cond = sync.NewCond(&n.mu)
	n.stats.Processed = make(map[PeerID]int)
	n.stats.MessagesByPair = make(map[Pair]int)
	n.stats.BytesSentByPair = make(map[Pair]int)
	return n
}

// SetRoute diverts messages addressed to peers this network does not host:
// instead of panicking on an unknown destination, send hands the message
// (already counted in MessagesSent/MessagesByPair/BytesSentByPair) to
// route. route is called outside the network lock, from the goroutine the
// handlers run on — so a FIFO-per-destination transport preserves the
// per-sender ordering guarantee across nodes. Must be set before Run.
func (n *Network) SetRoute(route func(Message)) {
	n.route = route
}

// SetExternal makes this network one member of a larger cluster: local
// quiescence (every hosted peer idle, nothing in flight locally) no longer
// stops the run — messages may still arrive via Inject — and notify fires
// on each transition into local idleness so the member can report a
// counter sample to the cluster's termination coordinator. notify runs
// under the network lock: it must not block and must not call back into
// the network (a transport enqueue is fine). The run then ends only via
// Stop or timeout. Must be set before Run.
func (n *Network) SetExternal(notify func()) {
	n.external = true
	n.notify = notify
}

// SetSeqBase offsets this network's message sequence numbers (trace flow
// IDs) by base. Cluster nodes seed disjoint bases derived from their node
// names, making flow IDs unique cluster-wide — the property that lets a
// send arrow recorded on one node bind to the handle recorded on another
// when per-node traces are merged. Must be called before Run.
func (n *Network) SetSeqBase(base uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq = base
}

// Inject delivers a message that arrived from another node of the
// cluster. The destination must be hosted here (cluster peer assignments
// are static, so a miss is a routing bug). Unlike send it does not count
// toward MessagesSent — the sending node counted it, bytes included —
// but it does count toward Processed when handled, which is what makes
// the cluster-wide counting argument (Σsent == Σprocessed over all nodes
// ⇒ nothing in flight) come out exact.
//
// A message carrying the sender's flow ID (SetFlow) keeps it, and no
// send-side flow event is recorded here: the true sender already recorded
// one, and reusing its ID lets the merged cluster trace draw the arrow
// across processes. Without an ID, a fresh local one is assigned and the
// send half is synthesized locally (the pre-v4 behavior, which keeps
// single-node traces whole when the remote side recorded nothing).
func (n *Network) Inject(m Message) {
	preset := m.seq != 0
	n.mu.Lock()
	p, ok := n.peers[m.To]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("dist: inject for peer %q not hosted here", m.To))
	}
	if n.stopped.Load() {
		n.mu.Unlock()
		return // late deliveries during shutdown are dropped
	}
	n.inflight++
	if !preset {
		n.seq++
		m.seq = n.seq
	}
	n.enqueueLocked(p, m)
	n.mu.Unlock()
	if !preset {
		n.tracer.FlowBegin(string(m.From), "msg", m.seq)
	}
}

// enqueueLocked appends m to p's queue and puts p on the ready list unless
// it is there already or having its queue drained. Caller holds n.mu.
func (n *Network) enqueueLocked(p *peer, m Message) {
	p.queue = append(p.queue, m)
	n.wasIdle = false
	if !p.sched {
		p.sched = true
		n.ready = append(n.ready, p)
		n.cond.Signal()
	}
}

// SetFlow stamps a message with the flow ID its sender assigned on
// another node, for Inject.
func (m *Message) SetFlow(id uint64) { m.seq = id }

// Flow returns the message's flow ID (0 before the network assigns one).
func (m Message) Flow() uint64 { return m.seq }

// Counters samples this node's share of the cluster-wide message counts:
// messages its peers have sent (local or remote destinations alike),
// messages fully processed here, and whether the node is locally idle.
// The two-wave coordinator terminates the cluster when consecutive waves
// sample identical, globally balanced counters from idle nodes.
func (n *Network) Counters() (sent, processed uint64, idle bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pr int
	for _, c := range n.stats.Processed {
		pr += c
	}
	// Idle: every sent message handled, none queued, no handler running.
	return uint64(n.stats.MessagesSent), uint64(pr), n.inflight == 0 || n.stopped.Load()
}

// Stop stops the network: nil err records clean (cluster-decided)
// quiescence, non-nil aborts the run with that error. Safe from any
// goroutine; a second stop is a no-op.
func (n *Network) Stop(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped.Load() {
		n.stopped.Store(true)
		n.err = err
		n.cond.Broadcast()
	}
}

// SetTracer installs the network's tracer (obs.Nop when t is nil). Must
// be called before Run; the default no-op tracer costs nothing on the
// message-dispatch hot path.
func (n *Network) SetTracer(t obs.Tracer) {
	n.tracer = obs.Or(t)
}

// AddPeer registers a peer. It panics if the ID is taken or the network has
// started.
func (n *Network) AddPeer(id PeerID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped.Load() {
		panic("dist: AddPeer after Run")
	}
	if _, ok := n.peers[id]; ok {
		panic(fmt.Sprintf("dist: duplicate peer %q", id))
	}
	p := &peer{id: id, handler: h}
	p.ctx = Context{net: n, self: id}
	n.peers[id] = p
	n.order = append(n.order, id)
}

// Peers returns the registered peer IDs in registration order.
func (n *Network) Peers() []PeerID {
	out := make([]PeerID, len(n.order))
	copy(out, n.order)
	return out
}

func (n *Network) send(m Message) {
	size := payloadSize(m.Payload)
	n.mu.Lock()
	p, ok := n.peers[m.To]
	if !ok && n.route == nil {
		n.mu.Unlock()
		panic(fmt.Sprintf("dist: send to unknown peer %q", m.To))
	}
	if n.stopped.Load() {
		n.mu.Unlock()
		return // late sends during shutdown are dropped
	}
	n.stats.MessagesSent++
	n.stats.MessagesByPair[Pair{From: m.From, To: m.To}]++
	if size > 0 {
		n.stats.BytesSentByPair[Pair{From: m.From, To: m.To}] += size
	}
	n.seq++
	m.seq = n.seq
	if !ok {
		// The destination lives on another node: counted as sent here,
		// processed wherever it lands. Routed outside the lock — handlers
		// run one at a time, so a peer's sends still reach the transport
		// in order.
		n.mu.Unlock()
		n.tracer.FlowBegin(string(m.From), "msg", m.seq)
		n.route(m)
		return
	}
	n.inflight++
	n.enqueueLocked(p, m)
	n.mu.Unlock()
	n.tracer.FlowBegin(string(m.From), "msg", m.seq)
}

// deliver is the scheduler: take the peer that has waited longest for a
// turn, hand its queued messages to its handler one by one (outside the
// lock), and move on to the next once the queue is empty. A peer's messages
// are therefore handled in queue order, which is send order — the
// per-sender FIFO guarantee. It returns once the network has stopped.
func (n *Network) deliver() {
	tr := n.tracer
	n.mu.Lock()
	defer n.mu.Unlock()
	for !n.stopped.Load() {
		if len(n.ready) == 0 {
			// Between turns, no peer ready means nothing in flight: local
			// quiescence. A standalone network stops itself (detection is
			// exact in-process); a cluster member fires notify once per idle
			// transition and waits — remote messages may still arrive, and
			// only the cluster coordinator may declare the end.
			if !n.external {
				n.stopped.Store(true)
				return
			}
			if !n.wasIdle && n.notify != nil {
				n.notify()
			}
			n.wasIdle = true
			n.cond.Wait()
			continue
		}
		p := n.ready[0]
		n.ready = n.ready[1:]
		for p.head < len(p.queue) && !n.stopped.Load() {
			m := p.queue[p.head]
			p.queue[p.head] = Message{} // the array is reused: let go of the payload
			p.head++
			n.mu.Unlock()
			if tr.Enabled() {
				tr.FlowEnd(string(p.id), "msg", m.seq)
				sp := tr.Begin(string(p.id), handleName(m.Payload))
				p.handler(&p.ctx, m)
				sp.End()
			} else {
				p.handler(&p.ctx, m)
			}
			n.mu.Lock()
			n.inflight--
			n.stats.Processed[p.id]++
		}
		p.queue, p.head, p.sched = p.queue[:0], 0, false
	}
}

// Stopped reports whether the network has stopped (quiesced, aborted, or
// timed out). It is safe from any goroutine, including after Run has
// returned.
//
// Post-Run contract (relied on by long-lived sessions that re-enter
// evaluation with a fresh Network per round): when Run returns, no handler
// is running and Stopped() is true, so the state the handlers built — and
// Err() — may be read without further synchronization. A late timeout
// firing after quiescence is a no-op: Stop never overwrites the stopped
// flag or a nil error of an already stopped network.
func (n *Network) Stopped() bool { return n.stopped.Load() }

// Err returns the abort or timeout error of a stopped network (nil after
// clean quiescence). Safe after Run has returned; see Stopped.
func (n *Network) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Run injects the initial messages (From is preserved; use a synthetic
// sender such as "query" for seeds) and delivers messages, on the calling
// goroutine, until the network quiesces, a handler aborts, or the timeout
// elapses (zero timeout means one minute). It returns run statistics and
// the abort or timeout error, if any.
func (n *Network) Run(initial []Message, timeout time.Duration) (Stats, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	start := time.Now()
	// One span per round on the dist-round track: trace writers show it
	// on the timeline, and a metrics sink with ObserveSpans configured
	// folds its duration into a dist_round_latency_seconds histogram (the
	// node's own view of the round).
	roundSpan := n.tracer.Begin("dist-round", "dist: round")
	defer n.tracer.End(roundSpan)

	// Seed through the regular send path so seeds addressed to peers
	// hosted on other nodes route like any other message. Delivery has not
	// started, so nothing is handled before seeding completes.
	for _, m := range initial {
		n.send(m)
	}

	// Per-peer lifetime spans, so per-peer tracks frame the round in trace
	// timelines.
	var lives []obs.Span
	if n.tracer.Enabled() {
		for _, id := range n.order {
			lives = append(lives, n.tracer.Begin(string(id), "peer"))
		}
	}

	// deliver returns once the network has stopped: at quiescence (at once,
	// if nothing was seeded) or, a cluster member, when the coordinator says.
	// A deadline that seeding already outlived stops the round here: the
	// timer's goroutine may not get a CPU before a short round quiesces.
	timer := time.AfterFunc(timeout, func() { n.Stop(ErrTimeout) })
	if time.Since(start) >= timeout {
		n.Stop(ErrTimeout)
	}
	n.deliver()
	timer.Stop()
	for _, sp := range lives {
		sp.End()
	}

	n.mu.Lock()
	n.stats.Elapsed = time.Since(start)
	stats, err := n.stats, n.err
	n.mu.Unlock()

	// Per-channel message counts, one counter sample per (from, to) pair.
	// Emitted once per run, so a metrics sink accumulates them into the
	// cumulative dist_messages_total{from,to} series.
	if n.tracer.Enabled() {
		for pair, c := range stats.MessagesByPair {
			n.tracer.Counter("dist",
				fmt.Sprintf("dist_messages_total{from=%q,to=%q}", pair.From, pair.To), int64(c))
		}
		for pair, c := range stats.BytesSentByPair {
			n.tracer.Counter("dist",
				fmt.Sprintf("dist_bytes_total{from=%q,to=%q}", pair.From, pair.To), int64(c))
		}
	}
	return stats, err
}

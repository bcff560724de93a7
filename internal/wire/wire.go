// Package wire is the binary codec of the peer transport: stdlib-only,
// varint-based frame bodies (a transport cuts its byte stream into them
// with the snapshot package's CRC frame) that carry the distributed
// evaluation's messages (relation activations, fact streams, runtime fact
// and rule installation) plus the control frames of the multi-process
// runtime (handshake, job shipping, quiescence waves, shutdown).
//
// Terms cross the wire in their hash-consed structural encoding
// (term.Extern): nodes are listed once, arguments before users, so a term
// whose tree expansion is exponential (deep Skolem terms of the unfolding
// programs) still encodes in linear space.
//
// The decoder is total: any byte slice either decodes into a valid frame
// or returns an error — it never panics and never allocates more than the
// input could justify (every length is validated against the remaining
// input before allocation). FuzzDecodeFrame enforces this.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/rel"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// Version is the protocol version exchanged in the Hello handshake. Nodes
// refuse to talk across versions: the codec has no compatibility shims.
// Version 3 added the Gen tag carried by every post-handshake frame.
// Version 4 added cluster telemetry: wall-clock samples in Hello, trace
// context on Job, flow IDs on Data, and the Telemetry frame.
// Version 5 added the session-pool RPC frames (SessionJob, SessionReply).
// Version 6 moved a shipped session's applied-append index out of the
// checkpoint blob into SessionReply.Index, and CRC-framed TCP traffic.
// Version 7 dropped SessionReply.AdminAddr: frontends learn of a drain
// from the SessPing reply alone.
// Version 8 added Hello.Port (acceptors learn a reply route from it) and
// dropped SessionJob.FrontendAddr, which that route replaces.
// Version 9 replaced SessLoad with SessReplay (a session travels as its
// frontend's log records, not as a checkpoint plus per-append replays),
// made SessionJob.Engine the engine's name, and dropped SessionReply's
// Index and its echoed operation and session.
// Version 10 dropped Job.TraceID and Job.ParentSpan, and Telemetry's
// TraceID, WallMicros, Counters and Gauges: no program read them.
// Version 11 dropped SessionReply's append-latency load sample: the pool
// sends each job once, and only its re-send timer read the sample.
// Version 12 added ReplPull and ReplBatch: WAL replication rides the
// transport instead of a TCP protocol of its own.
const Version = 12

// frame type tags.
const (
	tagHello byte = iota + 1
	tagAck
	tagData
	tagJob
	tagJobOK
	tagPoll
	tagStatus
	tagStop
	tagDone
	tagTelemetry
	tagSessionJob
	tagSessionReply
	tagReplPull
	tagReplBatch
)

// payload kind tags (inside a Data frame).
const (
	tagActivate byte = iota + 1
	tagFacts
	tagInject
	tagInstall
)

// Frame is one unit of the transport protocol.
type Frame interface{ isFrame() }

// Hello opens a connection: the dialer announces itself, the acceptor
// replies with the highest sequence number it has already received from
// the dialer so the dialer can resend exactly the lost tail. Boot
// identifies the sender's stream incarnation: a restarted process
// reuses its node name but draws a fresh Boot, and so does a stream
// reopened after a release, telling the receiver to discard the
// previous incarnation's duplicate-filter state instead of dropping the
// newcomer's frames as replays.
// WallMicros is the sender's wall clock at encode time (microseconds since
// the Unix epoch). Each side of the handshake records the difference
// between the peer's sample and its own clock at receipt, giving the
// per-node offset estimate that aligns cluster trace timestamps.
type Hello struct {
	Version    uint32
	Node       string // sender's node ID
	Boot       uint64 // sender's transport incarnation
	WallMicros uint64 // sender's wall clock at encode time (µs since epoch)
	LastSeq    uint64 // acceptor→dialer only: last delivered seq from the dialer
	Port       uint32 // dialer→acceptor only: the dialer's listen port (0 = none)
}

// Ack tells the sending node that every sequenced frame up to Seq has
// been delivered, letting it trim its resend buffer.
type Ack struct {
	Seq uint64
}

// Data carries one peer-to-peer evaluation message. Flow is the sender's
// globally unique message ID: the receiving node injects the message under
// the same ID, so the flow arrow recorded at the sender ('s' trace event)
// and the handle span recorded at the receiver ('f' trace event) bind into
// one arrow when per-node traces are merged into a cluster timeline.
type Data struct {
	Gen     uint64 // job generation the message belongs to
	Flow    uint64 // sender-assigned flow ID (0 = untracked)
	From    string // sending peer
	To      string // receiving peer
	Payload Payload
}

// Job ships a diagnosis job to a member node: the system description, the
// observed alarms, the engine configuration, and the cluster layout. Gen
// is the job's generation: the driver bumps it on every ship, every
// frame of the resulting evaluation carries it, and both sides drop
// frames whose generation is not the current one. That is what keeps a
// crashed-and-restarted node's replayed tail — Data frames of a round
// that died with the old process — from polluting the retried round.
type Job struct {
	Gen       uint64   // job generation (stamped by the driver's ShipJob)
	NetText   string   // textual net description (parser.Net format)
	Alarms    string   // observed alarm sequence (parser.Alarms format)
	Engine    uint32   // diagnosis engine ordinal (naive or dqsq)
	MaxDepth  uint32   // term-depth budget; 0 = engine default
	MaxFacts  uint32   // materialized-fact budget; 0 = engine default
	TimeoutMS uint32   // driver's evaluation timeout, for the member failsafe
	Trace     bool     // record spans on the member and ship them back per round
	Hosted    []string // peers this member hosts
	Peers     []Assign // full peer→node assignment of the cluster
	Nodes     []Assign // node→address book for member↔member dialing
	Driver    string   // driver node ID
}

// Assign is one key→value entry of a Job map (peer→node or node→addr).
type Assign struct {
	Key, Val string
}

// JobOK acknowledges a Job (or reports why it was refused). Gen echoes
// the acknowledged job's generation so a late ack for a superseded job
// cannot pass for an ack of the current one.
type JobOK struct {
	Gen  uint64
	Node string
	Err  string
}

// Poll asks a member for a quiescence status sample; Epoch matches the
// reply to the wave that requested it.
type Poll struct {
	Gen   uint64
	Epoch uint64
}

// Status is a member's counter sample: messages its peers have sent,
// messages they have fully processed, and whether the node is locally
// idle. Epoch 0 is an unsolicited idle notification.
type Status struct {
	Gen       uint64
	Epoch     uint64
	Sent      uint64
	Processed uint64
	Idle      bool
}

// Stop ends the current round at a member; an empty Err means clean
// quiescence.
type Stop struct {
	Gen uint64
	Err string
}

// Done is a member's end-of-round report: its share of the global run
// statistics plus evaluator-defined extras (e.g. facts derived).
type Done struct {
	Gen       uint64
	Sent      uint64
	Processed []PeerCount // messages handled, per hosted peer
	ByPair    []PairCount // sends per (from, to) peer pair
	BytesSent []PairCount // encoded payload bytes per (from, to) pair
	Extras    []KV
	Err       string
}

// PeerCount is a per-peer counter.
type PeerCount struct {
	Peer  string
	Count uint64
}

// PairCount is a per-directed-pair counter.
type PairCount struct {
	From, To string
	Count    uint64
}

// KV is one evaluator-defined extra counter.
type KV struct {
	Key string
	Val uint64
}

// Telemetry is a member's per-round trace sample, sent to the driver just
// before the round's Done report: the trace events recorded since the last
// sample. Gen scopes it to a job generation like every evaluation frame.
type Telemetry struct {
	Gen     uint64
	Node    string // reporting member
	Dropped uint64 // trace events lost to the member's bounded buffer
	Events  []TraceEvent
}

// TraceEvent is one recorded trace event in wall-clock form, the unit of
// cross-process trace shipping. Wall is the recorder's own clock; the
// driver subtracts the per-node offset estimated from the Hello handshake
// when merging events into the cluster timeline.
type TraceEvent struct {
	Track string // logical track (peer name, "net", ...)
	Name  string // event name
	Ph    byte   // Chrome trace phase: X, i, C, G, s, f
	Wall  int64  // event time, µs since the Unix epoch (recorder's clock)
	Dur   int64  // duration in µs (complete spans only)
	Value int64  // counter/gauge value (C and G only)
	ID    uint64 // flow ID (s and f only)
}

// SessionJob operations (SessionJob.Op). They are the verbs of the
// session-pool RPC: a diagnosed frontend ships session work to a peerd
// worker as one SessionJob and gets one SessionReply back.
const (
	// SessCreate admits a session under the frontend-assigned ID.
	SessCreate uint32 = iota + 1
	// SessAppend feeds alarms to a live session. Index is the 1-based
	// position of this append in the session's history; the worker applies
	// it exactly once, so a duplicate returns the memoized result instead
	// of re-evaluating.
	SessAppend
	// SessGet reads the session's state (seq, report, exhaustion).
	SessGet
	// SessDelete removes the session.
	SessDelete
	// SessPing is a no-op carrying back only the load sample.
	SessPing
	// SessShip asks the worker to serialize the session: checkpoint bytes
	// in the reply's Blob, which the frontend logs as a checkpoint record.
	SessShip
	// SessReplay rebuilds a session on this worker from the frontend's
	// log records (Blob, from the session's base onward), replacing any
	// copy it holds; Index is the appends they cover, where the worker's
	// append dedup resumes.
	SessReplay
)

// SessionReply codes (SessionReply.Code). Zero is success.
const (
	SessOK uint32 = iota
	// SessRetry: transient worker-side failure; the client may send the
	// request again (maps to 503).
	SessRetry
	// SessSaturated: the worker's session table or fact budget is full;
	// place elsewhere or shed load (maps to 503 + Retry-After).
	SessSaturated
	// SessDraining: the worker is draining; do not place new sessions,
	// migrate the ones it holds.
	SessDraining
	// SessNotFound: no such session on this worker.
	SessNotFound
	// SessExhausted: the session's fact budget is spent (maps to 429).
	SessExhausted
	// SessTimeout: the evaluation hit its deadline (maps to 504).
	SessTimeout
	// SessBad: permanent input error (bad net, unknown peer, ...).
	SessBad
	// SessOutOfSync: the append index does not follow the worker's applied
	// count — the frontend and worker have diverged; re-materialize.
	SessOutOfSync
)

// SessionJob ships one session operation to a pool worker. Req matches
// the reply to the request; Frontend names the node to send it to (the
// worker's transport learned that node's route when the frontend dialed
// in, so the frontend needs no a-priori registration on the worker side).
type SessionJob struct {
	Req       uint64 // request ID, echoed by SessionReply
	Op        uint32 // SessCreate..SessReplay
	Session   string // session ID (frontend-assigned)
	Index     uint64 // SessAppend: 1-based append index for dedup; SessReplay: appends Blob covers
	NetText   string // SessCreate: textual net description
	Engine    string // SessCreate: engine name as the HTTP API spells it ("" = default)
	MaxFacts  uint32 // SessCreate: per-session fact budget
	TimeoutMS uint32 // evaluation deadline for this operation
	Alarms    string // SessAppend: alarm text (parser.Alarms format)
	Frontend  string // requesting frontend's node name
	Blob      []byte // SessReplay: the session's log records
}

// SessionReply answers one SessionJob. Every reply piggybacks the
// worker's load sample (active sessions, queue depth), which the
// frontend's least-loaded scheduler feeds on between health probes.
type SessionReply struct {
	Req          uint64 // echoed request ID
	Code         uint32 // SessOK or a SessionReply error code
	Err          string // human-readable error detail (Code != SessOK)
	RetryAfterMS uint32 // backpressure hint (SessSaturated/SessDraining)
	Active       uint32 // load: live sessions on the worker
	Queued       uint32 // load: jobs waiting in the worker's queue
	Blob         []byte // op result payload: a backend body, or SessShip's checkpoint
}

// ReplPull asks a replication primary for the log records past Last. The
// primary answers the follower's latest pull with one ReplBatch: at once
// when it holds records past Last, else when its log grows or WaitMS
// elapses (an empty batch, the follower's heartbeat).
type ReplPull struct {
	Nonce  uint64 // names the pull; its batch echoes it
	Last   uint64 // the follower's last applied sequence (0 = none)
	CRC    uint32 // CRC-32 of the follower's record at Last
	Epoch  uint64 // highest fencing epoch the follower has seen
	WaitMS uint32 // how long the primary may hold an empty answer
}

// ReplBatch answers a ReplPull with consecutive log records, at most one
// snapshot.MaxFrame of them.
type ReplBatch struct {
	Nonce   uint64   // the answered pull's
	Epoch   uint64   // the primary's fencing epoch
	Wipe    bool     // drop all local state before applying Records
	Start   uint64   // sequence of Records[0], or of the next record
	Last    uint64   // the primary's last sequence
	Records [][]byte // log record payloads
}

// FrameGen returns the job generation carried by f, and whether f is a
// generation-tagged frame at all (the handshake frames are not).
func FrameGen(f Frame) (uint64, bool) {
	switch v := f.(type) {
	case Data:
		return v.Gen, true
	case Job:
		return v.Gen, true
	case JobOK:
		return v.Gen, true
	case Poll:
		return v.Gen, true
	case Status:
		return v.Gen, true
	case Stop:
		return v.Gen, true
	case Done:
		return v.Gen, true
	case Telemetry:
		return v.Gen, true
	}
	return 0, false
}

func (Hello) isFrame()        {}
func (Ack) isFrame()          {}
func (Data) isFrame()         {}
func (Job) isFrame()          {}
func (JobOK) isFrame()        {}
func (Poll) isFrame()         {}
func (Status) isFrame()       {}
func (Stop) isFrame()         {}
func (Done) isFrame()         {}
func (Telemetry) isFrame()    {}
func (SessionJob) isFrame()   {}
func (SessionReply) isFrame() {}
func (ReplPull) isFrame()     {}
func (ReplBatch) isFrame()    {}

// Payload is the evaluator-level content of a Data frame. The four kinds
// mirror the messages of the naive distributed evaluation (Section 3.2)
// and its online extension: activation/subscription, fact streaming,
// runtime fact injection, runtime rule installation.
type Payload interface{ isPayload() }

// Activate asks the receiving peer to activate relation Rel and subscribe
// the sender to its tuples.
type Activate struct {
	Rel rel.Name
}

// Facts carries one ground tuple of a qualified relation to a subscriber.
type Facts struct {
	Qual  rel.Name // qualified name "R@owner"
	Arity int
	Tuple term.Extern
}

// Inject delivers a new base fact to its owner peer at runtime.
type Inject struct {
	Rel   rel.Name // unqualified: a relation owned by the receiver
	Tuple term.Extern
}

// Install delivers a rule to its host peer at runtime.
type Install struct {
	Rule Rule
}

// Atom is the store-independent form of a located atom.
type Atom struct {
	Rel  rel.Name
	Peer string
	Args term.Extern
}

// Rule is the store-independent form of a located rule.
type Rule struct {
	Head Atom
	Body []Atom
	NeqX term.Extern // tuple of constraint left sides
	NeqY term.Extern // tuple of constraint right sides
}

func (Activate) isPayload() {}
func (Facts) isPayload()    {}
func (Inject) isPayload()   {}
func (Install) isPayload()  {}

// --- encoding ------------------------------------------------------------

func putUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func putString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func putBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

func putBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func putExtern(dst []byte, e term.Extern) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Nodes)))
	for _, n := range e.Nodes {
		dst = append(dst, byte(n.Kind))
		dst = putString(dst, n.Name)
		if n.Kind == term.Comp {
			dst = binary.AppendUvarint(dst, uint64(len(n.Args)))
			for _, a := range n.Args {
				dst = binary.AppendUvarint(dst, uint64(a))
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Roots)))
	for _, r := range e.Roots {
		dst = binary.AppendUvarint(dst, uint64(r))
	}
	return dst
}

func putAtom(dst []byte, a Atom) []byte {
	dst = putString(dst, string(a.Rel))
	dst = putString(dst, a.Peer)
	return putExtern(dst, a.Args)
}

// AppendPayload encodes p after dst and returns the extended slice.
func AppendPayload(dst []byte, p Payload) []byte {
	switch v := p.(type) {
	case Activate:
		dst = append(dst, tagActivate)
		dst = putString(dst, string(v.Rel))
	case Facts:
		dst = append(dst, tagFacts)
		dst = putString(dst, string(v.Qual))
		dst = putUvarint(dst, uint64(v.Arity))
		dst = putExtern(dst, v.Tuple)
	case Inject:
		dst = append(dst, tagInject)
		dst = putString(dst, string(v.Rel))
		dst = putExtern(dst, v.Tuple)
	case Install:
		dst = append(dst, tagInstall)
		dst = putAtom(dst, v.Rule.Head)
		dst = putUvarint(dst, uint64(len(v.Rule.Body)))
		for _, a := range v.Rule.Body {
			dst = putAtom(dst, a)
		}
		dst = putExtern(dst, v.Rule.NeqX)
		dst = putExtern(dst, v.Rule.NeqY)
	default:
		panic(fmt.Sprintf("wire: unencodable payload %T", p))
	}
	return dst
}

// PayloadSize returns the exact encoded size of p in bytes, and whether p
// is a wire payload at all. It is what the runtime charges to the
// per-pair byte counters — the same for a message that stays in-process
// and one that crosses a socket.
func PayloadSize(p any) (int, bool) {
	switch v := p.(type) {
	case Activate:
		return 1 + stringSize(string(v.Rel)), true
	case Facts:
		return 1 + stringSize(string(v.Qual)) + uvarintSize(uint64(v.Arity)) + externSize(v.Tuple), true
	case Inject:
		return 1 + stringSize(string(v.Rel)) + externSize(v.Tuple), true
	case Install:
		n := 1 + atomSize(v.Rule.Head) + uvarintSize(uint64(len(v.Rule.Body)))
		for _, a := range v.Rule.Body {
			n += atomSize(a)
		}
		return n + externSize(v.Rule.NeqX) + externSize(v.Rule.NeqY), true
	default:
		return 0, false
	}
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func externSize(e term.Extern) int {
	n := uvarintSize(uint64(len(e.Nodes)))
	for _, nd := range e.Nodes {
		n += 1 + stringSize(nd.Name)
		if nd.Kind == term.Comp {
			n += uvarintSize(uint64(len(nd.Args)))
			for _, a := range nd.Args {
				n += uvarintSize(uint64(a))
			}
		}
	}
	n += uvarintSize(uint64(len(e.Roots)))
	for _, r := range e.Roots {
		n += uvarintSize(uint64(r))
	}
	return n
}

func atomSize(a Atom) int {
	return stringSize(string(a.Rel)) + stringSize(a.Peer) + externSize(a.Args)
}

// tupleSize is externSize(s.ExternalizeTuple(tuple)), from a walk of the
// store that builds nothing.
func tupleSize(s *term.Store, tuple []term.ID) int {
	nodes, n := 0, 0
	s.WalkExtern(tuple, func(t term.ID) {
		nodes++
		n += 1 + stringSize(s.Name(t))
		if s.Kind(t) == term.Comp {
			n += uvarintSize(uint64(len(s.Args(t))))
		}
	}, func(ref int32) {
		n += uvarintSize(uint64(ref))
	})
	return n + uvarintSize(uint64(nodes)) + uvarintSize(uint64(len(tuple)))
}

// FactsSize is the PayloadSize of Facts{qual, len(tuple),
// s.ExternalizeTuple(tuple)}, a payload never built when the fact goes to a
// peer of the same process: the message carries the tuple's IDs in the store
// both share, and only the byte counters need to know what its wire form
// would have weighed.
func FactsSize(s *term.Store, qual rel.Name, tuple []term.ID) int {
	return 1 + stringSize(string(qual)) + uvarintSize(uint64(len(tuple))) + tupleSize(s, tuple)
}

// AppendFrame encodes f, preceded by its sequence number, after dst.
// Sequence numbers order the frames of one directed node-to-node stream;
// unsequenced frames (Hello, Ack) use seq 0.
func AppendFrame(dst []byte, seq uint64, f Frame) []byte {
	dst = binary.AppendUvarint(dst, seq)
	switch v := f.(type) {
	case Hello:
		dst = append(dst, tagHello)
		dst = putUvarint(dst, uint64(v.Version))
		dst = putString(dst, v.Node)
		dst = putUvarint(dst, v.Boot)
		dst = putUvarint(dst, v.WallMicros)
		dst = putUvarint(dst, v.LastSeq)
		dst = putUvarint(dst, uint64(v.Port))
	case Ack:
		dst = append(dst, tagAck)
		dst = putUvarint(dst, v.Seq)
	case Data:
		dst = append(dst, tagData)
		dst = putUvarint(dst, v.Gen)
		dst = putUvarint(dst, v.Flow)
		dst = putString(dst, v.From)
		dst = putString(dst, v.To)
		dst = AppendPayload(dst, v.Payload)
	case Job:
		dst = append(dst, tagJob)
		dst = putUvarint(dst, v.Gen)
		dst = putString(dst, v.NetText)
		dst = putString(dst, v.Alarms)
		dst = putUvarint(dst, uint64(v.Engine))
		dst = putUvarint(dst, uint64(v.MaxDepth))
		dst = putUvarint(dst, uint64(v.MaxFacts))
		dst = putUvarint(dst, uint64(v.TimeoutMS))
		dst = putBool(dst, v.Trace)
		dst = putUvarint(dst, uint64(len(v.Hosted)))
		for _, h := range v.Hosted {
			dst = putString(dst, h)
		}
		dst = putAssigns(dst, v.Peers)
		dst = putAssigns(dst, v.Nodes)
		dst = putString(dst, v.Driver)
	case JobOK:
		dst = append(dst, tagJobOK)
		dst = putUvarint(dst, v.Gen)
		dst = putString(dst, v.Node)
		dst = putString(dst, v.Err)
	case Poll:
		dst = append(dst, tagPoll)
		dst = putUvarint(dst, v.Gen)
		dst = putUvarint(dst, v.Epoch)
	case Status:
		dst = append(dst, tagStatus)
		dst = putUvarint(dst, v.Gen)
		dst = putUvarint(dst, v.Epoch)
		dst = putUvarint(dst, v.Sent)
		dst = putUvarint(dst, v.Processed)
		dst = putBool(dst, v.Idle)
	case Stop:
		dst = append(dst, tagStop)
		dst = putUvarint(dst, v.Gen)
		dst = putString(dst, v.Err)
	case Done:
		dst = append(dst, tagDone)
		dst = putUvarint(dst, v.Gen)
		dst = putUvarint(dst, v.Sent)
		dst = putUvarint(dst, uint64(len(v.Processed)))
		for _, pc := range v.Processed {
			dst = putString(dst, pc.Peer)
			dst = putUvarint(dst, pc.Count)
		}
		dst = putPairs(dst, v.ByPair)
		dst = putPairs(dst, v.BytesSent)
		dst = putUvarint(dst, uint64(len(v.Extras)))
		for _, kv := range v.Extras {
			dst = putString(dst, kv.Key)
			dst = putUvarint(dst, kv.Val)
		}
		dst = putString(dst, v.Err)
	case Telemetry:
		dst = append(dst, tagTelemetry)
		dst = putUvarint(dst, v.Gen)
		dst = putString(dst, v.Node)
		dst = putUvarint(dst, v.Dropped)
		dst = putUvarint(dst, uint64(len(v.Events)))
		for _, e := range v.Events {
			dst = putString(dst, e.Track)
			dst = putString(dst, e.Name)
			dst = append(dst, e.Ph)
			dst = binary.AppendVarint(dst, e.Wall)
			dst = binary.AppendVarint(dst, e.Dur)
			dst = binary.AppendVarint(dst, e.Value)
			dst = putUvarint(dst, e.ID)
		}
	case SessionJob:
		dst = append(dst, tagSessionJob)
		dst = putUvarint(dst, v.Req)
		dst = putUvarint(dst, uint64(v.Op))
		dst = putString(dst, v.Session)
		dst = putUvarint(dst, v.Index)
		dst = putString(dst, v.NetText)
		dst = putString(dst, v.Engine)
		dst = putUvarint(dst, uint64(v.MaxFacts))
		dst = putUvarint(dst, uint64(v.TimeoutMS))
		dst = putString(dst, v.Alarms)
		dst = putString(dst, v.Frontend)
		dst = putBytes(dst, v.Blob)
	case SessionReply:
		dst = append(dst, tagSessionReply)
		dst = putUvarint(dst, v.Req)
		dst = putUvarint(dst, uint64(v.Code))
		dst = putString(dst, v.Err)
		dst = putUvarint(dst, uint64(v.RetryAfterMS))
		dst = putUvarint(dst, uint64(v.Active))
		dst = putUvarint(dst, uint64(v.Queued))
		dst = putBytes(dst, v.Blob)
	case ReplPull:
		dst = append(dst, tagReplPull)
		dst = putUvarint(dst, v.Nonce)
		dst = putUvarint(dst, v.Last)
		dst = putUvarint(dst, uint64(v.CRC))
		dst = putUvarint(dst, v.Epoch)
		dst = putUvarint(dst, uint64(v.WaitMS))
	case ReplBatch:
		dst = append(dst, tagReplBatch)
		dst = putUvarint(dst, v.Nonce)
		dst = putUvarint(dst, v.Epoch)
		dst = putBool(dst, v.Wipe)
		dst = putUvarint(dst, v.Start)
		dst = putUvarint(dst, v.Last)
		dst = putUvarint(dst, uint64(len(v.Records)))
		for _, rec := range v.Records {
			dst = putBytes(dst, rec)
		}
	default:
		panic(fmt.Sprintf("wire: unencodable frame %T", f))
	}
	return dst
}

func putAssigns(dst []byte, as []Assign) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(as)))
	for _, a := range as {
		dst = putString(dst, a.Key)
		dst = putString(dst, a.Val)
	}
	return dst
}

func putPairs(dst []byte, ps []PairCount) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = putString(dst, p.From)
		dst = putString(dst, p.To)
		dst = putUvarint(dst, p.Count)
	}
	return dst
}

// --- decoding ------------------------------------------------------------

// Frame bodies are read with snapshot.Reader, the repository's one
// bounds-checked uvarint cursor: methods return zero values once an error
// is set, every count is validated against the remaining input, and a
// failure at end of input is "truncated", anywhere else "corrupt".
// DecodeFrame wraps its errors, so errors.Is matches snapshot.ErrTruncated
// and snapshot.ErrCorrupt.

// blob reads a length-prefixed byte slice (nil for an empty blob).
func blob(r *snapshot.Reader) []byte {
	if p := r.Bytes(); len(p) > 0 {
		return p
	}
	return nil
}

func u32(r *snapshot.Reader) uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Failf("%d overflows a 32-bit field", v)
		return 0
	}
	return uint32(v)
}

// extern decodes a term.Extern, re-validating the DAG invariants that
// term.InternalizeTuple would otherwise panic on: every compound argument
// and every root must reference an earlier (already decoded) node, and
// every kind must be one of the three real term kinds.
func extern(r *snapshot.Reader) term.Extern {
	nNodes := r.Count(2) // kind byte + name length byte minimum
	if r.Err() != nil {
		return term.Extern{}
	}
	e := term.Extern{}
	if nNodes > 0 {
		e.Nodes = make([]term.ExternNode, 0, nNodes)
	}
	for i := 0; i < nNodes; i++ {
		kind := term.Kind(r.Byte())
		name := r.String()
		var args []int32
		switch kind {
		case term.Const, term.Var:
		case term.Comp:
			nArgs := r.Count(1)
			if r.Err() != nil {
				return term.Extern{}
			}
			if nArgs == 0 {
				r.Failf("zero-ary compound") // constants have their own kind
				return term.Extern{}
			}
			args = make([]int32, 0, nArgs)
			for j := 0; j < nArgs; j++ {
				a := r.Uvarint()
				if r.Err() != nil {
					return term.Extern{}
				}
				if a >= uint64(i) {
					r.Failf("term node %d refers forward to %d", i, a)
					return term.Extern{}
				}
				args = append(args, int32(a))
			}
		default:
			r.Failf("term kind %d", kind)
			return term.Extern{}
		}
		if r.Err() != nil {
			return term.Extern{}
		}
		e.Nodes = append(e.Nodes, term.ExternNode{Kind: kind, Name: name, Args: args})
	}
	nRoots := r.Count(1)
	if r.Err() != nil {
		return term.Extern{}
	}
	if nRoots > 0 {
		e.Roots = make([]int32, 0, nRoots)
	}
	for i := 0; i < nRoots; i++ {
		v := r.Uvarint()
		if r.Err() != nil {
			return term.Extern{}
		}
		if v >= uint64(len(e.Nodes)) {
			r.Failf("root %d of %d term nodes", v, len(e.Nodes))
			return term.Extern{}
		}
		e.Roots = append(e.Roots, int32(v))
	}
	return e
}

func atom(r *snapshot.Reader) Atom {
	a := Atom{Rel: rel.Name(r.String()), Peer: r.String()}
	a.Args = extern(r)
	return a
}

func payload(r *snapshot.Reader) Payload {
	switch tag := r.Byte(); tag {
	case tagActivate:
		return Activate{Rel: rel.Name(r.String())}
	case tagFacts:
		f := Facts{Qual: rel.Name(r.String())}
		ar := r.Uvarint()
		if ar > 63 { // rel.New rejects arity >= 64; refuse it here too
			r.Failf("arity %d", ar)
			return nil
		}
		f.Arity = int(ar)
		f.Tuple = extern(r)
		return f
	case tagInject:
		in := Inject{Rel: rel.Name(r.String())}
		in.Tuple = extern(r)
		return in
	case tagInstall:
		ru := Rule{Head: atom(r)}
		n := r.Count(1)
		if r.Err() != nil {
			return nil
		}
		for i := 0; i < n; i++ {
			ru.Body = append(ru.Body, atom(r))
			if r.Err() != nil {
				return nil
			}
		}
		ru.NeqX = extern(r)
		ru.NeqY = extern(r)
		if len(ru.NeqX.Roots) != len(ru.NeqY.Roots) {
			r.Failf("%d != %d inequality operands", len(ru.NeqX.Roots), len(ru.NeqY.Roots))
			return nil
		}
		return Install{Rule: ru}
	default:
		r.Fail()
		return nil
	}
}

// DecodeFrame decodes one frame body (as the transport reads it: the
// body of one snapshot frame). It returns the stream sequence number
// and the frame, or an error; it never panics.
func DecodeFrame(b []byte) (uint64, Frame, error) {
	if len(b) > snapshot.MaxFrame {
		return 0, nil, fmt.Errorf("wire: %w: frame of %d bytes exceeds snapshot.MaxFrame", snapshot.ErrCorrupt, len(b))
	}
	r := snapshot.NewReader(b)
	seq := r.Uvarint()
	var f Frame
	switch tag := r.Byte(); tag {
	case tagHello:
		f = Hello{Version: u32(r), Node: r.String(), Boot: r.Uvarint(), WallMicros: r.Uvarint(), LastSeq: r.Uvarint(), Port: u32(r)}
	case tagAck:
		f = Ack{Seq: r.Uvarint()}
	case tagData:
		d := Data{Gen: r.Uvarint(), Flow: r.Uvarint(), From: r.String(), To: r.String()}
		d.Payload = payload(r)
		f = d
	case tagJob:
		j := Job{
			Gen:     r.Uvarint(),
			NetText: r.String(), Alarms: r.String(),
			Engine: u32(r), MaxDepth: u32(r), MaxFacts: u32(r), TimeoutMS: u32(r),
		}
		j.Trace = r.Bool()
		n := r.Count(1)
		for i := 0; i < n && r.Err() == nil; i++ {
			j.Hosted = append(j.Hosted, r.String())
		}
		j.Peers = assigns(r)
		j.Nodes = assigns(r)
		j.Driver = r.String()
		f = j
	case tagJobOK:
		f = JobOK{Gen: r.Uvarint(), Node: r.String(), Err: r.String()}
	case tagPoll:
		f = Poll{Gen: r.Uvarint(), Epoch: r.Uvarint()}
	case tagStatus:
		f = Status{Gen: r.Uvarint(), Epoch: r.Uvarint(), Sent: r.Uvarint(), Processed: r.Uvarint(), Idle: r.Bool()}
	case tagStop:
		f = Stop{Gen: r.Uvarint(), Err: r.String()}
	case tagDone:
		d := Done{Gen: r.Uvarint(), Sent: r.Uvarint()}
		n := r.Count(2)
		for i := 0; i < n && r.Err() == nil; i++ {
			d.Processed = append(d.Processed, PeerCount{Peer: r.String(), Count: r.Uvarint()})
		}
		d.ByPair = pairs(r)
		d.BytesSent = pairs(r)
		n = r.Count(2)
		for i := 0; i < n && r.Err() == nil; i++ {
			d.Extras = append(d.Extras, KV{Key: r.String(), Val: r.Uvarint()})
		}
		d.Err = r.String()
		f = d
	case tagTelemetry:
		t := Telemetry{Gen: r.Uvarint(), Node: r.String(), Dropped: r.Uvarint()}
		n := r.Count(6) // 2 string lengths + phase byte + 3 varints minimum
		for i := 0; i < n && r.Err() == nil; i++ {
			t.Events = append(t.Events, TraceEvent{
				Track: r.String(), Name: r.String(), Ph: r.Byte(),
				Wall: r.Int(), Dur: r.Int(), Value: r.Int(), ID: r.Uvarint(),
			})
		}
		f = t
	case tagSessionJob:
		j := SessionJob{Req: r.Uvarint(), Op: u32(r), Session: r.String(), Index: r.Uvarint()}
		j.NetText = r.String()
		j.Engine = r.String()
		j.MaxFacts = u32(r)
		j.TimeoutMS = u32(r)
		j.Alarms = r.String()
		j.Frontend = r.String()
		j.Blob = blob(r)
		f = j
	case tagSessionReply:
		p := SessionReply{Req: r.Uvarint(), Code: u32(r)}
		p.Err = r.String()
		p.RetryAfterMS = u32(r)
		p.Active = u32(r)
		p.Queued = u32(r)
		p.Blob = blob(r)
		f = p
	case tagReplPull:
		f = ReplPull{Nonce: r.Uvarint(), Last: r.Uvarint(), CRC: u32(r), Epoch: r.Uvarint(), WaitMS: u32(r)}
	case tagReplBatch:
		b := ReplBatch{Nonce: r.Uvarint(), Epoch: r.Uvarint(), Wipe: r.Bool(), Start: r.Uvarint(), Last: r.Uvarint()}
		n := r.Count(1)
		for i := 0; i < n && r.Err() == nil; i++ {
			b.Records = append(b.Records, blob(r))
		}
		f = b
	default:
		r.Fail()
	}
	if err := r.Finish(); err != nil {
		return 0, nil, fmt.Errorf("wire: %w", err)
	}
	return seq, f, nil
}

func assigns(r *snapshot.Reader) []Assign {
	n := r.Count(2)
	var out []Assign
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, Assign{Key: r.String(), Val: r.String()})
	}
	return out
}

func pairs(r *snapshot.Reader) []PairCount {
	n := r.Count(3)
	var out []PairCount
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, PairCount{From: r.String(), To: r.String(), Count: r.Uvarint()})
	}
	return out
}

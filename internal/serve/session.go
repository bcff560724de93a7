package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/parser"
)

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	// ErrExhausted: the session's fact budget is spent; the warm engine
	// state is unusable and the session only accepts GET/DELETE (429).
	ErrExhausted = errors.New("serve: session budget exhausted")
	// ErrClosed: the session was deleted or evicted mid-request (404).
	ErrClosed = errors.New("serve: session closed")
	// ErrOverloaded: the global fact budget or session table cannot admit
	// a new session (503).
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("serve: server draining")
	// ErrReadOnly: the server is a replication follower; mutations are
	// refused until a promote (503).
	ErrReadOnly = errors.New("serve: read-only replica (following a primary)")
	// ErrBadInput: the client sent a net, alarm text or checkpoint the
	// server cannot use (400; SessBad from a pool worker). It only
	// classifies: the error message is the cause's own.
	ErrBadInput = errors.New("serve: bad input")
)

// classed tags an error with a sentinel for errors.Is while keeping the
// wrapped error's message, so a class never changes what a client reads.
type classed struct {
	error
	class error
}

func (e classed) Is(target error) bool { return target == e.class }
func (e classed) Unwrap() error        { return e.error }

// badInput marks err as the client's fault.
func badInput(err error) error { return classed{err, ErrBadInput} }

// errNoSession answers an operation on an ID the table does not hold
// (404, like a session closed mid-request).
var errNoSession error = classed{errors.New("no such session"), ErrClosed}

// ParseEngine maps the wire names onto engines. Empty defaults to dQSQ —
// the engine with a genuinely incremental warm session.
func ParseEngine(name string) (core.Engine, error) {
	switch name {
	case "", "dqsq":
		return core.DQSQ, nil
	case "direct":
		return core.Direct, nil
	case "product":
		return core.Product, nil
	case "naive":
		return core.Naive, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want direct | product | naive | dqsq)", name)
	}
}

// EngineName is the inverse of ParseEngine (Engine.String formats for
// humans, not for the wire).
func EngineName(e core.Engine) string {
	switch e {
	case core.Direct:
		return "direct"
	case core.Product:
		return "product"
	case core.Naive:
		return "naive"
	default:
		return "dqsq"
	}
}

// Session is one streaming diagnosis conversation: a pinned, parsed,
// safety-checked net plus a warm incremental handle. Appends are
// serialized per session by its mutex; metadata reads (State) are safe
// concurrently with an in-flight append.
type Session struct {
	ID      string
	Engine  core.Engine
	Facts   int // reserved per-session fact budget (counts against the global budget)
	Created time.Time
	peers   map[string]bool // net peers, fixed at creation

	lastUsed atomic.Int64 // unix nanoseconds; TTL sweeps and GET read it
	lastSnap atomic.Int64 // unix nanoseconds of the last checkpoint record; 0 = never
	closed   atomic.Bool  // set lock-free by eviction, so the store never waits on an evaluation

	// trace is the session's flight recorder: a ring of its newest
	// evaluation events (per-peer spans, message flows, engine counters)
	// for GET /v1/sessions/{id}/trace. The writer is internally locked,
	// so exporting is safe concurrently with an append in flight.
	trace *obs.ChromeTraceWriter

	mu           sync.Mutex
	inc          *core.Incremental
	alarms       int
	exhausted    bool
	prevKeys     map[string]bool // diagnosis keys of the previous report, for deltas
	prevDerived  int             // cumulative Derived after the previous append (DQSQ)
	prevMessages int             // cumulative Messages after the previous append (DQSQ)

	// wal, when non-nil, receives a record for every acknowledged append
	// and a checkpoint every checkpointEvery of them; a read-only
	// follower's sessions have none. base is the sequence of the
	// session's create or latest checkpoint record — what compaction must
	// keep — and sinceBase counts the changes since (logged appends and
	// the poisoning of the session).
	wal       *serverWAL
	base      atomic.Uint64
	sinceBase int
}

// newSession warms an incremental handle instrumented with two tracer
// consumers: the session's own flight recorder, and (when reg
// is non-nil) a metrics sink folding engine counters into the server
// registry — that is how /metrics gains ddatalog_facts_derived_total,
// dist_messages_total{from,to}, dqsq_sup_tuples,
// diagnosis_unfolding_nodes and the diagnosis_append_engine_seconds
// histogram. Counters accumulate across sessions; gauges report the most
// recently evaluated session.
func newSession(id string, sys *core.System, engine core.Engine, facts int, now time.Time, reg *Metrics) (*Session, error) {
	trace := obs.NewChromeTraceWriter(0)
	tracer := obs.Tracer(trace)
	if reg != nil {
		tracer = obs.Multi(trace, obs.NewMetricsSink(reg))
	}
	inc, err := sys.NewIncremental(engine, core.Options{
		Budget: datalog.Budget{MaxFacts: facts},
		Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	// A DQSQ clone starts with its template's derivations, which no
	// append of this session materialized.
	s := &Session{ID: id, Engine: engine, Facts: facts, Created: now, inc: inc,
		trace: trace, peers: make(map[string]bool), prevDerived: inc.Derived()}
	for _, p := range sys.Peers() {
		s.peers[string(p)] = true
	}
	s.lastUsed.Store(now.UnixNano())
	return s, nil
}

// parseAlarms reads alarm text for this session — the one parse of
// alarms shared by HTTP, pool workers and WAL replay. Unparsable text,
// no alarms at all, and alarms from a peer the net lacks are the
// client's fault, refused before anything is evaluated.
func (s *Session) parseAlarms(text string) (alarm.Seq, error) {
	seq, err := core.ParseAlarms(text)
	if err != nil {
		return nil, badInput(err)
	}
	if len(seq) == 0 {
		return nil, badInput(errors.New("no alarms in request"))
	}
	for _, o := range seq {
		if !s.peers[string(o.Peer)] {
			return nil, badInput(fmt.Errorf("alarm from unknown peer %q", o.Peer))
		}
	}
	return seq, nil
}

// WriteTrace exports the session's trace buffer as Chrome trace-event
// JSON (chrome://tracing, Perfetto). Safe concurrently with appends.
func (s *Session) WriteTrace(w io.Writer) error { return s.trace.WriteJSON(w) }

// System returns the system the session diagnoses.
func (s *Session) System() *core.System { return s.inc.System() }

// Alarms counts the alarms appended over the session's lifetime.
func (s *Session) Alarms() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alarms
}

// Touch records use for TTL accounting.
func (s *Session) Touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// LastUsed returns the last time the session served a request.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Close marks the session dead. Idempotent and lock-free: the store
// calls it under its own lock during eviction, so it must never wait on
// an evaluation in flight. That append finishes normally; later calls
// fail with ErrClosed.
func (s *Session) Close() { s.closed.Store(true) }

// AppendResult is the outcome of one append: the report over the whole
// sequence so far, plus the delta against the previous report.
type AppendResult struct {
	Report  *core.Report
	Added   []string // diagnosis keys new in this report
	Removed []string // diagnosis keys the new alarms ruled out
	Alarms  int      // total alarms appended over the session's lifetime
	// DerivedDelta counts the facts this append materialized: the growth
	// of the cumulative count for the warm DQSQ session, the whole run
	// for the re-evaluating engines. Feeds the
	// diagnosed_facts_materialized_total metric.
	DerivedDelta int
	// MessagesDelta counts the peer messages this append exchanged, on
	// the same cumulative-vs-whole-run split as DerivedDelta. Feeds the
	// diagnosed_messages_total metric (adding the cumulative Report
	// figure every round would double-count all earlier rounds).
	MessagesDelta int
}

// Append feeds alarms to the warm handle and computes the diagnosis of
// the full sequence so far. Budget exhaustion poisons the session
// (ErrExhausted now and on every later call). For the re-evaluating
// engines a timeout leaves the session usable (the next append re-runs
// from scratch); for DQSQ any evaluation failure poisons it too — the
// warm engine may have partially absorbed the queued alarm facts, so no
// later answer would be trustworthy. Input errors always leave the
// session usable.
//
// When the session has a WAL, the append is logged (and, under
// fsync=always, fsynced) before Append returns success — that is the
// durable point: a crash after the HTTP 200 replays the append, a crash
// before it leaves the session exactly as if the append never happened.
// An append that poisons the session schedules a checkpoint, and so does
// every checkpointEvery-th logged one.
func (s *Session) Append(obs []alarm.Obs, timeout time.Duration) (*AppendResult, error) {
	return s.append(obs, timeout, false)
}

// replayAppend re-applies an append record of the log: the record is
// already there, so nothing is logged.
func (s *Session) replayAppend(obs []alarm.Obs, timeout time.Duration) (*AppendResult, error) {
	return s.append(obs, timeout, true)
}

func (s *Session) append(obs []alarm.Obs, timeout time.Duration, replay bool) (*AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed.Load():
		return nil, ErrClosed
	case s.exhausted:
		return nil, ErrExhausted
	}
	rep, err := s.inc.Append(obs, timeout)
	if err != nil {
		switch {
		case errors.Is(err, datalog.ErrBudget), errors.Is(err, core.ErrPoisoned):
			s.poison()
			return nil, fmt.Errorf("%w: %v", ErrExhausted, err)
		case s.Engine == core.DQSQ && timeoutErr(err):
			// First failure: surface the timeout (504) but mark the
			// session exhausted so later appends 429 immediately
			// instead of re-entering the poisoned handle.
			s.poison()
		}
		return nil, err
	}
	if rep.Truncated {
		s.poison()
		return nil, fmt.Errorf("%w: evaluation truncated", ErrExhausted)
	}
	s.alarms += len(obs)

	delta := rep.Derived
	msgDelta := rep.Messages
	if s.Engine == core.DQSQ {
		delta = rep.Derived - s.prevDerived
		msgDelta = rep.Messages - s.prevMessages
	}
	s.prevDerived = rep.Derived
	s.prevMessages = rep.Messages

	keys := make(map[string]bool, len(rep.Diagnoses))
	res := &AppendResult{Report: rep, Alarms: s.alarms, DerivedDelta: delta, MessagesDelta: msgDelta}
	for _, k := range rep.Diagnoses.Keys() {
		keys[k] = true
		if !s.prevKeys[k] {
			res.Added = append(res.Added, k)
		}
	}
	for k := range s.prevKeys {
		if !keys[k] {
			res.Removed = append(res.Removed, k)
		}
	}
	s.prevKeys = keys

	s.sinceBase++
	if s.wal != nil && !replay {
		// Log AFTER the evaluation so only appends that actually landed in
		// the warm engine are replayed. The canonical text round-trips:
		// parsing parser.FormatAlarms(obs) gives obs back.
		if _, err := s.wal.logAppend(s.ID, parser.FormatAlarms(alarm.Seq(obs))); err != nil {
			// The in-memory state absorbed the alarms but the durable log
			// did not: the two have diverged, so no later answer from this
			// session can be trusted across a restart. Poison it.
			s.poison()
			return nil, walAppendError(err)
		}
		if s.sinceBase >= checkpointEvery {
			s.wal.markDue(s)
		}
	}
	return res, nil
}

// poison marks the session exhausted. The failed append is not logged,
// so the poisoning reaches the log only as a checkpoint: one is due now.
func (s *Session) poison() {
	s.exhausted = true
	s.sinceBase++
	if s.wal != nil {
		s.wal.markDue(s)
	}
}

// attachWAL wires the session to the server's WAL.
func (s *Session) attachWAL(w *serverWAL) {
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
}

// State is a point-in-time snapshot for GET responses.
type State struct {
	ID        string
	Engine    core.Engine
	Facts     int
	Created   time.Time
	LastUsed  time.Time
	LastSnap  time.Time // zero if never checkpointed
	Alarms    int
	Exhausted bool
	Seq       alarm.Seq
	Report    *core.Report // nil before the first append
}

// Snapshot reads the session state. It takes the session mutex, so it
// serializes against appends (an evaluation in flight delays it).
func (s *Session) Snapshot() (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return State{}, ErrClosed
	}
	st := State{
		ID:        s.ID,
		Engine:    s.Engine,
		Facts:     s.Facts,
		Created:   s.Created,
		LastUsed:  s.LastUsed(),
		Alarms:    s.alarms,
		Exhausted: s.exhausted,
		Seq:       s.inc.Seq(),
		Report:    s.inc.Report(),
	}
	if ns := s.lastSnap.Load(); ns != 0 {
		st.LastSnap = time.Unix(0, ns)
	}
	return st, nil
}

// timeoutErr reports whether err is an evaluation timeout (mapped to 504).
func timeoutErr(err error) bool { return errors.Is(err, dist.ErrTimeout) }

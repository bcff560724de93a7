// Package obs is the observability substrate of the evaluation stack: a
// stdlib-only tracing interface threaded through the peer runtime
// (internal/dist), the distributed Datalog engine (internal/ddatalog),
// the dQSQ rewriter (internal/dqsq) and the online supervisor
// (internal/diagnosis).
//
// The paper's central claim (Theorem 4) is about how much the evaluators
// materialize; this package is how a run is *measured*: every peer
// activation becomes a span, every message hop a flow-event pair, every
// engine counter a counter sample. Two consumers are provided:
//
//   - ChromeTraceWriter records the event stream and exports it as Chrome
//     trace-event JSON (loadable in chrome://tracing or Perfetto).
//   - MetricsSink folds counter/gauge/span events into a metrics registry
//     (internal/serve's /metrics endpoint).
//
// The default tracer is Nop, and the contract the hot paths rely on is
// that the Nop path allocates nothing: all event arguments are value
// types, Begin returns a Span by value, and call sites guard any
// name-formatting behind Enabled().
package obs

import "time"

// Span is one open duration event on a logical track. It is a plain
// value: Begin fills it, End reports it back to the tracer that created
// it. The zero Span (from the Nop tracer) ends as a no-op.
type Span struct {
	tr    Tracer
	Track string
	Name  string
	Start time.Time
}

// End closes the span.
func (s Span) End() {
	if s.tr != nil {
		s.tr.End(s)
	}
}

// Tracer receives the event stream of an evaluation. Implementations
// must be safe for concurrent use: events arrive from every peer
// goroutine of a running network.
//
// Tracks are logical rows — a peer ID, or a component name such as
// "ddatalog" — and map onto threads in the Chrome trace export. Counter
// and Gauge names that look like Prometheus series (optionally with a
// {label="..."} suffix) are folded into /metrics by MetricsSink; names
// containing spaces are display-only and skipped by it.
type Tracer interface {
	// Enabled reports whether the tracer records anything. Call sites use
	// it to guard event-name formatting; events may be emitted regardless.
	Enabled() bool
	// Begin opens a duration span on a track.
	Begin(track, name string) Span
	// End closes a span begun by Begin. Most callers use Span.End.
	End(s Span)
	// Instant emits a zero-duration event.
	Instant(track, name string)
	// Counter emits a monotone counter increment (delta, not total).
	Counter(track, name string, delta int64)
	// Gauge emits a point-in-time level sample (absolute value).
	Gauge(track, name string, value int64)
	// FlowBegin marks the sending half of a cross-track hop (a message
	// leaving a peer); id correlates it with the matching FlowEnd.
	FlowBegin(track, name string, id uint64)
	// FlowEnd marks the receiving half of the hop.
	FlowEnd(track, name string, id uint64)
}

// Nop is the default tracer: it records nothing and allocates nothing.
var Nop Tracer = nop{}

type nop struct{}

func (nop) Enabled() bool                    { return false }
func (nop) Begin(string, string) Span        { return Span{} }
func (nop) End(Span)                         {}
func (nop) Instant(string, string)           {}
func (nop) Counter(string, string, int64)    {}
func (nop) Gauge(string, string, int64)      {}
func (nop) FlowBegin(string, string, uint64) {}
func (nop) FlowEnd(string, string, uint64)   {}

// Or returns t, or Nop when t is nil — the idiom for optional Tracer
// fields in options structs.
func Or(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// Multi fans events out to several tracers (e.g. a ChromeTraceWriter and
// a MetricsSink side by side). Nil and Nop members are dropped; with no
// live member the result is Nop itself.
func Multi(tracers ...Tracer) Tracer {
	var live multi
	for _, t := range tracers {
		if t == nil || t == Nop {
			continue
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return &live
}

// multi is used through a pointer, so the Span that Begin returns holds
// it without boxing a slice header: a span through Multi allocates
// nothing.
type multi []Tracer

func (m *multi) Enabled() bool {
	for _, t := range *m {
		if t.Enabled() {
			return true
		}
	}
	return false
}

func (m *multi) Begin(track, name string) Span {
	return Span{tr: m, Track: track, Name: name, Start: time.Now()}
}

func (m *multi) End(s Span) {
	for _, t := range *m {
		t.End(s)
	}
}

func (m *multi) Instant(track, name string) {
	for _, t := range *m {
		t.Instant(track, name)
	}
}

func (m *multi) Counter(track, name string, delta int64) {
	for _, t := range *m {
		t.Counter(track, name, delta)
	}
}

func (m *multi) Gauge(track, name string, value int64) {
	for _, t := range *m {
		t.Gauge(track, name, value)
	}
}

func (m *multi) FlowBegin(track, name string, id uint64) {
	for _, t := range *m {
		t.FlowBegin(track, name, id)
	}
}

func (m *multi) FlowEnd(track, name string, id uint64) {
	for _, t := range *m {
		t.FlowEnd(track, name, id)
	}
}

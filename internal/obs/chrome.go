package obs

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
)

// ChromeTraceWriter is a Tracer that records the event stream in memory
// and exports it in the Chrome trace-event JSON format, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Each track becomes a named thread of one synthetic process; spans are
// complete ("X") events, message hops are flow ("s"/"f") event pairs,
// counters and gauges are counter ("C") samples. A bounded writer is a
// flight recorder: a ring holding the newest events, where each event
// recorded past the bound overwrites the oldest one and is counted as
// dropped, so a long-lived session's trace costs bounded memory and
// always shows its latest work. A bounded ring is allocated whole with
// its first event; from then on recording allocates only on a track's
// first event.
type ChromeTraceWriter struct {
	mu      sync.Mutex
	start   time.Time
	max     int // ring size; negative keeps every event
	dropped int64
	// events gets room for max events with the first one recorded; once
	// full it is a ring whose oldest event sits at next. An unbounded
	// writer grows it by append.
	events []chromeEvent
	next   int
	// tracks interns track names: an event holds its track's index.
	// Tracks are few (a net's peers and the layers' fixed names), so the
	// table stays small; it empties with the ring.
	tracks   []string
	trackIDs map[string]int
	// overwritten carries the deltas of counter events the ring
	// overwrote, per (track, name), so the export's running totals still
	// count from the start of the trace.
	overwritten map[counterKey]int64
}

// DefaultMaxEvents is the ring size NewChromeTraceWriter(0) gets. The
// one-alarm appends of a 6-peer pipeline session record from a few dozen
// to a few thousand events: the ring holds a typical append whole and
// the tail of a heavy one.
const DefaultMaxEvents = 4096

// chromeEvent is one recorded event in 32 bytes; the JSON field set
// depends on its phase. meta packs the timestamp (µs since trace start)
// above the track index and the phase code: ts<<16 | track<<3 | phase.
type chromeEvent struct {
	name string
	arg  int64 // X: duration in µs; C: delta; G: level; s, f: flow id
	meta int64
}

// phases are the recorded event kinds, indexed by their 3-bit code.
const phases = "XiCGsf"

// maxTracks is how many track indexes meta holds (13 bits). Tracks past
// it are recorded on the last one.
const maxTracks = 1 << 13

func (ev chromeEvent) ts() int64  { return ev.meta >> 16 }
func (ev chromeEvent) track() int { return int(ev.meta>>3) & (maxTracks - 1) }
func (ev chromeEvent) ph() byte   { return phases[ev.meta&7] }

// counterKey names one counter series of one track.
type counterKey struct {
	track int
	name  string
}

// NewChromeTraceWriter returns an empty trace buffer keeping the newest
// maxEvents events (0 means DefaultMaxEvents, negative keeps every
// event). A bounded buffer takes its whole ring with the first event.
func NewChromeTraceWriter(maxEvents int) *ChromeTraceWriter {
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	return &ChromeTraceWriter{start: time.Now(), max: maxEvents,
		trackIDs: make(map[string]int), overwritten: make(map[counterKey]int64)}
}

// Enabled reports true: call sites should format real event names.
func (w *ChromeTraceWriter) Enabled() bool { return true }

// record stores one event of phase ph (a byte of phases) at time t.
func (w *ChromeTraceWriter) record(track, name string, ph byte, t time.Time, arg int64) {
	ts := t.Sub(w.start).Microseconds()
	code := int64(strings.IndexByte(phases, ph))
	w.mu.Lock()
	id, ok := w.trackIDs[track]
	if !ok {
		id = min(len(w.tracks), maxTracks-1)
		if len(w.tracks) < maxTracks {
			w.tracks = append(w.tracks, track)
			w.trackIDs[track] = id
		}
	}
	ev := chromeEvent{name: name, arg: arg, meta: ts<<16 | int64(id)<<3 | code}
	if w.max < 0 || len(w.events) < w.max {
		if w.events == nil && w.max > 0 {
			w.events = make([]chromeEvent, 0, w.max)
		}
		w.events = append(w.events, ev)
		w.mu.Unlock()
		return
	}
	old := &w.events[w.next]
	if old.ph() == 'C' {
		w.overwritten[counterKey{old.track(), old.name}] += old.arg
	}
	*old = ev
	if w.next++; w.next == len(w.events) {
		w.next = 0
	}
	w.dropped++
	w.mu.Unlock()
}

// Begin opens a span; nothing is recorded until End.
func (w *ChromeTraceWriter) Begin(track, name string) Span {
	return Span{tr: w, Track: track, Name: name, Start: time.Now()}
}

// End records the completed span as an "X" event.
func (w *ChromeTraceWriter) End(s Span) {
	if s.Start.IsZero() {
		return
	}
	w.record(s.Track, s.Name, 'X', s.Start, time.Since(s.Start).Microseconds())
}

// Instant records a zero-duration event.
func (w *ChromeTraceWriter) Instant(track, name string) {
	w.record(track, name, 'i', time.Now(), 0)
}

// Counter records a counter increment. The export accumulates deltas per
// (track, name) so the rendered counter track shows the running total.
func (w *ChromeTraceWriter) Counter(track, name string, delta int64) {
	w.record(track, name, 'C', time.Now(), delta)
}

// Gauge records a level sample, exported as an absolute counter value.
func (w *ChromeTraceWriter) Gauge(track, name string, value int64) {
	// ph 'G' is internal shorthand; exported as a "C" sample holding the
	// absolute value rather than an accumulated delta.
	w.record(track, name, 'G', time.Now(), value)
}

// FlowBegin records the sending half of a hop.
func (w *ChromeTraceWriter) FlowBegin(track, name string, id uint64) {
	w.record(track, name, 's', time.Now(), int64(id))
}

// FlowEnd records the receiving half of a hop.
func (w *ChromeTraceWriter) FlowEnd(track, name string, id uint64) {
	w.record(track, name, 'f', time.Now(), int64(id))
}

// Len reports how many events are buffered.
func (w *ChromeTraceWriter) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.events)
}

// Event is one recorded trace event in wall-clock form: timestamps are
// microseconds since the Unix epoch on the recording process's clock,
// rather than microseconds since trace start. It is the unit of
// cross-process trace shipping and of cluster-timeline merging.
type Event struct {
	Track string
	Name  string
	Ph    byte  // X, i, C, G, s, f
	Wall  int64 // event time, µs since the Unix epoch (recorder's clock)
	Dur   int64 // X only
	Value int64 // C (delta) and G (absolute level) only
	ID    uint64
}

// orderedLocked returns the buffered events oldest first: a ring that
// has wrapped starts at next. Caller holds w.mu.
func (w *ChromeTraceWriter) orderedLocked() []chromeEvent {
	return slices.Concat(w.events[w.next:], w.events[:w.next])
}

func (w *ChromeTraceWriter) exportLocked() []Event {
	base := w.start.UnixMicro()
	events := w.orderedLocked()
	out := make([]Event, len(events))
	for i, ev := range events {
		out[i] = Event{Track: w.tracks[ev.track()], Name: ev.name, Ph: ev.ph(), Wall: base + ev.ts()}
		switch ev.ph() {
		case 'X':
			out[i].Dur = ev.arg
		case 'C', 'G':
			out[i].Value = ev.arg
		case 's', 'f':
			out[i].ID = uint64(ev.arg)
		}
	}
	return out
}

// Events snapshots the buffered events in wall-clock form, oldest
// first, without clearing them.
func (w *ChromeTraceWriter) Events() []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.exportLocked()
}

// DrainEvents returns the buffered events in wall-clock form, oldest
// first, and empties the ring, so what is recorded next overwrites
// nothing until the ring fills again. The cumulative dropped count is
// returned alongside and keeps accumulating across drains. A cluster
// member drains once per round and ships the batch to the driver.
func (w *ChromeTraceWriter) DrainEvents() (events []Event, dropped int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	events = w.exportLocked()
	w.events, w.next = w.events[:0], 0
	w.tracks = w.tracks[:0]
	clear(w.trackIDs)
	clear(w.overwritten)
	return events, w.dropped
}

// Dropped reports how many events the ring overwrote.
func (w *ChromeTraceWriter) Dropped() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// jsonEvent is the wire form of one trace event.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   *uint64        `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level Chrome trace JSON object.
type traceFile struct {
	TraceEvents     []jsonEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteJSON renders the buffered trace, oldest event first, with the
// dropped count as otherData.droppedEvents. The writer stays usable — a
// session trace can be exported mid-flight and again later.
func (w *ChromeTraceWriter) WriteJSON(out io.Writer) error {
	w.mu.Lock()
	events := w.orderedLocked()
	tracks := slices.Clone(w.tracks)
	totals := maps.Clone(w.overwritten)
	dropped := w.dropped
	w.mu.Unlock()

	// Tracks become threads in the order the kept events first name them.
	const pid = 1
	file := traceFile{DisplayTimeUnit: "ms", TraceEvents: []jsonEvent{
		{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": "diagnosis"}},
	}}
	tids := make(map[int]int)
	for _, ev := range events {
		if _, ok := tids[ev.track()]; !ok {
			tids[ev.track()] = len(tids) + 1
			file.TraceEvents = append(file.TraceEvents, jsonEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: len(tids),
				Args: map[string]any{"name": tracks[ev.track()]},
			})
		}
	}

	// Counter deltas accumulate per (track, name), from what the ring
	// overwrote, so the exported samples form a running total; gauges
	// pass through as absolute levels.
	for _, ev := range events {
		je := jsonEvent{Name: ev.name, TS: ev.ts(), PID: pid, TID: tids[ev.track()]}
		switch ev.ph() {
		case 'X':
			dur := ev.arg
			je.Ph = "X"
			je.Dur = &dur
		case 'i':
			je.Ph = "i"
			je.Args = map[string]any{}
		case 'C':
			k := counterKey{ev.track(), ev.name}
			totals[k] += ev.arg
			je.Ph = "C"
			je.Args = map[string]any{"value": totals[k]}
		case 'G':
			je.Ph = "C"
			je.Args = map[string]any{"value": ev.arg}
		case 's', 'f':
			id := uint64(ev.arg)
			je.Ph = string(ev.ph())
			je.Cat = "msg"
			je.ID = &id
			if ev.ph() == 'f' {
				je.BP = "e" // bind to the enclosing slice's end
			}
		}
		file.TraceEvents = append(file.TraceEvents, je)
	}
	if dropped > 0 {
		file.OtherData = map[string]any{"droppedEvents": dropped}
	}

	enc := json.NewEncoder(out)
	return enc.Encode(file)
}

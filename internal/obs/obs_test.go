package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestNopZeroAllocs is the hot-path contract: the default tracer must be
// free. Every event kind the dist/ddatalog hot paths emit is exercised.
func TestNopZeroAllocs(t *testing.T) {
	tr := Nop
	if n := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("Nop claims enabled")
		}
		sp := tr.Begin("p1", "handle")
		tr.FlowBegin("p1", "msg", 7)
		tr.FlowEnd("p2", "msg", 7)
		tr.Counter("ddatalog", "ddatalog_facts_derived_total", 1)
		tr.Gauge("ddatalog", "ddatalog_pending_delta", 3)
		tr.Instant("p1", "install")
		sp.End()
	}); n != 0 {
		t.Fatalf("Nop tracer allocates %v per op, want 0", n)
	}
}

// TestRingZeroAllocs: once a bounded writer's ring has filled, recording
// overwrites in place, so a served session's trace costs no allocation
// per event — through Multi too, as sessions record (trace plus metrics).
func TestRingZeroAllocs(t *testing.T) {
	w := NewChromeTraceWriter(64)
	tr := Multi(w, NewChromeTraceWriter(64))
	emit := func() {
		sp := tr.Begin("p1", "handle wire.Facts")
		tr.FlowBegin("p1", "msg", 7)
		tr.FlowEnd("p2", "msg", 7)
		tr.Counter("ddatalog", "ddatalog_facts_derived_total", 1)
		tr.Gauge("diagnosis", "diagnosis_unfolding_nodes", 3)
		tr.Instant("p1", "install")
		sp.End()
	}
	for w.Dropped() == 0 {
		emit()
	}
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Fatalf("recording into a full ring allocates %v per op, want 0", n)
	}
	if w.Len() != 64 {
		t.Fatalf("ring holds %d events, want 64", w.Len())
	}
}

// TestChromeEventRecord pins what the ring holds per event: at most 32
// bytes, the whole ring taken with the first event, and every field of an
// event surviving the packing of its track, phase and time into one word.
func TestChromeEventRecord(t *testing.T) {
	if size := unsafe.Sizeof(chromeEvent{}); size > 32 {
		t.Fatalf("a ring record takes %d bytes, want at most 32", size)
	}
	before := time.Now().UnixMicro()
	w := NewChromeTraceWriter(0)
	sp := w.Begin("p1", "handle")
	w.Counter("ddatalog", "derived", 5)
	w.Gauge("p2", "sup tuples", -3)
	w.FlowBegin("p1", "msg", 1<<40)
	w.FlowEnd("p2", "msg", 1<<40)
	w.Instant("ddatalog", "install")
	sp.End()
	after := time.Now().UnixMicro()
	if c := cap(w.events); c != DefaultMaxEvents {
		t.Fatalf("ring capacity %d after the first events, want %d", c, DefaultMaxEvents)
	}
	if len(w.tracks) != 3 {
		t.Fatalf("tracks %v, want the three recorded", w.tracks)
	}
	var got []string
	for _, ev := range w.Events() {
		got = append(got, fmt.Sprintf("%s/%s/%c/%d/%d", ev.Track, ev.Name, ev.Ph, ev.Value, ev.ID))
		if ev.Wall < before-1 || ev.Wall > after+1 {
			t.Fatalf("event %s at %d µs, outside its recording [%d, %d]", ev.Name, ev.Wall, before, after)
		}
	}
	want := "ddatalog/derived/C/5/0 p2/sup tuples/G/-3/0 p1/msg/s/0/1099511627776 " +
		"p2/msg/f/0/1099511627776 ddatalog/install/i/0/0 p1/handle/X/0/0"
	if strings.Join(got, " ") != want {
		t.Fatalf("events\n%s\nwant\n%s", strings.Join(got, " "), want)
	}
}

// TestMultiDropsNop checks that Multi collapses to its live members.
func TestMultiDropsNop(t *testing.T) {
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Fatal("empty Multi is not Nop")
	}
	w := NewChromeTraceWriter(0)
	if Multi(nil, Nop, w) != Tracer(w) {
		t.Fatal("single live member not unwrapped")
	}
	m := Multi(w, NewChromeTraceWriter(0))
	if !m.Enabled() {
		t.Fatal("multi of enabled tracers not enabled")
	}
	m.Counter("t", "c_total", 2)
	if w.Len() != 1 {
		t.Fatalf("fan-out missed first member: %d events", w.Len())
	}
	sp := m.Begin("t", "s")
	sp.End()
	if w.Len() != 2 {
		t.Fatalf("span fan-out missed: %d events", w.Len())
	}
}

func decodeTrace(t *testing.T, w *ChromeTraceWriter) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return file
}

func traceEvents(t *testing.T, file map[string]any) []map[string]any {
	t.Helper()
	raw, ok := file["traceEvents"].([]any)
	if !ok {
		t.Fatalf("no traceEvents array: %v", file)
	}
	out := make([]map[string]any, len(raw))
	for i, e := range raw {
		out[i] = e.(map[string]any)
	}
	return out
}

func TestChromeTraceWriterExport(t *testing.T) {
	w := NewChromeTraceWriter(0)
	sp := w.Begin("p1", "handle msgFacts")
	w.FlowBegin("p1", "msg", 1)
	w.FlowEnd("p2", "msg", 1)
	w.Counter("p1", "c_total", 2)
	w.Counter("p1", "c_total", 3)
	w.Gauge("p2", "level", 9)
	w.Instant("p2", "install")
	time.Sleep(time.Millisecond)
	sp.End()

	events := traceEvents(t, decodeTrace(t, w))
	byPhase := map[string][]map[string]any{}
	for _, e := range events {
		byPhase[e["ph"].(string)] = append(byPhase[e["ph"].(string)], e)
	}
	// Metadata: one process_name plus one thread_name per track (p1, p2).
	if len(byPhase["M"]) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(byPhase["M"]))
	}
	if len(byPhase["X"]) != 1 || byPhase["X"][0]["name"] != "handle msgFacts" {
		t.Fatalf("span events: %v", byPhase["X"])
	}
	if dur := byPhase["X"][0]["dur"].(float64); dur < 500 {
		t.Fatalf("span dur = %vµs, want >= 500", dur)
	}
	if len(byPhase["s"]) != 1 || len(byPhase["f"]) != 1 {
		t.Fatalf("flow events: s=%d f=%d", len(byPhase["s"]), len(byPhase["f"]))
	}
	if byPhase["f"][0]["bp"] != "e" || byPhase["s"][0]["id"].(float64) != 1 {
		t.Fatalf("flow fields: %v", byPhase["f"][0])
	}
	// Counter deltas accumulate (2 then 5); the gauge stays absolute.
	var counterVals []float64
	for _, e := range byPhase["C"] {
		counterVals = append(counterVals, e["args"].(map[string]any)["value"].(float64))
	}
	if len(counterVals) != 3 || counterVals[0] != 2 || counterVals[1] != 5 || counterVals[2] != 9 {
		t.Fatalf("counter samples = %v, want [2 5 9]", counterVals)
	}
	if len(byPhase["i"]) != 1 {
		t.Fatalf("instant events = %d", len(byPhase["i"]))
	}
}

// TestChromeTraceWriterBound pins the flight recorder: a bounded writer
// keeps its newest events, oldest first, and counts each one it
// overwrote; counter samples still total from the start of the trace.
func TestChromeTraceWriterBound(t *testing.T) {
	w := NewChromeTraceWriter(3)
	w.Counter("t", "c_total", 2)
	w.Counter("t", "c_total", 3)
	for _, name := range []string{"e0", "e1"} {
		w.Instant("t", name)
	}
	w.Counter("t", "c_total", 4)
	if w.Len() != 3 || w.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", w.Len(), w.Dropped())
	}
	var kept []string
	for _, ev := range w.Events() {
		kept = append(kept, ev.Name)
	}
	if got := strings.Join(kept, " "); got != "e0 e1 c_total" {
		t.Fatalf("kept events %q, want \"e0 e1 c_total\"", got)
	}

	file := decodeTrace(t, w)
	other, ok := file["otherData"].(map[string]any)
	if !ok || other["droppedEvents"].(float64) != 2 {
		t.Fatalf("droppedEvents missing: %v", file["otherData"])
	}
	var exported []string
	for _, e := range traceEvents(t, file) {
		switch e["ph"] {
		case "i":
			exported = append(exported, e["name"].(string))
		case "C":
			// The overwritten deltas 2 and 3 still count: 2+3+4.
			exported = append(exported, fmt.Sprint(e["args"].(map[string]any)["value"]))
		}
	}
	if got := strings.Join(exported, " "); got != "e0 e1 9" {
		t.Fatalf("exported %q, want \"e0 e1 9\"", got)
	}
}

// fakeRegistry records what the sink forwards.
type fakeRegistry struct {
	counters map[string]int64
	gauges   map[string]int64
	observed map[string]int
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{
		counters: map[string]int64{},
		gauges:   map[string]int64{},
		observed: map[string]int{},
	}
}

func (r *fakeRegistry) Add(name string, delta int64)         { r.counters[name] += delta }
func (r *fakeRegistry) SetGauge(name string, v int64)        { r.gauges[name] = v }
func (r *fakeRegistry) Observe(name string, d time.Duration) { r.observed[name]++ }

func TestMetricsSink(t *testing.T) {
	reg := newFakeRegistry()
	sink := NewMetricsSink(reg)
	sink.Counter("dist", `dist_messages_total{from="p1",to="p2"}`, 4)
	sink.Counter("dist", `dist_messages_total{from="p1",to="p2"}`, 2)
	sink.Counter("ddatalog", "derived trans@p1", 9) // display-only: has a space
	sink.Gauge("diagnosis", "diagnosis_unfolding_nodes", 11)
	sink.Gauge("dqsq", "sup p1", 3) // display-only
	sp := sink.Begin("diagnosis", "append.v1")
	sp.End()
	sink.Begin("p1", "handle").End() // unconfigured track: no histogram

	if got := reg.counters[`dist_messages_total{from="p1",to="p2"}`]; got != 6 {
		t.Fatalf("pair counter = %d, want 6", got)
	}
	if len(reg.counters) != 1 {
		t.Fatalf("display-only counter leaked into registry: %v", reg.counters)
	}
	if reg.gauges["diagnosis_unfolding_nodes"] != 11 || len(reg.gauges) != 1 {
		t.Fatalf("gauges = %v", reg.gauges)
	}
	if reg.observed["diagnosis_append_engine_seconds"] != 1 || len(reg.observed) != 1 {
		t.Fatalf("observed = %v", reg.observed)
	}
}

func TestMetricName(t *testing.T) {
	for name, want := range map[string]bool{
		"ddatalog_facts_derived_total":         true,
		`dist_messages_total{from="a",to="b"}`: true,
		"diagnosis_unfolding_nodes":            true,
		"derived trans@p1":                     false,
		"sup p1":                               false,
		"":                                     false,
		"9starts_with_digit":                   false,
		"unclosed{label=\"x\"":                 false,
	} {
		if got := MetricName(name); got != want {
			t.Errorf("MetricName(%q) = %v, want %v", name, got, want)
		}
	}
}

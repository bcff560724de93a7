package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/parser"
)

// TestMetricsWriteTextGolden pins the exposition format: plain counters,
// func gauges and settable levels interleaved in one sorted block
// (labeled series sort after their plain siblings), then histograms as
// cumulative _bucket/_sum/_count.
func TestMetricsWriteTextGolden(t *testing.T) {
	m := NewMetrics()
	m.Add("ddatalog_facts_derived_total", 40)
	m.Add("ddatalog_facts_derived_total", 2)
	m.Add(`dist_messages_total{from="p1",to="p2"}`, 7)
	m.Gauge("diagnosed_sessions_active", func() int64 { return 3 })
	m.GaugeFloat("go_gc_pause_seconds", func() float64 { return 0.125 })
	m.SetGauge("diagnosis_unfolding_nodes", 19)
	m.SetGauge("diagnosis_unfolding_nodes", 11) // levels overwrite
	m.Observe("h_seconds", 3*time.Millisecond)
	m.Observe("h_seconds", 2*time.Second)

	var buf bytes.Buffer
	m.WriteText(&buf)
	want := `ddatalog_facts_derived_total 42
diagnosed_sessions_active 3
diagnosis_unfolding_nodes 11
dist_messages_total{from="p1",to="p2"} 7
go_gc_pause_seconds 0.125
h_seconds_bucket{le="0.001"} 0
h_seconds_bucket{le="0.005"} 1
h_seconds_bucket{le="0.025"} 1
h_seconds_bucket{le="0.1"} 1
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="1"} 1
h_seconds_bucket{le="5"} 2
h_seconds_bucket{le="30"} 2
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 2.003
h_seconds_count 2
`
	if got := buf.String(); got != want {
		t.Fatalf("WriteText mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRuntimeGaugesExported: every server /metrics scrape carries the Go
// runtime health gauges, live-sampled, plus the trace-drop counter.
func TestRuntimeGaugesExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, createRequest{Net: exampleNetText(t)})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, name := range []string{"go_goroutines ", "go_heap_bytes ", "go_gc_pause_seconds ", "trace_events_dropped_total "} {
		if !strings.Contains(text, "\n"+name) && !strings.HasPrefix(text, name) {
			t.Errorf("/metrics missing %s", strings.TrimSpace(name))
		}
	}
	if got := metricValue(t, ts, "go_goroutines"); got <= 0 {
		t.Errorf("go_goroutines = %d, want > 0", got)
	}
	if got := metricValue(t, ts, "go_heap_bytes"); got <= 0 {
		t.Errorf("go_heap_bytes = %d, want > 0", got)
	}
}

// TestEngineSeriesExported drives a session end to end and checks the
// engine-level series the tracer feeds into /metrics.
func TestEngineSeriesExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	for _, a := range quickstartAlarms {
		var resp appendResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms",
			appendRequest{Alarms: a}, &resp); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}

	// dqsq_subqueries_total is not among them: a session's appends open no
	// subquery, the standing query's rules came with the net's template.
	for _, name := range []string{
		"ddatalog_facts_derived_total",
		"dqsq_sup_tuples",
		"diagnosis_unfolding_nodes",
	} {
		if got := metricValue(t, ts, name); got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}
	if got := metricValue(t, ts, "diagnosis_append_engine_seconds_count"); got != int64(len(quickstartAlarms)) {
		t.Errorf("diagnosis_append_engine_seconds_count = %d, want %d", got, len(quickstartAlarms))
	}

	// At least one per-channel message series, and the channel totals must
	// agree with the aggregate message counter.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	pairTotal := int64(0)
	pairs := 0
	byteTotal := int64(0)
	bytePairs := 0
	for _, line := range strings.Split(body.String(), "\n") {
		msgs := strings.HasPrefix(line, "dist_messages_total{")
		if !msgs && !strings.HasPrefix(line, "dist_bytes_total{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad series line %q", line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if msgs {
			pairs++
			pairTotal += v
		} else {
			bytePairs++
			byteTotal += v
		}
	}
	if pairs == 0 {
		t.Fatal("no dist_messages_total{from,to} series exported")
	}
	if agg := metricValue(t, ts, "diagnosed_messages_total"); pairTotal != agg {
		t.Errorf("sum of per-channel series = %d, diagnosed_messages_total = %d", pairTotal, agg)
	}
	// Every channel that carried a message must also report a positive
	// byte count: a tuple on the wire is never free.
	if bytePairs != pairs {
		t.Errorf("dist_bytes_total has %d series, dist_messages_total has %d", bytePairs, pairs)
	}
	if byteTotal <= pairTotal {
		t.Errorf("dist_bytes_total sum = %d, want > message count %d (every message is >1 byte)",
			byteTotal, pairTotal)
	}
}

// TestTraceEndpoint checks GET /v1/sessions/{id}/trace returns loadable
// Chrome trace-event JSON with spans and message-flow events.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	var resp appendResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms",
		appendRequest{Alarms: quickstartAlarms[0]}, &resp); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}

	file := getTrace(t, ts, sess.ID)
	spans, flows := 0, 0
	for _, e := range file.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "s":
			flows++
		}
	}
	if spans == 0 || flows == 0 {
		t.Fatalf("trace has %d spans, %d flow events; want both > 0", spans, flows)
	}

	if r2, err := http.Get(ts.URL + "/v1/sessions/nope/trace"); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("trace of unknown session: status %d", r2.StatusCode)
		}
	}

	// A 15-alarm pipeline session outgrows the ring (by about 2 900
	// events): its trace reports the overwritten events and still holds
	// the whole of the last append, whose span encloses every message hop
	// that survived.
	netText, alarms := pipelineSession(15)
	pipe := createSession(t, ts, createRequest{Net: netText})
	for _, a := range alarms {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+pipe.ID+"/alarms",
			appendRequest{Alarms: a}, &resp); code != http.StatusOK {
			t.Fatalf("pipeline append %q: status %d", a, code)
		}
	}
	file = getTrace(t, ts, pipe.ID)
	if file.OtherData.DroppedEvents <= 0 {
		t.Fatalf("otherData.droppedEvents = %d after 15 pipeline appends, want > 0", file.OtherData.DroppedEvents)
	}
	lastEnd, lastFlow := int64(-1), int64(-1)
	for _, e := range file.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "append (1 alarms)":
			lastEnd = max(lastEnd, e.TS+e.Dur)
		case e.Ph == "s" || e.Ph == "f":
			lastFlow = max(lastFlow, e.TS)
		}
	}
	if lastEnd < 0 || lastFlow < 0 || lastEnd < lastFlow {
		t.Fatalf("last append span ends at %d, last message hop at %d: the trace lost the last append", lastEnd, lastFlow)
	}

	// Exporting while an append records into the same ring: every export
	// is a whole, valid trace (and the race detector watches the ring).
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := createSession(t, ts, createRequest{Net: netText})
		for _, a := range alarms[:3] {
			if code, body := rawDo(t, "POST", ts.URL+"/v1/sessions/"+next.ID+"/alarms", `{"alarms": "`+a+`"}`); code != http.StatusOK {
				t.Errorf("concurrent append %q: status %d %s", a, code, body)
				return
			}
		}
	}()
	for exporting := true; exporting; {
		select {
		case <-done:
			exporting = false
		default:
		}
		getTrace(t, ts, pipe.ID)
	}
}

// traceFile is what the trace tests read of an exported session trace.
type traceFile struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		TS   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	} `json:"traceEvents"`
	OtherData struct {
		DroppedEvents int64 `json:"droppedEvents"`
	} `json:"otherData"`
}

func getTrace(t *testing.T, ts *httptest.Server, id string) traceFile {
	t.Helper()
	httpResp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", httpResp.StatusCode)
	}
	var file traceFile
	if err := json.NewDecoder(httpResp.Body).Decode(&file); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	return file
}

// pipelineSession is the net and the first n one-alarm appends of the
// pipeline traffic: gen.Pipeline(6, 2) and alarms of seed 1. The traffic
// makes 12.
func pipelineSession(n int) (netText string, alarms []string) {
	pn := gen.Pipeline(6, 2)
	seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(1)), n)
	for i := range seq {
		alarms = append(alarms, parser.FormatAlarms(seq[i:i+1]))
	}
	return parser.FormatNet(pn), alarms
}

// TestDroppedEventsSeriesMonotone: trace_events_dropped_total is a
// counter, so removing a session whose ring overwrote events must not
// lower it.
func TestDroppedEventsSeriesMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	netText, alarms := pipelineSession(15) // outgrows the ring by about 2 900 events
	sess := createSession(t, ts, createRequest{Net: netText})
	for _, a := range alarms {
		if code, body := rawDo(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms", `{"alarms": "`+a+`"}`); code != http.StatusOK {
			t.Fatalf("append %q: status %d %s", a, code, body)
		}
	}
	before := metricValue(t, ts, "trace_events_dropped_total")
	if before <= 0 {
		t.Fatalf("trace_events_dropped_total = %d after 15 pipeline appends, want > 0", before)
	}
	if code, _ := rawDo(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, ""); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if after := metricValue(t, ts, "trace_events_dropped_total"); after < before {
		t.Fatalf("trace_events_dropped_total went from %d to %d on a delete", before, after)
	}
}

// TestServedSessionAllocations bounds what tracing costs a served
// session: creating a Pipeline(6,2) session in a store and making its 12
// one-alarm appends allocates at most 1.2x what the same net, create and
// appends allocate on a core.Incremental with no tracer.
func TestServedSessionAllocations(t *testing.T) {
	netText, alarms := pipelineSession(12)
	var seqs []alarm.Seq
	for _, a := range alarms {
		seq, err := core.ParseAlarms(a)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	served := func() {
		st := NewStore(StoreConfig{}, NewMetrics())
		sess, err := st.Create(netText, "dqsq", 0, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if _, err := sess.Append(seq, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	untraced := func() {
		sys, err := core.LoadNet(netText)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := sys.NewIncremental(core.DQSQ, core.Options{Budget: datalog.Budget{MaxFacts: 1 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if _, err := inc.Append(seq, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the per-net program cache, then take the least of a few runs
	// of each: a background allocation can only add to a run.
	served()
	allocated := func(run func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	tracedBytes, untracedBytes := allocated(served), allocated(untraced)
	ratio := float64(tracedBytes) / float64(untracedBytes)
	t.Logf("served session %d bytes, untraced %d bytes: %.2fx", tracedBytes, untracedBytes, ratio)
	if ratio > 1.2 {
		t.Fatalf("a served pipeline session allocates %.2fx an untraced one (%d vs %d bytes), want <= 1.2x",
			ratio, tracedBytes, untracedBytes)
	}
}

// TestProgramCacheSeriesExported: the per-net program cache behind DQSQ
// sessions shows on /metrics — a second session on a net is a hit, and at
// least the one program is held.
func TestProgramCacheSeriesExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts, createRequest{Net: exampleNetText(t)})
	hits := metricValue(t, ts, "diagnosed_program_cache_hits_total")
	builds := metricValue(t, ts, "diagnosed_program_cache_misses_total")
	createSession(t, ts, createRequest{Net: exampleNetText(t)})
	if got := metricValue(t, ts, "diagnosed_program_cache_hits_total"); got != hits+1 {
		t.Errorf("diagnosed_program_cache_hits_total = %d after a second session on the net, want %d", got, hits+1)
	}
	if got := metricValue(t, ts, "diagnosed_program_cache_misses_total"); got != builds {
		t.Errorf("diagnosed_program_cache_misses_total = %d after a second session on the net, want %d still", got, builds)
	}
	if got := metricValue(t, ts, "diagnosed_program_cache_entries"); got < 1 {
		t.Errorf("diagnosed_program_cache_entries = %d, want >= 1", got)
	}
}

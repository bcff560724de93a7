package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
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

	httpResp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", httpResp.StatusCode)
	}
	var file struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&file); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
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

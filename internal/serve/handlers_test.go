package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dist"
	"repro/internal/parser"
	"repro/internal/petri"
)

// quickstart is the paper's running example: the Figure 1 net and the
// Section 2 alarm sequence, split one alarm per append.
var quickstartAlarms = []string{"b@p1", "a@p2", "c@p1"}

func exampleNetText(t *testing.T) string {
	t.Helper()
	return parser.FormatNet(petri.Example())
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = -1 // tests drive Sweep directly
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// doJSON posts (or gets) JSON and decodes the response into out (if
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 300 {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, ts *httptest.Server, req createRequest) createResponse {
	t.Helper()
	var resp createResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", req, &resp); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if resp.ID == "" {
		t.Fatal("create: empty session id")
	}
	return resp
}

// metricValue scrapes one plain counter/gauge from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// TestSessionLifecycle drives the full API surface: create a dQSQ session
// on the Figure 1 net, stream the quickstart alarms one at a time, check
// the final diagnosis set against batch ground truth, inspect, delete.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	if sess.Engine != "dqsq" {
		t.Fatalf("default engine = %q", sess.Engine)
	}
	if len(sess.Peers) == 0 {
		t.Fatal("no peers reported")
	}

	var last appendResponse
	for i, a := range quickstartAlarms {
		code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms",
			appendRequest{Alarms: a}, &last)
		if code != http.StatusOK {
			t.Fatalf("append %d: status %d", i, code)
		}
		if last.Alarms != i+1 {
			t.Fatalf("append %d: alarms = %d", i, last.Alarms)
		}
		if last.Report == nil || last.Report.Truncated {
			t.Fatalf("append %d: bad report %+v", i, last.Report)
		}
	}

	seq, err := core.ParseAlarms(strings.Join(quickstartAlarms, " "))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Example().Diagnose(seq, core.Direct, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := diagnoses(last.Report)
	if !got.Equal(want.Diagnoses) {
		t.Fatalf("streamed diagnoses %v != batch %v", got.Keys(), want.Diagnoses.Keys())
	}

	var info sessionResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if info.Alarms != 3 || info.Seq != strings.Join(quickstartAlarms, " ") {
		t.Fatalf("get: %+v", info)
	}
	if info.Report == nil || !diagnoses(info.Report).Equal(want.Diagnoses) {
		t.Fatalf("get: stale report")
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

// TestAPIIncrementality is the tentpole acceptance test: appending the
// quickstart alarms one at a time through the API yields the batch
// diagnosis set, and the dQSQ session's total materialized facts — read
// back from the exported metrics — stay within 2x of a one-shot run.
func TestAPIIncrementality(t *testing.T) {
	seq, err := core.ParseAlarms(strings.Join(quickstartAlarms, " "))
	if err != nil {
		t.Fatal(err)
	}
	oneshot, err := core.Example().Diagnose(seq, core.DQSQ, core.Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{EvalTimeout: time.Minute})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	var last appendResponse
	for _, a := range quickstartAlarms {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms",
			appendRequest{Alarms: a}, &last); code != http.StatusOK {
			t.Fatalf("append %s: status %d", a, code)
		}
	}

	want, err := core.Example().Diagnose(seq, core.Direct, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !diagnoses(last.Report).Equal(want.Diagnoses) {
		t.Fatalf("streamed %v != batch %v", last.Report.Diagnoses, want.Diagnoses)
	}

	total := metricValue(t, ts, "diagnosed_facts_materialized_total")
	if total <= 0 {
		t.Fatal("no facts counted")
	}
	if total > int64(2*oneshot.Derived) {
		t.Fatalf("streamed materialization %d > 2x one-shot %d", total, oneshot.Derived)
	}
	t.Logf("streamed facts %d vs one-shot %d", total, oneshot.Derived)

	// Report.Messages is cumulative over a dQSQ session, so the counter —
	// which adds one delta per append — must equal the final cumulative
	// figure, not the sum of the per-append cumulative figures.
	if got := metricValue(t, ts, "diagnosed_messages_total"); got != int64(last.Report.Messages) {
		t.Fatalf("diagnosed_messages_total = %d, want final cumulative %d", got, last.Report.Messages)
	}
}

// TestMaterializedSeriesMatchesEngine: a dQSQ session's appends
// materialize exactly what its engine derives, so the server's
// diagnosed_facts_materialized_total equals the engine's
// ddatalog_facts_derived_total, however many sessions clone the net's
// template. Neither series counts the template's alarm-free facts, which
// every clone starts with.
func TestMaterializedSeriesMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{EvalTimeout: time.Minute})
	for i := 0; i < 2; i++ {
		sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
		for _, a := range quickstartAlarms {
			if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/alarms",
				appendRequest{Alarms: a}, nil); code != http.StatusOK {
				t.Fatalf("session %d, append %s: status %d", i, a, code)
			}
			materialized := metricValue(t, ts, "diagnosed_facts_materialized_total")
			derived := metricValue(t, ts, "ddatalog_facts_derived_total")
			if materialized != derived || derived <= 0 {
				t.Fatalf("session %d, after %s: diagnosed_facts_materialized_total = %d, ddatalog_facts_derived_total = %d",
					i, a, materialized, derived)
			}
		}
	}
}

// TestTimeoutPoisonsDQSQSession: a timed-out append leaves the warm dQSQ
// state ambiguous (the queued alarm facts may be partially injected), so
// the session must refuse later appends with ErrExhausted instead of
// serving reports that silently omit the lost alarms.
func TestTimeoutPoisonsDQSQSession(t *testing.T) {
	sess, err := newSession("s1", core.Example(), core.DQSQ, 0, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	obs, err := core.ParseAlarms("b@p1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Append(obs, time.Nanosecond); err == nil {
		// The evaluation would have to quiesce before a 1ns timer fires.
		t.Skip("append beat the 1ns timeout")
	} else if !timeoutErr(err) {
		t.Fatalf("append with 1ns timeout: %v, want timeout", err)
	}
	if _, err := sess.Append(obs, time.Minute); !errors.Is(err, ErrExhausted) {
		t.Fatalf("append after timeout: %v, want ErrExhausted", err)
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exhausted {
		t.Fatal("timed-out session not marked exhausted")
	}
	if len(st.Seq) != 0 {
		t.Fatalf("timed-out append committed its alarms: %v", st.Seq)
	}
}

// diagnoses lifts a wire report's diagnosis set back into the library
// type for set comparison.
func diagnoses(rep *reportJSON) diagnosis.Diagnoses { return diagnosis.Diagnoses(rep.Diagnoses) }

// TestErrorPaths covers the 400/404 mappings.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/sessions"

	for name, body := range map[string]any{
		"bad json":       "{",
		"missing net":    createRequest{},
		"unknown engine": createRequest{Net: exampleNetText(t), Engine: "magic"},
		"bad net":        createRequest{Net: "nonsense net text"},
	} {
		var code int
		if s, ok := body.(string); ok {
			resp, err := http.Post(url, "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			code = resp.StatusCode
		} else {
			code = doJSON(t, "POST", url, body, nil)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}

	if code := doJSON(t, "POST", url+"/nope/alarms", appendRequest{Alarms: "b@p1"}, nil); code != http.StatusNotFound {
		t.Errorf("append to unknown session: status %d", code)
	}
	if code := doJSON(t, "DELETE", url+"/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete unknown session: status %d", code)
	}

	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	if code := doJSON(t, "POST", url+"/"+sess.ID+"/alarms", appendRequest{Alarms: "zz@@"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad alarm text: status %d", code)
	}
	if code := doJSON(t, "POST", url+"/"+sess.ID+"/alarms", appendRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty alarms: status %d", code)
	}
	if code := doJSON(t, "POST", url+"/"+sess.ID+"/alarms", appendRequest{Alarms: "b@ghost"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown peer: status %d", code)
	}
}

// TestSessionBudget429: a session created with a tiny fact budget is
// load-shed with 429 and stays poisoned.
func TestSessionBudget429(t *testing.T) {
	_, ts := newTestServer(t, Config{EvalTimeout: time.Minute})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq", MaxFacts: 10})
	url := ts.URL + "/v1/sessions/" + sess.ID
	if code := doJSON(t, "POST", url+"/alarms", appendRequest{Alarms: "b@p1"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("append over budget: status %d, want 429", code)
	}
	if code := doJSON(t, "POST", url+"/alarms", appendRequest{Alarms: "a@p2"}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("append after exhaustion: status %d, want 429", code)
	}
	var info sessionResponse
	if code := doJSON(t, "GET", url, nil, &info); code != http.StatusOK || !info.Exhausted {
		t.Fatalf("exhausted session: status %d, info %+v", code, info)
	}
}

// TestGlobalBudget503: creates past the global reserved-fact budget are
// load-shed with 503 until capacity frees up.
func TestGlobalBudget503(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: StoreConfig{GlobalFacts: 1000, SessionFacts: 600}})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Net: exampleNetText(t), Engine: "direct"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create past global budget: status %d, want 503", code)
	}
	if got := metricValue(t, ts, "diagnosed_sessions_shed_total"); got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
}

// TestLRUEviction: the table cap evicts the least-recently-used session.
func TestLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: StoreConfig{MaxSessions: 2}})
	a := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	b := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	// Touch a so b is the LRU victim.
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+a.ID, nil, nil); code != http.StatusOK {
		t.Fatal("get a")
	}
	c := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+b.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("b should be evicted, got %d", code)
	}
	for _, id := range []string{a.ID, c.ID} {
		if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("%s should survive", id)
		}
	}
	// A create the engine refuses (peer p2 renamed into the supervisor's
	// name) must not evict anyone from the full table.
	clash := strings.ReplaceAll(exampleNetText(t), "p2", "p0")
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", createRequest{Net: clash}, nil); code != http.StatusBadRequest {
		t.Fatalf("create with a supervisor-named peer: status %d, want 400", code)
	}
	for _, id := range []string{a.ID, c.ID} {
		if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("%s evicted by a refused create: status %d", id, code)
		}
	}
	if got := metricValue(t, ts, "diagnosed_sessions_evicted_total"); got != 1 {
		t.Fatalf("evicted counter = %d", got)
	}
}

// TestTTLSweep: idle sessions expire on sweep.
func TestTTLSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{Store: StoreConfig{TTL: time.Minute}})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	if n := s.Store().Sweep(time.Now()); n != 0 {
		t.Fatalf("fresh session swept (%d)", n)
	}
	if n := s.Store().Sweep(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("expired session still served: %d", code)
	}
	if got := metricValue(t, ts, "diagnosed_sessions_expired_total"); got != 1 {
		t.Fatalf("expired counter = %d", got)
	}
}

// TestShutdownDrains: after Shutdown the server refuses work with 503,
// /healthz reports the drain, /metrics stays readable, and every session
// is closed.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil { // idempotent
		t.Fatal(err)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d", code)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics while draining: %d", resp.StatusCode)
	}
	if n := s.Store().Len(); n != 0 {
		t.Fatalf("%d sessions survive shutdown", n)
	}
}

// TestTimeoutMapsTo504 checks the error mapping for evaluation timeouts.
func TestTimeoutMapsTo504(t *testing.T) {
	s := NewServer(Config{SweepEvery: -1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	rec := httptest.NewRecorder()
	s.fail(rec, fmt.Errorf("eval: %w", dist.ErrTimeout))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status = %d, want 504", rec.Code)
	}
}

// TestMetricsFormat: histograms render with cumulative buckets.
func TestMetricsFormat(t *testing.T) {
	m := NewMetrics()
	m.Observe("x_seconds", 2*time.Millisecond)
	m.Observe("x_seconds", 40*time.Second)
	var buf bytes.Buffer
	m.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{le="0.005"} 1`,
		`x_seconds_bucket{le="+Inf"} 2`,
		"x_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

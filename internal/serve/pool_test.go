package serve

// Session-pool acceptance at the serve layer, over an in-process mesh:
// a pooled server must be observably identical to a local one — same
// status codes, byte-identical bodies (after scrubbing the fields that
// legitimately differ: IDs, timestamps, elapsed wall time) — including
// across worker death and cooperative drain.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/transport"
)

// startPoolWorker brings up one pool worker over the mesh, backed by its
// own session store.
func startPoolWorker(t *testing.T, mesh *transport.Mesh, name string, cfg StoreConfig) *pool.Worker {
	t.Helper()
	node := mesh.Node(name)
	w := pool.NewWorker(pool.WorkerConfig{
		Transport: node,
		Backend:   NewPoolBackend(NewStore(cfg, nil), nil),
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		node.Close() //nolint:errcheck
	})
	return w
}

// newPooledPair builds a pooled server (frontend + workers over a mesh)
// and a plain local server with the same store defaults, so responses
// can be compared request by request.
func newPooledPair(t *testing.T, workerCfg StoreConfig, poolCfg pool.Config, workerNames ...string) (p *pool.Pool, pooled, local *httptest.Server, workers map[string]*pool.Worker) {
	t.Helper()
	mesh := transport.NewMesh()
	workers = make(map[string]*pool.Worker, len(workerNames))
	for _, name := range workerNames {
		workers[name] = startPoolWorker(t, mesh, name, workerCfg)
	}
	poolCfg.Transport = mesh.Node("fe")
	poolCfg.Workers = workerNames
	pooledSrv, pooledTS := newTestFrontend(t, Config{}, poolCfg)
	_, localTS := newTestServer(t, Config{})
	return pooledSrv.pool, pooledTS, localTS, workers
}

// newTestFrontend is newTestServer for a pool frontend; a zero
// ProbeEvery probes every 50ms.
func newTestFrontend(t *testing.T, cfg Config, pc pool.Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = -1
	}
	if pc.ProbeEvery == 0 {
		pc.ProbeEvery = 50 * time.Millisecond
	}
	s, err := NewFrontend(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
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

// rawDo issues the request and returns status plus the exact body bytes.
func rawDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

var (
	scrubElapsed = regexp.MustCompile(`"elapsed_ms": [0-9eE.+-]+`)
	scrubID      = regexp.MustCompile(`"id": "[^"]*"`)
	scrubTimes   = regexp.MustCompile(`"(created|last_used)": "[^"]*"`)
)

// scrub blanks the legitimately-nondeterministic fields; everything else
// must match byte for byte.
func scrub(body string) string {
	body = scrubElapsed.ReplaceAllString(body, `"elapsed_ms": X`)
	body = scrubID.ReplaceAllString(body, `"id": "X"`)
	body = scrubTimes.ReplaceAllString(body, `"$1": "X"`)
	return body
}

var sessIDRe = regexp.MustCompile(`"id": "([^"]*)"`)

func extractID(t *testing.T, body string) string {
	t.Helper()
	m := sessIDRe.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no session id in %q", body)
	}
	return m[1]
}

// poolInput is one session's worth of requests: a net, an engine ("" for
// the server default) and the alarm batches appended in order.
type poolInput struct {
	netText, engine string
	alarms          []string
}

// TestPoolEquivalence is the pool's correctness bar: for every engine on
// the Figure 1 net, a session served through the pool answers create,
// append and get with the same status codes and byte-identical bodies as
// a local session fed the same requests.
func TestPoolEquivalence(t *testing.T) {
	_, pooled, local, _ := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1", "w2")
	for _, engine := range []string{"dqsq", "direct", "product", "naive", ""} {
		checkPoolEquivalence(t, pooled, local, poolInput{exampleNetText(t), engine, quickstartAlarms})
	}
}

// TestPoolPipelineEquivalence holds the same bar for dQSQ on a
// multi-peer pipeline net, one alarm per append.
func TestPoolPipelineEquivalence(t *testing.T) {
	_, pooled, local, _ := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1", "w2")
	pn := gen.Pipeline(6, 2)
	seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(7)), 4)
	in := poolInput{netText: parser.FormatNet(pn), engine: "dqsq"}
	for i := range seq {
		in.alarms = append(in.alarms, parser.FormatAlarms(seq[i:i+1]))
	}
	checkPoolEquivalence(t, pooled, local, in)
}

// checkPoolEquivalence plays in against the pooled and the local server
// and fails on the first status or scrubbed body that differs, then checks
// the client-fault and lifecycle statuses line up too.
func checkPoolEquivalence(t *testing.T, pooled, local *httptest.Server, in poolInput) {
	t.Helper()
	engine := in.engine
	netJSON, err := jsonString(in.netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "` + engine + `"}`
	if engine == "" {
		createBody = `{"net": ` + netJSON + `}`
	}
	pCode, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	lCode, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	if pCode != http.StatusCreated || lCode != http.StatusCreated {
		t.Fatalf("engine %q: create status pooled %d local %d\npooled: %s", engine, pCode, lCode, pBody)
	}
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("engine %q: create bodies diverge\npooled: %s\nlocal:  %s", engine, scrub(pBody), scrub(lBody))
	}
	pID, lID := extractID(t, pBody), extractID(t, lBody)

	for _, alarm := range in.alarms {
		pCode, pBody = rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
		lCode, lBody = rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("engine %q append %q: status pooled %d local %d\npooled: %s", engine, alarm, pCode, lCode, pBody)
		}
		if scrub(pBody) != scrub(lBody) {
			t.Fatalf("engine %q append %q: bodies diverge\npooled: %s\nlocal:  %s", engine, alarm, scrub(pBody), scrub(lBody))
		}
	}

	pCode, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	lCode, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if pCode != http.StatusOK || lCode != http.StatusOK {
		t.Fatalf("engine %q: get status pooled %d local %d", engine, pCode, lCode)
	}
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("engine %q: session bodies diverge\npooled: %s\nlocal:  %s", engine, scrub(pBody), scrub(lBody))
	}

	// Client faults get the same status and the same message in both
	// modes (the last row's session is unknown and its body malformed).
	for _, f := range []struct{ path, body string }{
		{"/v1/sessions/ID/alarms", `{"alarms": "zz@@"}`},
		{"/v1/sessions/ID/alarms", `{"alarms": ""}`},
		{"/v1/sessions/ID/alarms", `{"alarms": "b@ghost"}`},
		{"/v1/sessions", `{"net": "nonsense"}`},
		{"/v1/sessions/nope/alarms", `{"alarms": `},
	} {
		pCode, pBody = rawDo(t, "POST", pooled.URL+strings.Replace(f.path, "ID", pID, 1), f.body)
		lCode, lBody = rawDo(t, "POST", local.URL+strings.Replace(f.path, "ID", lID, 1), f.body)
		if pCode != lCode || scrub(pBody) != scrub(lBody) {
			t.Fatalf("engine %q: client fault %s diverges\npooled: %d %s\nlocal:  %d %s", engine, f.body, pCode, pBody, lCode, lBody)
		}
		if lCode != http.StatusBadRequest && lCode != http.StatusNotFound {
			t.Fatalf("engine %q: client fault %s: status %d, want 400 or 404", engine, f.body, lCode)
		}
	}
	if code, _ := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "b@nowhere"}`); code != http.StatusBadRequest {
		t.Fatalf("engine %q: pooled unknown-peer append: status %d, want 400", engine, code)
	}
	if code, _ := rawDo(t, "DELETE", pooled.URL+"/v1/sessions/"+pID, ""); code != http.StatusNoContent {
		t.Fatalf("engine %q: pooled delete: status %d", engine, code)
	}
	if code, _ := rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, ""); code != http.StatusNotFound {
		t.Fatalf("engine %q: pooled get after delete: status %d, want 404", engine, code)
	}
	if code, _ := rawDo(t, "DELETE", local.URL+"/v1/sessions/"+lID, ""); code != http.StatusNoContent {
		t.Fatalf("engine %q: local delete: status %d", engine, code)
	}
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) (string, error) {
	b, err := json.Marshal(s)
	return string(b), err
}

// TestPoolWorkerKillEquivalence kills the worker homing a session
// mid-stream (its transport goes away, like a kill -9) and checks the
// pool re-materializes the session elsewhere from the frontend's log with zero
// acknowledged-append loss: the remaining appends succeed and the final
// state is byte-identical to an uninterrupted local run.
func TestPoolWorkerKillEquivalence(t *testing.T) {
	mesh := transport.NewMesh()
	for _, name := range []string{"w1", "w2"} {
		startPoolWorker(t, mesh, name, StoreConfig{})
	}
	pooledSrv, pooled := newTestFrontend(t, Config{}, pool.Config{Transport: mesh.Node("fe"), Workers: []string{"w1", "w2"}})
	p := pooledSrv.pool
	_, local := newTestServer(t, Config{})

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "dqsq"}`
	_, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	_, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	pID, lID := extractID(t, pBody), extractID(t, lBody)

	appendBoth := func(alarm string) (string, string) {
		t.Helper()
		pCode, pb := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
		lCode, lb := rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("append %q: status pooled %d local %d\npooled: %s", alarm, pCode, lCode, pb)
		}
		return pb, lb
	}

	pb, lb := appendBoth(quickstartAlarms[0])
	if scrub(pb) != scrub(lb) {
		t.Fatalf("pre-kill append diverges\npooled: %s\nlocal:  %s", scrub(pb), scrub(lb))
	}

	victim, ok := p.SessionWorker(pID)
	if !ok {
		t.Fatalf("session %s unknown to the pool", pID)
	}
	mesh.Node(victim).Close() //nolint:errcheck // the kill under test

	for _, alarm := range quickstartAlarms[1:] {
		pb, lb = appendBoth(alarm)
		if scrub(pb) != scrub(lb) {
			t.Fatalf("post-kill append %q diverges\npooled: %s\nlocal:  %s", alarm, scrub(pb), scrub(lb))
		}
	}

	if now, _ := p.SessionWorker(pID); now == victim {
		t.Fatalf("session still placed on the killed worker %s", victim)
	}
	_, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	_, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("post-kill session state diverges\npooled: %s\nlocal:  %s", scrub(pBody), scrub(lBody))
	}
	if n := metricValue(t, pooled, "pool_migrations_total"); n < 1 {
		t.Fatalf("pool_migrations_total = %d, want >= 1", n)
	}
}

// TestPoolDrainMigration drains the worker homing a session and waits
// for the pool to migrate it from its records: placement moves off the
// drainer without any failed request, and the session keeps answering
// with state identical to a local run.
func TestPoolDrainMigration(t *testing.T) {
	p, pooled, local, workers := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1", "w2")

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "dqsq"}`
	_, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	_, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	pID, lID := extractID(t, pBody), extractID(t, lBody)

	if code, _ := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+quickstartAlarms[0]+`"}`); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+quickstartAlarms[0]+`"}`)

	drainer, ok := p.SessionWorker(pID)
	if !ok {
		t.Fatalf("session %s unknown to the pool", pID)
	}
	workers[drainer].SetDraining(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if now, _ := p.SessionWorker(pID); now != drainer {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never migrated off draining worker %s (states %v)", drainer, p.WorkerStates())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state := p.WorkerStates()[drainer]; state != pool.StateDraining {
		t.Fatalf("drainer state %q, want %q", state, pool.StateDraining)
	}

	for _, alarm := range quickstartAlarms[1:] {
		pCode, pb := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
		lCode, lb := rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("post-drain append %q: status pooled %d local %d", alarm, pCode, lCode)
		}
		if scrub(pb) != scrub(lb) {
			t.Fatalf("post-drain append %q diverges\npooled: %s\nlocal:  %s", alarm, scrub(pb), scrub(lb))
		}
	}
	_, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	_, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("post-drain session state diverges\npooled: %s\nlocal:  %s", scrub(pBody), scrub(lBody))
	}
}

// TestPoolBackpressure: when every worker refuses admission the pooled
// create answers 503 with a Retry-After hint instead of hanging or
// five-hundreding.
func TestPoolBackpressure(t *testing.T) {
	_, pooled, _, _ := newPooledPair(t, StoreConfig{MaxSessions: 1}, pool.Config{}, "w1", "w2")

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `}`
	for i := 0; i < 2; i++ {
		if code, body := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody); code != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, code, body)
		}
	}
	req, err := http.NewRequest("POST", pooled.URL+"/v1/sessions", strings.NewReader(createBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated create: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated create: no Retry-After header")
	}
}

// TestPoolBackendCountsOnce: a worker that hands one registry to both
// its store and its backend (as cmd/peerd does) counts each session
// operation once.
func TestPoolBackendCountsOnce(t *testing.T) {
	m := NewMetrics()
	b := NewPoolBackend(NewStore(StoreConfig{}, m), m)
	if _, err := b.Create("s1", exampleNetText(t), "direct", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append("s1", "b@p1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("s1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"diagnosed_sessions_created_total", "diagnosed_appends_total", "diagnosed_sessions_deleted_total"} {
		if got := m.Counter(name); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
}

// TestPoolPoisonSurvivesWorkerKill: a session its budget poisoned is
// checkpointed into the frontend's log, so when its worker dies it comes
// back poisoned on another — its state reads as a local session's,
// "exhausted" included — not healthy from its acknowledged appends.
func TestPoolPoisonSurvivesWorkerKill(t *testing.T) {
	mesh := transport.NewMesh()
	for _, name := range []string{"w1", "w2"} {
		startPoolWorker(t, mesh, name, StoreConfig{})
	}
	pooledSrv, pooled := newTestFrontend(t, Config{}, pool.Config{Transport: mesh.Node("fe"), Workers: []string{"w1", "w2"}})
	_, local := newTestServer(t, Config{})

	netJSON, err := jsonString(exampleNetText(t))
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "dqsq", "max_facts": 300}`
	_, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	_, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	pID, lID := extractID(t, pBody), extractID(t, lBody)
	for _, step := range []struct {
		alarm string
		want  int
	}{{"b@p1", http.StatusOK}, {"a@p2", http.StatusTooManyRequests}} {
		pCode, pb := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+step.alarm+`"}`)
		lCode, lb := rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+step.alarm+`"}`)
		if pCode != step.want || lCode != step.want || scrub(pb) != scrub(lb) {
			t.Fatalf("append %q: pooled %d %s\nlocal %d %s\nwant %d", step.alarm, pCode, pb, lCode, lb, step.want)
		}
	}

	// The poisoning reaches the log as a checkpoint record, behind the
	// reply as it does locally.
	deadline := time.Now().Add(5 * time.Second)
	for pooledSrv.Metrics().Counter("snapshot_bytes_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the poisoned session was never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim, _ := pooledSrv.pool.SessionWorker(pID)
	mesh.Node(victim).Close() //nolint:errcheck // the kill under test

	_, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	_, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if scrub(pBody) != scrub(lBody) || !strings.Contains(lBody, `"exhausted": true`) {
		t.Fatalf("post-kill state diverges\npooled: %s\nlocal:  %s", scrub(pBody), scrub(lBody))
	}
	if now, _ := pooledSrv.pool.SessionWorker(pID); now == victim {
		t.Fatalf("session still placed on the killed worker %s", victim)
	}
}

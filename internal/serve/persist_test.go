package serve

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// appendAlarms posts one append and returns the response.
func appendAlarms(t *testing.T, ts *httptest.Server, id, alarms string) appendResponse {
	t.Helper()
	var resp appendResponse
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/alarms", appendRequest{Alarms: alarms}, &resp)
	if code != http.StatusOK {
		t.Fatalf("append %q: status %d", alarms, code)
	}
	return resp
}

func getSession(t *testing.T, ts *httptest.Server, id string) sessionResponse {
	t.Helper()
	var resp sessionResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &resp); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	return resp
}

// waitForCheckpoints polls until the server has logged at least n
// checkpoint records.
func waitForCheckpoints(t *testing.T, s *Server, n int64) {
	t.Helper()
	count := func() int64 {
		var buf bytes.Buffer
		s.Metrics().WriteText(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "snapshot_write_seconds_count "); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d checkpoint records landed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPersistRestartEquivalence is the serve half of the checkpoint
// subsystem's acceptance: a session persisted by graceful drain and
// restored by a new server must continue exactly — same sequence, same
// diagnoses, and for the warm dQSQ engine the same cumulative derived
// and message counts as an uninterrupted session.
func TestPersistRestartEquivalence(t *testing.T) {
	for _, engine := range []string{"dqsq", "naive"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			net := exampleNetText(t)

			// Uninterrupted reference session on a throwaway server.
			_, refTS := newTestServer(t, Config{})
			ref := createSession(t, refTS, createRequest{Net: net, Engine: engine})
			var want appendResponse
			for _, a := range quickstartAlarms {
				want = appendAlarms(t, refTS, ref.ID, a)
			}

			// Server A: two appends, then a graceful drain.
			a := NewServer(Config{SweepEvery: -1, DataDir: dir})
			tsA := httptest.NewServer(a)
			sess := createSession(t, tsA, createRequest{Net: net, Engine: engine})
			for _, al := range quickstartAlarms[:2] {
				appendAlarms(t, tsA, sess.ID, al)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := a.Shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			tsA.Close()

			// Server B restores the session and finishes the sequence.
			b, tsB := newTestServer(t, Config{DataDir: dir})
			if got := b.Metrics().Counter("snapshot_restore_total"); got != 1 {
				t.Fatalf("snapshot_restore_total = %d, want 1", got)
			}
			st := getSession(t, tsB, sess.ID)
			if st.Alarms != 2 {
				t.Fatalf("restored session has %d alarms, want 2", st.Alarms)
			}
			if st.SnapshotAgeSeconds == nil {
				t.Fatal("restored session reports no snapshot age")
			}
			got := appendAlarms(t, tsB, sess.ID, quickstartAlarms[2])
			if !reflect.DeepEqual(got.Report.Diagnoses, want.Report.Diagnoses) {
				t.Fatalf("diagnoses diverge after restart:\ngot  %v\nwant %v",
					got.Report.Diagnoses, want.Report.Diagnoses)
			}
			if got.Alarms != want.Alarms {
				t.Fatalf("alarms = %d, want %d", got.Alarms, want.Alarms)
			}
			if engine == "dqsq" {
				if got.Report.Derived != want.Report.Derived || got.Report.Messages != want.Report.Messages {
					t.Fatalf("warm counters diverge after restart: got %d derived/%d messages, want %d/%d",
						got.Report.Derived, got.Report.Messages, want.Report.Derived, want.Report.Messages)
				}
			}
		})
	}
}

// TestPersistWriteBehind: the checkpointer logs a checkpoint record
// behind a session's checkpointEvery-th append, without any shutdown,
// and the record decodes back to the session's state.
func TestPersistWriteBehind(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	for i := 0; i < checkpointEvery; i++ {
		appendAlarms(t, ts, sess.ID, cycleAlarm(i))
	}
	waitForCheckpoints(t, s, 1)

	var restored *Session
	err := s.wal.log.ReadRange(s.wal.log.FirstSeq(), s.wal.log.LastSeq(), func(_ uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		if r.Byte() != walKindCheckpoint {
			return nil
		}
		_, _ = r.String(), r.Int()
		o, err := snapshot.Open(r.Bytes())
		if err != nil {
			return err
		}
		restored, err = decodeSession(o, nil)
		return err
	})
	if err != nil || restored == nil {
		t.Fatalf("checkpoint record does not decode: %v", err)
	}
	if restored.ID != sess.ID || restored.alarms != checkpointEvery {
		t.Fatalf("checkpoint holds id=%s alarms=%d, want %s/%d", restored.ID, restored.alarms, sess.ID, checkpointEvery)
	}
	if n := s.Metrics().Counter("snapshot_bytes_total"); n <= 0 {
		t.Fatalf("snapshot_bytes_total = %d, want > 0", n)
	}
	// The session now advertises how old its checkpoint is.
	if st := getSession(t, ts, sess.ID); st.SnapshotAgeSeconds == nil {
		t.Fatal("session reports no snapshot age after its checkpoint")
	}
}

// TestPersistDeleteLogsRecord: DELETE logs a delete record before it
// answers, so the session stays gone across a restart.
func TestPersistDeleteLogsRecord(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	appendAlarms(t, ts, sess.ID, "b@p1")
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	kinds, ids, _ := records(t, s.wal.log)
	if n := len(kinds); n == 0 || kinds[n-1] != walKindDelete || ids[n-1] != sess.ID {
		t.Fatalf("the log does not end with the session's delete record: kinds %v", kinds)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	if code := doJSON(t, "GET", ts2.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session after the restart: GET status %d", code)
	}
}

// TestPersistExhaustionSurvivesRestart: an append that exhausts the
// session persists the exhaustion, so a restart does not resurrect a
// poisoned warm engine as healthy.
func TestPersistExhaustionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := NewServer(Config{SweepEvery: -1, DataDir: dir})
	tsA := httptest.NewServer(a)
	sess := createSession(t, tsA, createRequest{Net: exampleNetText(t), MaxFacts: 8})
	var errResp errorResponse
	if code := doJSON(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/alarms",
		appendRequest{Alarms: "b@p1 a@p2 c@p1"}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("append under tiny budget: status %d, want 429", code)
	}
	waitForCheckpoints(t, a, 1) // the poisoning reaches the log as a checkpoint
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsA.Close()

	_, tsB := newTestServer(t, Config{DataDir: dir})
	st := getSession(t, tsB, sess.ID)
	if !st.Exhausted {
		t.Fatal("restored session lost its exhaustion flag")
	}
	if code := doJSON(t, "POST", tsB.URL+"/v1/sessions/"+sess.ID+"/alarms",
		appendRequest{Alarms: "b@p1"}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("append on restored exhausted session: status %d, want 429", code)
	}
}

// TestRestoreSkipsCorrupt: a checkpoint record that does not decode is
// logged and skipped — the session stays as its create and append
// records rebuilt it — and the server still starts and serves.
func TestRestoreSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, ts := crashServer(t, dir)
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	appendAlarms(t, ts, sess.ID, "b@p1 a@p2")
	want := scrubbedBody(t, ts, sess.ID)
	for _, junk := range [][]byte{[]byte("not a snapshot"), []byte("DSNP")} {
		sw := &snapshot.Writer{}
		sw.Byte(walKindCheckpoint)
		sw.String(sess.ID)
		sw.Int(time.Now().UnixNano())
		sw.Bytes(junk)
		if _, err := s.wal.log.Append(sw.Body()); err != nil {
			t.Fatal(err)
		}
	}
	crash(s, ts)

	s2, ts2 := newTestServer(t, Config{DataDir: dir})
	if got := s2.Metrics().Counter("snapshot_restore_total"); got != 0 {
		t.Fatalf("snapshot_restore_total = %d, want 0", got)
	}
	if got := scrubbedBody(t, ts2, sess.ID); got != want {
		t.Fatalf("session next to corrupt checkpoints:\n%s\nwant\n%s", got, want)
	}
	// Server is healthy despite the bad records.
	createSession(t, ts2, createRequest{Net: exampleNetText(t)})
}

// TestLegacySnapshotDirRefused: a data dir an older build left session
// snapshot files in is refused untouched — the error names the files,
// the server runs without persistence, and nothing is deleted.
func TestLegacySnapshotDirRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "s000001-0123456789ab.dsnp")
	if err := os.WriteFile(legacy, []byte("an old session"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	s, ts := newTestServer(t, Config{DataDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if s.ReplEnabled() {
		t.Fatal("persistence is on over a data dir holding .dsnp files")
	}
	if !strings.Contains(logs.String(), "level=ERROR") || !strings.Contains(logs.String(), legacy) {
		t.Fatalf("the refusal is not logged with the file names:\n%s", logs.String())
	}
	createSession(t, ts, createRequest{Net: exampleNetText(t)}) // still serves, in memory
	if b, err := os.ReadFile(legacy); err != nil || string(b) != "an old session" {
		t.Fatalf("the legacy file was touched: %q, %v", b, err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, walDirName)); err != nil || len(entries) != 0 {
		t.Fatalf("the refused dir's wal/ was written: %v, %v", entries, err)
	}
}

// TestDrainRetryAfter: the 503s served while draining carry Retry-After
// so clients know to retry against the restarted instance.
func TestDrainRetryAfter(t *testing.T) {
	s := NewServer(Config{SweepEvery: -1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ method, path string }{
		{"POST", "/v1/sessions"},
		{"GET", "/healthz"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while draining: status %d, want 503", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while draining: no Retry-After header", tc.method, tc.path)
		}
	}
}

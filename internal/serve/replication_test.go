package serve

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/transport"
	"repro/internal/wal"
)

// startReplPair wires a primary server and a read-only follower server
// through internal/repl over loopback, returning both plus the
// follower handle (for Stop/promote).
func startReplPair(t *testing.T) (ps, fs *Server, pts, fts string, fol *repl.Follower) {
	t.Helper()
	return startReplPairWith(t, StoreConfig{})
}

// startReplPairWith is startReplPair with the primary's table bounds.
func startReplPairWith(t *testing.T, primary StoreConfig) (ps, fs *Server, pts, fts string, fol *repl.Follower) {
	t.Helper()
	pServer, pHTTP := newTestServer(t, Config{DataDir: t.TempDir(), Store: primary})
	addr := startPrimary(t, pServer, repl.PrimaryOptions{Metrics: pServer.Metrics()})

	fServer, fHTTP := newTestServer(t, Config{DataDir: t.TempDir(), ReadOnly: true})
	f := startFollower(t, fServer, addr, repl.FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fServer.Metrics()})
	return pServer, fServer, pHTTP.URL, fHTTP.URL, f
}

// startPrimary ships s's log to followers over the loopback transport
// node "primary", returning its address.
func startPrimary(t *testing.T, s *Server, opt repl.PrimaryOptions) string {
	t.Helper()
	tr, err := transport.ListenTCP("primary", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	prim, err := repl.NewPrimary(s.WALLog(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(prim.Close)
	return tr.Addr()
}

// startFollower makes s follow the primary at addr over a loopback
// transport.
func startFollower(t *testing.T, s *Server, addr string, opt repl.FollowerOptions) *repl.Follower {
	t.Helper()
	tr, err := transport.ListenTCP("fol", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr.AddRoute("primary", addr)
	f, err := repl.NewFollower(tr, "primary", s.ReplApplier(), opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationEndToEnd drives a primary over HTTP and checks the
// follower converges to an identical session — same alarms, same
// diagnoses — while refusing mutations until promoted.
func TestReplicationEndToEnd(t *testing.T) {
	pServer, fServer, pURL, fURL, _ := startReplPair(t)

	// Create and stream a session through the paper's running example.
	var created createResponse
	if code := doJSON(t, http.MethodPost, pURL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, a := range quickstartAlarms {
		var ar appendResponse
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", pURL, created.ID),
			appendRequest{Alarms: a}, &ar); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}

	// The follower's table converges to the same session state.
	waitUntil(t, "follower catches up", func() bool {
		sess, ok := fServer.Store().Get(created.ID, time.Now())
		return ok && sess.Alarms() == len(quickstartAlarms)
	})
	var pSess, fSess sessionResponse
	if code := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s", pURL, created.ID), nil, &pSess); code != http.StatusOK {
		t.Fatalf("primary GET: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s", fURL, created.ID), nil, &fSess); code != http.StatusOK {
		t.Fatalf("follower GET: status %d", code)
	}
	if fSess.Seq != pSess.Seq {
		t.Fatalf("follower seq %q, primary %q", fSess.Seq, pSess.Seq)
	}
	if !reflect.DeepEqual(fSess.Report.Diagnoses, pSess.Report.Diagnoses) {
		t.Fatalf("follower diagnoses %v, primary %v", fSess.Report.Diagnoses, pSess.Report.Diagnoses)
	}

	// Mutations on the follower are refused while it follows.
	if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", fURL, created.ID),
		appendRequest{Alarms: "b@p1"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("follower append: status %d, want 503", code)
	}
	if code := doJSON(t, http.MethodPost, fURL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("follower create: status %d, want 503", code)
	}

	// A delete replicates too.
	var second createResponse
	if code := doJSON(t, http.MethodPost, pURL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, &second); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	waitUntil(t, "second session replicates", func() bool {
		_, ok := fServer.Store().Get(second.ID, time.Now())
		return ok
	})
	if code := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%s", pURL, second.ID), nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	waitUntil(t, "delete replicates", func() bool {
		_, ok := fServer.Store().Get(second.ID, time.Now())
		return !ok
	})
	_ = pServer
}

// TestPromoteOpensWrites checks the promote endpoint: 200 exactly once
// (running the hook first), then the follower serves writes; a second
// promote conflicts; a primary never accepts one.
func TestPromoteOpensWrites(t *testing.T) {
	_, fServer, pURL, fURL, fol := startReplPair(t)

	var created createResponse
	if code := doJSON(t, http.MethodPost, pURL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, a := range quickstartAlarms[:2] {
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", pURL, created.ID),
			appendRequest{Alarms: a}, nil); code != http.StatusOK {
			t.Fatalf("append: status %d", code)
		}
	}
	waitUntil(t, "follower catches up", func() bool {
		sess, ok := fServer.Store().Get(created.ID, time.Now())
		return ok && sess.Alarms() == 2
	})

	hookRan := false
	fServer.SetPromote(func() (uint64, error) {
		hookRan = true
		fol.Stop() // drain the stream before going writable
		return fol.Epoch() + 1, nil
	})
	var pr promoteResponse
	if code := doJSON(t, http.MethodPost, fURL+"/v1/admin/promote", nil, &pr); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if !hookRan {
		t.Fatal("promote hook never ran")
	}
	if pr.Epoch != 2 {
		t.Fatalf("promote epoch %d, want 2", pr.Epoch)
	}
	if fServer.ReadOnly() {
		t.Fatal("still read-only after promote")
	}

	// The promoted server accepts the remaining append and answers with
	// a well-formed diagnosis over the full sequence.
	var ar appendResponse
	if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", fURL, created.ID),
		appendRequest{Alarms: quickstartAlarms[2]}, &ar); code != http.StatusOK {
		t.Fatalf("post-promote append: status %d", code)
	}
	if ar.Alarms != len(quickstartAlarms) {
		t.Fatalf("post-promote alarms = %d, want %d", ar.Alarms, len(quickstartAlarms))
	}

	// Promote is not idempotent: a writable server conflicts.
	if code := doJSON(t, http.MethodPost, fURL+"/v1/admin/promote", nil, nil); code != http.StatusConflict {
		t.Fatalf("second promote: status %d, want 409", code)
	}
	if code := doJSON(t, http.MethodPost, pURL+"/v1/admin/promote", nil, nil); code != http.StatusConflict {
		t.Fatalf("promote on primary: status %d, want 409", code)
	}
}

// TestFollowerResyncFromLaggedState checks the server-level restart: a
// follower that connects only after the primary built state rebuilds it
// from the primary's records.
func TestFollowerResyncFromLaggedState(t *testing.T) {
	pServer, pHTTP := newTestServer(t, Config{DataDir: t.TempDir()})
	var created createResponse
	if code := doJSON(t, http.MethodPost, pHTTP.URL+"/v1/sessions",
		createRequest{Net: exampleNetText(t)}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, a := range quickstartAlarms {
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", pHTTP.URL, created.ID),
			appendRequest{Alarms: a}, nil); code != http.StatusOK {
			t.Fatalf("append: status %d", code)
		}
	}

	addr := startPrimary(t, pServer, repl.PrimaryOptions{})

	fServer, _ := newTestServer(t, Config{DataDir: t.TempDir(), ReadOnly: true})
	startFollower(t, fServer, addr, repl.FollowerOptions{Heartbeat: 50 * time.Millisecond})

	waitUntil(t, "late follower rebuilds the state", func() bool {
		sess, ok := fServer.Store().Get(created.ID, time.Now())
		return ok && sess.Alarms() == len(quickstartAlarms)
	})
}

// TestFollowerDropsRemovedSessions: sessions the primary's TTL sweep
// and LRU eviction removed leave the follower too — the primary logs
// their delete records and the follower applies them. And a read-only
// follower never appends a record of its own: not when its own table
// expires sessions, not on drain. Its log stays the primary's, record
// for record.
func TestFollowerDropsRemovedSessions(t *testing.T) {
	pServer, fServer, pURL, _, fol := startReplPairWith(t, StoreConfig{MaxSessions: 2})
	create := func() string {
		var created createResponse
		if code := doJSON(t, http.MethodPost, pURL+"/v1/sessions",
			createRequest{Net: exampleNetText(t)}, &created); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		return created.ID
	}
	live := func(s *Server, id string) bool {
		_, ok := s.Store().Get(id, time.Now())
		return ok
	}
	swept := create()
	waitUntil(t, "follower has the first session", func() bool { return live(fServer, swept) })
	if n := pServer.Store().Sweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("primary sweep removed %d sessions, want 1", n)
	}
	evicted := create()
	for i := 0; i < checkpointEvery; i++ { // a checkpoint record rides the stream too
		if code := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/alarms", pURL, evicted),
			appendRequest{Alarms: cycleAlarm(i)}, nil); code != http.StatusOK {
			t.Fatalf("append: status %d", code)
		}
	}
	kept := create()
	last := create() // evicts the LRU session
	waitUntil(t, "follower converges", func() bool {
		return !live(fServer, swept) && !live(fServer, evicted) && live(fServer, kept) && live(fServer, last) &&
			fServer.WALLog().LastSeq() == pServer.WALLog().LastSeq()
	})

	payloads := func(l *wal.Log) (out []string) {
		err := l.ReadRange(1, l.LastSeq(), func(_ uint64, p []byte) error {
			out = append(out, string(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := payloads(fServer.WALLog()), payloads(pServer.WALLog()); !reflect.DeepEqual(got, want) {
		t.Fatalf("the follower's log holds %d records, the primary's %d; they must be the same records", len(got), len(want))
	}

	// The follower's own expiry is not logged, nor is its drain.
	applied := fServer.WALLog().LastSeq()
	fServer.Store().Sweep(time.Now().Add(time.Hour))
	fol.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fServer.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fServer.WALLog().LastSeq(); got != applied {
		t.Fatalf("the follower logged records of its own: its log ends at %d, the stream at %d", got, applied)
	}
}

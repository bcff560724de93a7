package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// crashServer builds a durable server for crash tests; crash (below)
// then kills it the way kill -9 would. Fewer than checkpointEvery
// appends leave a session in its create and append records alone.
func crashServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		DataDir:    dir,
		SweepEvery: -1,
		Fsync:      wal.SyncNever, // durability against process death needs no fsync
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// crash stops the server's HTTP front and its checkpointer without a
// drain, then closes the log: in-process, the data dir is left exactly
// as the OS holds it after a kill -9.
func crash(s *Server, ts *httptest.Server) {
	ts.Close()
	close(s.wal.stop)
	<-s.wal.done
	s.wal.log.Close()
}

// reportEssence strips the timing from a report: everything that must be
// identical between a replayed session and an uninterrupted one.
type reportEssence struct {
	diagnoses  [][]string
	derived    int
	messages   int
	transFacts int
	placeFacts int
}

func essence(t *testing.T, rep *reportJSON) reportEssence {
	t.Helper()
	if rep == nil {
		t.Fatal("session has no report")
	}
	return reportEssence{
		diagnoses:  rep.Diagnoses,
		derived:    rep.Derived,
		messages:   rep.Messages,
		transFacts: rep.TransFacts,
		placeFacts: rep.PlaceFacts,
	}
}

// TestWALReplayAfterCrash is the recovery invariant: a server killed with
// acknowledged appends that never reached a snapshot must reproduce, from
// the WAL alone, exactly the state an uninterrupted server would hold —
// same diagnoses, same derived-fact and message counts, same sequence.
func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, ts := crashServer(t, dir)
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range quickstartAlarms {
		appendAlarms(t, ts, sess.ID, a)
	}
	before := getSession(t, ts, sess.ID)
	if n := metricValue(t, ts, "wal_appends_total"); n < 4 { // 1 create + 3 appends
		t.Fatalf("wal_appends_total = %d before crash, want >= 4", n)
	}
	crash(s, ts) // no Shutdown, no drain, no checkpoint

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	after := getSession(t, ts2, sess.ID)
	if after.Alarms != before.Alarms || after.Seq != before.Seq {
		t.Fatalf("replayed session: alarms=%d seq=%q, want alarms=%d seq=%q",
			after.Alarms, after.Seq, before.Alarms, before.Seq)
	}
	if got, want := essence(t, after.Report), essence(t, before.Report); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed report diverged:\n got %+v\nwant %+v", got, want)
	}
	if n := metricValue(t, ts2, "wal_replay_records_total"); n < 4 {
		t.Fatalf("wal_replay_records_total = %d, want >= 4", n)
	}

	// The replayed session must stay fully usable: same engine, warm state,
	// and a control run over the whole sequence agrees with it.
	appendAlarms(t, ts2, sess.ID, "b@p1")

	_, tsCtl := newTestServer(t, Config{})
	ctl := createSession(t, tsCtl, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range append(append([]string{}, quickstartAlarms...), "b@p1") {
		appendAlarms(t, tsCtl, ctl.ID, a)
	}
	got := getSession(t, ts2, sess.ID)
	want := getSession(t, tsCtl, ctl.ID)
	if got.Seq != want.Seq || !reflect.DeepEqual(essence(t, got.Report), essence(t, want.Report)) {
		t.Fatalf("post-replay append diverged from control:\n got seq=%q %+v\nwant seq=%q %+v",
			got.Seq, essence(t, got.Report), want.Seq, essence(t, want.Report))
	}
}

// TestWALAppendsPastCheckpointSurviveCrash: a drained server leaves the
// session as a checkpoint record; an append acknowledged after the
// restart lands past it and must survive a crash — replay installs the
// checkpoint, then applies the append on top.
func TestWALAppendsPastCheckpointSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{DataDir: dir, SweepEvery: -1})
	ts := httptest.NewServer(s)
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range quickstartAlarms {
		appendAlarms(t, ts, sess.ID, a)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := crashServer(t, dir)
	appendAlarms(t, ts2, sess.ID, "b@p1")
	crash(s2, ts2) // the new append lives only past the checkpoint

	s3, ts3 := newTestServer(t, Config{DataDir: dir})
	if got := s3.Metrics().Counter("snapshot_restore_total"); got != 1 {
		t.Fatalf("snapshot_restore_total = %d, want 1 (the drain's checkpoint)", got)
	}
	got := getSession(t, ts3, sess.ID)
	_, tsCtl := newTestServer(t, Config{})
	ctl := createSession(t, tsCtl, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range append(append([]string{}, quickstartAlarms...), "b@p1") {
		appendAlarms(t, tsCtl, ctl.ID, a)
	}
	want := getSession(t, tsCtl, ctl.ID)
	if got.Alarms != want.Alarms || got.Seq != want.Seq || !reflect.DeepEqual(essence(t, got.Report), essence(t, want.Report)) {
		t.Fatalf("after the crash past the checkpoint: alarms=%d seq=%q, want alarms=%d seq=%q",
			got.Alarms, got.Seq, want.Alarms, want.Seq)
	}
}

// TestWALDeleteAfterCrash: a delete acknowledged before the crash must
// hold across it, while the sibling session survives intact.
func TestWALDeleteAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, ts := crashServer(t, dir)
	doomed := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	kept := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	appendAlarms(t, ts, doomed.ID, "b@p1")
	appendAlarms(t, ts, kept.ID, "b@p1 a@p2")
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	crash(s, ts)

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	if code := doJSON(t, "GET", ts2.URL+"/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: GET status %d", code)
	}
	if got := getSession(t, ts2, kept.ID); got.Alarms != 2 {
		t.Fatalf("kept session replayed %d alarms, want 2", got.Alarms)
	}
}

// TestWALDeletePreventsResurrection: the session HAS a checkpoint
// record, the delete was acknowledged, and the crash lands right after.
// The delete record must beat the checkpoint before it on restart.
func TestWALDeletePreventsResurrection(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: a clean server's drain checkpoints the session.
	s1 := NewServer(Config{DataDir: dir, SweepEvery: -1})
	ts1 := httptest.NewServer(s1)
	sess := createSession(t, ts1, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	appendAlarms(t, ts1, sess.ID, "b@p1")
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil { // drain writes the checkpoint
		t.Fatal(err)
	}

	// Phase 2: restart, delete, crash.
	s2, ts2 := crashServer(t, dir)
	if code := doJSON(t, "DELETE", ts2.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	crash(s2, ts2) // the checkpoint record is still in the log

	// Phase 3: replay installs the checkpoint, then the delete record must
	// kill it again.
	_, ts3 := newTestServer(t, Config{DataDir: dir})
	if code := doJSON(t, "GET", ts3.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("a checkpoint resurrected a deleted session: GET status %d", code)
	}
}

// walServer builds a durable server over a log of its own options (a
// small SegmentBytes makes compaction observable), replaying whatever
// the directory holds, as a boot would.
func walServer(t *testing.T, dir string, opt wal.Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{SweepEvery: -1})
	l, err := wal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s.useWAL(l)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// records reads the log's (kind, session id) pairs from its first
// record.
func records(t *testing.T, log *wal.Log) (kinds []byte, ids []string, seqs []uint64) {
	t.Helper()
	err := log.ReadRange(log.FirstSeq(), log.LastSeq(), func(seq uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		kinds = append(kinds, r.Byte())
		ids = append(ids, r.String())
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return kinds, ids, seqs
}

// scrubbedBody is a session's GET body without what depends on the
// clock of the process that answers.
func scrubbedBody(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	var m map[string]any
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &m); code != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, code)
	}
	delete(m, "last_used")
	delete(m, "snapshot_age_seconds")
	if rep, ok := m["report"].(map[string]any); ok {
		delete(rep, "elapsed_ms")
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cycleAlarm is the i-th alarm of an endless run on the example net:
// peer p2 cycles through transitions v (a) and vi (b).
func cycleAlarm(i int) string {
	if i%2 == 0 {
		return "a@p2"
	}
	return "b@p2"
}

// TestServerWALCompaction: while one session sits idle after its create
// and another appends past several segments, the checkpointer moves the
// idle session's base forward, old segments go, the segment count stays
// bounded, and both sessions recover byte-equal after a crash.
func TestServerWALCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := wal.Options{SegmentBytes: 2048, Fsync: wal.SyncNever}
	s, ts := walServer(t, dir, opt)
	idle := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	busy := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	idleSess, _ := s.store.Get(idle.ID, time.Now())
	createSeq := idleSess.base.Load()

	segments := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return len(names)
	}
	maxSegments, rotations, last := 0, 0, s.wal.log.Sealed()
	for i := 0; rotations < 3 || i < 2*checkpointEvery; i++ {
		appendAlarms(t, ts, busy.ID, cycleAlarm(i))
		if n := segments(); n > maxSegments {
			maxSegments = n
		}
		if sealed := s.wal.log.Sealed(); sealed != last {
			rotations++
			last = sealed
		}
		if i > 500 {
			t.Fatal("the log never rotated three times")
		}
	}
	waitUntil(t, "the idle session checkpointed forward and the old segments gone", func() bool {
		return idleSess.base.Load() > createSeq && s.wal.log.FirstSeq() > createSeq
	})
	if maxSegments > 4 {
		t.Fatalf("the log grew to %d segments; compaction should keep it near one", maxSegments)
	}
	if kinds, _, _ := records(t, s.wal.log); len(kinds) == 0 || kinds[0] == walKindCreate {
		t.Fatalf("the log still opens with a create record after compaction (kinds %v)", kinds)
	}

	wantIdle, wantBusy := scrubbedBody(t, ts, idle.ID), scrubbedBody(t, ts, busy.ID)
	crash(s, ts)
	_, ts2 := walServer(t, dir, opt)
	if got := scrubbedBody(t, ts2, idle.ID); got != wantIdle {
		t.Fatalf("idle session after the crash:\n%s\nwant\n%s", got, wantIdle)
	}
	if got := scrubbedBody(t, ts2, busy.ID); got != wantBusy {
		t.Fatalf("busy session after the crash:\n%s\nwant\n%s", got, wantBusy)
	}
}

// TestRemovedSessionsStayGone: a session the TTL sweep expired and one
// LRU eviction dropped must stay gone across a crash and across a
// graceful restart — their delete records are logged like a client's.
func TestRemovedSessionsStayGone(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		t.Run(fmt.Sprintf("graceful=%v", graceful), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{DataDir: dir, SweepEvery: -1, Fsync: wal.SyncNever, Store: StoreConfig{MaxSessions: 2}}
			s := NewServer(cfg)
			ts := httptest.NewServer(s)
			swept := createSession(t, ts, createRequest{Net: exampleNetText(t)})
			appendAlarms(t, ts, swept.ID, "b@p1")
			if n := s.Store().Sweep(time.Now().Add(time.Hour)); n != 1 {
				t.Fatalf("sweep removed %d sessions, want 1", n)
			}
			evicted := createSession(t, ts, createRequest{Net: exampleNetText(t)})
			appendAlarms(t, ts, evicted.ID, "b@p1")
			kept := createSession(t, ts, createRequest{Net: exampleNetText(t)})
			createSession(t, ts, createRequest{Net: exampleNetText(t)}) // evicts the LRU one
			for _, id := range []string{swept.ID, evicted.ID} {
				if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
					t.Fatalf("removed session %s before the restart: GET status %d", id, code)
				}
			}
			if graceful {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				crash(s, ts)
			}

			_, ts2 := newTestServer(t, cfg)
			for _, id := range []string{swept.ID, evicted.ID} {
				if code := doJSON(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
					t.Fatalf("removed session %s came back after the restart: GET status %d", id, code)
				}
			}
			getSession(t, ts2, kept.ID)
		})
	}
}

// TestCheckpointIsAtomicWithAppends: checkpoints written while appends
// land on the same session each hold exactly the appends logged before
// them — the record is logged under the session mutex, so no append
// slips between the encoded state and the record.
func TestCheckpointIsAtomicWithAppends(t *testing.T) {
	s, ts := walServer(t, t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	// Stop the checkpointer: its compaction could remove the checkpoints
	// the read of the log below must see. The checkpoints below race the
	// appends on their own.
	close(s.wal.stop)
	<-s.wal.done
	created := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	sess, _ := s.store.Get(created.ID, time.Now())

	const appends = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < appends; i++ {
			obs, err := sess.parseAlarms(cycleAlarm(i))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.Append(obs, time.Minute); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	checkpoints := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := sess.checkpoint(s.wal, true); err != nil {
			t.Fatal(err)
		}
		checkpoints++
	}

	// The count starts at the first checkpoint: from there on, each
	// checkpoint must hold what the one before it held plus the appends
	// between them.
	want, seen := -1, 0
	err := s.wal.log.ReadRange(s.wal.log.FirstSeq(), s.wal.log.LastSeq(), func(seq uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		switch r.Byte() {
		case walKindAppend:
			if want >= 0 {
				want++
			}
		case walKindCheckpoint:
			_, _ = r.String(), r.Int()
			o, err := snapshot.Open(r.Bytes())
			if err != nil {
				return err
			}
			cp, err := decodeSession(o, nil)
			if err != nil {
				return err
			}
			if want >= 0 && cp.alarms != want {
				t.Errorf("checkpoint at seq %d holds %d alarms; the records before it add up to %d", seq, cp.alarms, want)
			}
			want = cp.alarms
			seen++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != appends || seen < 2 || checkpoints < 2 {
		t.Fatalf("the log adds up to %d alarms over %d checkpoints (%d written), want %d over >= 2",
			want, seen, checkpoints, appends)
	}
}

// TestShutdownLogsNoDeletes: the Store.Clear at shutdown closes every
// session without logging a delete, so they all come back.
func TestShutdownLogsNoDeletes(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{DataDir: dir, SweepEvery: -1})
	ts := httptest.NewServer(s)
	a := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	b := createSession(t, ts, createRequest{Net: exampleNetText(t)})
	appendAlarms(t, ts, a.ID, "b@p1")
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kinds, _, _ := records(t, l)
	l.Close()
	for _, k := range kinds {
		if k == walKindDelete {
			t.Fatalf("shutdown logged a delete record (kinds %v)", kinds)
		}
	}
	_, ts2 := newTestServer(t, Config{DataDir: dir})
	getSession(t, ts2, a.ID)
	getSession(t, ts2, b.ID)
}

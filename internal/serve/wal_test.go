package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/wal"
)

// crashServer builds a server whose write-behind snapshots never land
// (SnapshotDelay is huge): every acknowledged request exists only in the
// WAL. Abandoning it without Shutdown simulates a kill -9 — in-process,
// file state is exactly what the OS already has.
func crashServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		DataDir:       dir,
		SweepEvery:    -1,
		SnapshotDelay: time.Hour,
		Fsync:         wal.SyncNever, // durability against process death needs no fsync
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
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
	_, ts := crashServer(t, dir)
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range quickstartAlarms {
		appendAlarms(t, ts, sess.ID, a)
	}
	before := getSession(t, ts, sess.ID)
	if n := metricValue(t, ts, "wal_appends_total"); n < 4 { // 1 create + 3 appends
		t.Fatalf("wal_appends_total = %d before crash, want >= 4", n)
	}
	ts.Close() // crash: no Shutdown, no drain, no snapshot

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

// TestWALRestartBelowSnapshotsKeepsAppends: a drained server's wal/
// directory is removed, so the log restarts empty below the restored
// snapshot's coverage mark (seq 4: one create, three appends). An append
// acknowledged after that restart must survive a crash: boot moves the
// log past the mark, so the next replay does not skip the record as
// covered.
func TestWALRestartBelowSnapshotsKeepsAppends(t *testing.T) {
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
	if err := os.RemoveAll(filepath.Join(dir, walDirName)); err != nil {
		t.Fatal(err)
	}

	_, ts2 := crashServer(t, dir)
	appendAlarms(t, ts2, sess.ID, "b@p1")
	ts2.Close() // crash: the new append lives only in the WAL

	_, ts3 := newTestServer(t, Config{DataDir: dir})
	got := getSession(t, ts3, sess.ID)
	_, tsCtl := newTestServer(t, Config{})
	ctl := createSession(t, tsCtl, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	for _, a := range append(append([]string{}, quickstartAlarms...), "b@p1") {
		appendAlarms(t, tsCtl, ctl.ID, a)
	}
	want := getSession(t, tsCtl, ctl.ID)
	if got.Alarms != want.Alarms || got.Seq != want.Seq || !reflect.DeepEqual(essence(t, got.Report), essence(t, want.Report)) {
		t.Fatalf("after the restart below the mark: alarms=%d seq=%q, want alarms=%d seq=%q",
			got.Alarms, got.Seq, want.Alarms, want.Seq)
	}
}

// TestWALDeleteAfterCrash: a delete acknowledged before the crash must
// hold across it, while the sibling session survives intact.
func TestWALDeleteAfterCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts := crashServer(t, dir)
	doomed := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	kept := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	appendAlarms(t, ts, doomed.ID, "b@p1")
	appendAlarms(t, ts, kept.ID, "b@p1 a@p2")
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	ts.Close() // crash

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	if code := doJSON(t, "GET", ts2.URL+"/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: GET status %d", code)
	}
	if got := getSession(t, ts2, kept.ID); got.Alarms != 2 {
		t.Fatalf("kept session replayed %d alarms, want 2", got.Alarms)
	}
}

// TestWALDeletePreventsResurrection targets the nastiest window: the
// session HAS a snapshot file, the delete was acknowledged, and the crash
// lands before the file's removal. The logged delete intent must beat the
// stale snapshot on restart.
func TestWALDeletePreventsResurrection(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: a clean server persists the session to a snapshot file.
	s1 := NewServer(Config{DataDir: dir, SweepEvery: -1})
	ts1 := httptest.NewServer(s1)
	sess := createSession(t, ts1, createRequest{Net: exampleNetText(t), Engine: "dqsq"})
	appendAlarms(t, ts1, sess.ID, "b@p1")
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil { // drain writes the snapshot
		t.Fatal(err)
	}

	// Phase 2: restart, delete, crash before the stalled file removal.
	_, ts2 := crashServer(t, dir)
	if code := doJSON(t, "DELETE", ts2.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	ts2.Close() // crash: snapshot file still on disk

	// Phase 3: the restore loads the stale snapshot, then the WAL's delete
	// record must kill it again.
	_, ts3 := newTestServer(t, Config{DataDir: dir})
	if code := doJSON(t, "GET", ts3.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("stale snapshot resurrected a deleted session: GET status %d", code)
	}
}

// TestServerWALCompaction drives the coverage bookkeeping directly over a
// tiny-segment log: records covered by landed snapshots are truncated
// away, records still pending (or guarding an unapplied delete) survive.
func TestServerWALCompaction(t *testing.T) {
	log, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 32, Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	w := newServerWAL(log)

	var aSeqs, bSeqs []uint64
	for i := 0; i < 4; i++ {
		sa, err := w.logAppend("a", "b@p1")
		if err != nil {
			t.Fatal(err)
		}
		aSeqs = append(aSeqs, sa)
		sb, err := w.logAppend("b", "a@p2")
		if err != nil {
			t.Fatal(err)
		}
		bSeqs = append(bSeqs, sb)
	}

	// Session a fully covered; b only through its second record.
	w.covered("a", aSeqs[3])
	w.covered("b", bSeqs[1])
	w.compact()
	first := firstSeq(t, log)
	if first == 0 || first > bSeqs[2] {
		t.Fatalf("compaction dropped uncovered record: first surviving seq %d, want <= %d", first, bSeqs[2])
	}
	if first <= aSeqs[1] {
		t.Fatalf("compaction kept fully covered prefix: first surviving seq %d", first)
	}

	// A delete intent supersedes the session's earlier records (replay
	// only needs the delete), but itself pins the floor until the file
	// removal is applied.
	dSeq, err := w.logDelete("b")
	if err != nil {
		t.Fatal(err)
	}
	w.compact()
	if f := firstSeq(t, log); f == 0 || f > dSeq {
		t.Fatalf("delete intent did not pin compaction: first surviving seq %d, want <= %d", f, dSeq)
	}
	w.removeApplied("b")
	w.compact()
	// Everything is now compactable; only the active segment's records may
	// survive (Truncate drops whole sealed segments, never the one still
	// being appended to).
	if f := firstSeq(t, log); f != 0 && f < bSeqs[3] {
		t.Fatalf("full coverage did not compact: first surviving seq %d, want >= %d", f, bSeqs[3])
	}
}

func firstSeq(t *testing.T, log *wal.Log) uint64 {
	t.Helper()
	var first uint64
	err := log.Replay(1, func(seq uint64, payload []byte) error {
		if first == 0 {
			first = seq
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return first
}

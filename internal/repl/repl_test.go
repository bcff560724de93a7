package repl

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// fakeMetrics counts Add/SetGauge calls.
type fakeMetrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
}

func newFakeMetrics() *fakeMetrics {
	return &fakeMetrics{counters: map[string]int64{}, gauges: map[string]int64{}}
}
func (m *fakeMetrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}
func (m *fakeMetrics) SetGauge(name string, v int64) {
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}
func (m *fakeMetrics) counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// fakeApplier mirrors records into its own log, like the server does.
type fakeApplier struct {
	log *wal.Log
	mu  sync.Mutex
	// applied maps seq -> payload for every Apply.
	applied map[uint64]string
	wipes   int
}

func newFakeApplier(t *testing.T) *fakeApplier {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return &fakeApplier{log: l, applied: map[uint64]string{}}
}

func (a *fakeApplier) LastApplied() (uint64, uint32) {
	last := a.log.LastSeq()
	if last == 0 {
		return 0, 0
	}
	var crc uint32
	err := a.log.ReadRange(last, last, func(_ uint64, p []byte) error {
		crc = crc32.ChecksumIEEE(p)
		return nil
	})
	if err != nil {
		return last, 0 // e.g. right after a SkipTo: no record to verify
	}
	return last, crc
}

func (a *fakeApplier) Wipe(next uint64) error {
	if err := a.log.SkipTo(next); err != nil {
		return err
	}
	a.mu.Lock()
	a.applied = map[uint64]string{}
	a.wipes++
	a.mu.Unlock()
	return nil
}

func (a *fakeApplier) Apply(seq uint64, payload []byte) error {
	got, err := a.log.Append(payload)
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("mirror assigned %d, stream says %d", got, seq)
	}
	a.mu.Lock()
	a.applied[seq] = string(payload)
	a.mu.Unlock()
	return nil
}

func (a *fakeApplier) appliedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.applied)
}

func (a *fakeApplier) get(seq uint64) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.applied[seq]
	return s, ok
}

func (a *fakeApplier) wipeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.wipes
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startPrimary listens on loopback and serves.
func startPrimary(t *testing.T, p *Primary) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln) //nolint:errcheck
	t.Cleanup(p.Close)
	return ln.Addr().String()
}

// TestShipResumeResync walks the whole life of a follower: a fresh
// follower wipes and streams from the primary's first record, live
// records follow, a disconnect resumes cleanly, and once compaction has
// eaten the suffix it missed, the follower wipes again and streams from
// the first record the primary still holds.
func TestShipResumeResync(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	appendRecs := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := plog.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRecs(1, 2) // history a fresh follower must receive
	pm := newFakeMetrics()
	p := NewPrimary(plog, PrimaryOptions{Heartbeat: 50 * time.Millisecond, Metrics: pm})
	addr := startPrimary(t, p)

	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := NewFollower(addr, app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
	f.Start()

	// Fresh follower: first contact wipes and streams from record 1.
	waitFor(t, "history applied", func() bool { return app.appliedCount() == 2 })
	if app.wipeCount() != 1 {
		t.Fatalf("wipes = %d on first contact, want 1", app.wipeCount())
	}
	if got, _ := app.get(1); got != "rec-1" {
		t.Fatalf("applied[1] = %q", got)
	}

	// Live streaming.
	appendRecs(3, 7)
	waitFor(t, "7 records applied", func() bool { return app.appliedCount() == 7 })
	if got, _ := app.get(5); got != "rec-5" {
		t.Fatalf("applied[5] = %q", got)
	}

	// Disconnect, append while away, reconnect: sequence resume, no
	// second wipe.
	f.Stop()
	appendRecs(8, 10)
	f2 := NewFollower(addr, app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
	f2.Start()
	waitFor(t, "resume catches up", func() bool { return app.appliedCount() == 10 })
	if app.wipeCount() != 1 {
		t.Fatalf("wipes = %d after clean resume, want 1", app.wipeCount())
	}
	if got, _ := app.get(9); got != "rec-9" {
		t.Fatalf("applied[9] = %q", got)
	}

	// Lag past compaction: stop, let the primary truncate everything the
	// follower would need, reconnect — it must wipe and stream from the
	// first record still held.
	f2.Stop()
	appendRecs(11, 40)
	if err := plog.Truncate(plog.LastSeq()); err != nil {
		t.Fatal(err)
	}
	first := plog.FirstSeq()
	if first <= 11 {
		t.Fatalf("compaction left FirstSeq=%d; the gap scenario needs > 11", first)
	}
	f3 := NewFollower(addr, app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
	defer f3.Stop()
	f3.Start()
	waitFor(t, "gap wipe", func() bool { return app.wipeCount() == 2 })
	waitFor(t, "post-wipe catch-up", func() bool {
		seq, _ := app.LastApplied()
		return seq == plog.LastSeq()
	})
	if n, want := app.appliedCount(), int(plog.LastSeq()-first+1); n != want {
		t.Fatalf("after the wipe the follower holds %d records, want %d (from %d)", n, want, first)
	}
	if got, _ := app.get(first); got != fmt.Sprintf("rec-%d", first) {
		t.Fatalf("applied[%d] = %q", first, got)
	}
	// At least 2: the stream of a stopped follower may still count one
	// into a connection its peer already closed.
	if pm.counter("repl_wipes_sent_total") < 2 {
		t.Fatalf("repl_wipes_sent_total = %d, want >= 2", pm.counter("repl_wipes_sent_total"))
	}
	if pm.counter("repl_bytes_shipped_total") == 0 {
		t.Fatal("repl_bytes_shipped_total never counted")
	}
	if fm.counter("repl_records_applied_total") == 0 {
		t.Fatal("repl_records_applied_total never counted")
	}
}

// TestFencedPrimaryFramesRejected is the epoch-fencing unit test: a
// follower that has seen epoch 5 must reject every frame a stale
// epoch-1 primary sends, drop the connection, and count the rejection.
func TestFencedPrimaryFramesRejected(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()

	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := NewFollower("unused", app, FollowerOptions{Epoch: 5, Heartbeat: time.Second, Metrics: fm})

	// Fake stale primary: answer the hello with an epoch-1 welcome, then
	// try to feed an epoch-1 record.
	go func() {
		br := bufio.NewReader(server)
		if _, err := snapshot.ReadFrame(br, snapshot.MaxFrame); err != nil {
			return
		}
		server.Write(snapshot.AppendFrame(nil, encodeWelcome(1, false, 1)))        //nolint:errcheck
		server.Write(snapshot.AppendFrame(nil, encodeRecord(1, 1, []byte("bad")))) //nolint:errcheck
	}()

	err := f.session(client)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("session err = %v, want ErrFenced", err)
	}
	if app.appliedCount() != 0 {
		t.Fatal("a fenced primary's record was applied")
	}
	if fm.counter("repl_epoch_rejected_total") != 1 {
		t.Fatalf("repl_epoch_rejected_total = %d, want 1", fm.counter("repl_epoch_rejected_total"))
	}
}

// TestFencedMidStream checks the per-frame epoch guard: a session that
// started healthy rejects the moment a frame regresses (the partition
// scenario: promote happened elsewhere, this primary doesn't know).
func TestFencedMidStream(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()

	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := NewFollower("unused", app, FollowerOptions{Epoch: 1, Heartbeat: time.Second, Metrics: fm})

	go func() {
		br := bufio.NewReader(server)
		if _, err := snapshot.ReadFrame(br, snapshot.MaxFrame); err != nil {
			return
		}
		// Welcome at epoch 2 (the follower advances), then a record from
		// epoch 1 — a fenced ex-primary's frame.
		server.Write(snapshot.AppendFrame(nil, encodeWelcome(2, false, 1)))          //nolint:errcheck
		server.Write(snapshot.AppendFrame(nil, encodeRecord(1, 1, []byte("stale")))) //nolint:errcheck
	}()

	err := f.session(client)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("session err = %v, want ErrFenced", err)
	}
	if app.appliedCount() != 0 {
		t.Fatal("stale record applied")
	}
	if f.Epoch() != 2 {
		t.Fatalf("follower epoch = %d, want 2 (advanced by the welcome)", f.Epoch())
	}
}

// TestStalePrimaryRefusesSuperiorFollower checks the primary-side
// guard: a hello reporting a higher epoch than ours means we are the
// fenced ex-primary; the session must be refused.
func TestStalePrimaryRefusesSuperiorFollower(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	pm := newFakeMetrics()
	p := NewPrimary(plog, PrimaryOptions{Epoch: 3, Heartbeat: 50 * time.Millisecond, Metrics: pm})
	addr := startPrimary(t, p)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(snapshot.AppendFrame(nil, encodeHello(0, 0, 9))); err != nil {
		t.Fatal(err)
	}
	// The primary must hang up without a welcome.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if body, err := snapshot.ReadFrame(br, snapshot.MaxFrame); err == nil {
		fr, _ := decodeFrame(body)
		t.Fatalf("fenced primary answered with kind %d", fr.kind)
	}
	waitFor(t, "stale-primary metric", func() bool { return pm.counter("repl_stale_primary_total") == 1 })
}

// TestEpochPersistence checks the epoch round-trip and that a follower
// persists a newly seen epoch before accepting frames under it.
func TestEpochPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), EpochFile)
	if e, err := LoadEpoch(path); err != nil || e != 1 {
		t.Fatalf("LoadEpoch(absent) = %d, %v; want 1, nil", e, err)
	}
	if err := SaveEpoch(path, 7); err != nil {
		t.Fatal(err)
	}
	if e, err := LoadEpoch(path); err != nil || e != 7 {
		t.Fatalf("LoadEpoch = %d, %v; want 7, nil", e, err)
	}

	// A follower meeting a higher epoch persists it before applying.
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	p := NewPrimary(plog, PrimaryOptions{Epoch: 9, Heartbeat: 50 * time.Millisecond})
	addr := startPrimary(t, p)
	app := newFakeApplier(t)
	persisted := make(chan uint64, 4)
	f := NewFollower(addr, app, FollowerOptions{
		Epoch:        7,
		Heartbeat:    50 * time.Millisecond,
		PersistEpoch: func(e uint64) error { persisted <- e; return nil },
	})
	f.Start()
	defer f.Stop()
	select {
	case e := <-persisted:
		if e != 9 {
			t.Fatalf("persisted epoch %d, want 9", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("epoch never persisted")
	}
	waitFor(t, "epoch adopted", func() bool { return f.Epoch() == 9 })
}

// TestFollowerHealth exercises the follower's staleness signal (what
// repl_lag_seconds exports): fresh while frames flow, growing past the
// heartbeat once the primary goes silent.
func TestFollowerHealth(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	p := NewPrimary(plog, PrimaryOptions{Heartbeat: 20 * time.Millisecond})
	addr := startPrimary(t, p)
	app := newFakeApplier(t)
	const lagBound = 250 * time.Millisecond
	f := NewFollower(addr, app, FollowerOptions{Heartbeat: 20 * time.Millisecond})
	f.Start()
	defer f.Stop()
	waitFor(t, "first contact", func() bool { return f.Status().Connected })
	if since := f.Status().SinceContact; since > lagBound {
		t.Fatalf("healthy follower last heard from its primary %v ago", since)
	}
	p.Close() // primary dies; heartbeats stop
	waitFor(t, "lag bound breach", func() bool { return f.Status().SinceContact > lagBound })
}

package repl

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
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
func (m *fakeMetrics) gauge(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
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

// startPrimary serves plog as the mesh node "primary".
func startPrimary(t *testing.T, mesh *transport.Mesh, plog *wal.Log, opt PrimaryOptions) *Primary {
	t.Helper()
	p, err := NewPrimary(plog, mesh.Node("primary"), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// newFollower builds a follower of "primary" on the mesh node name.
func newFollower(t *testing.T, mesh *transport.Mesh, name string, app Applier, opt FollowerOptions) *Follower {
	t.Helper()
	f, err := NewFollower(mesh.Node(name), "primary", app, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// fakePrimary starts the mesh node "primary" answering each pull with
// answer's batch; answer returns false to leave a pull unanswered.
func fakePrimary(t *testing.T, mesh *transport.Mesh, answer func(wire.ReplPull) (wire.ReplBatch, bool)) *transport.InProc {
	t.Helper()
	n := mesh.Node("primary")
	err := n.Start(func(from string, fr wire.Frame) {
		if pull, ok := fr.(wire.ReplPull); ok {
			if b, ok := answer(pull); ok {
				b.Nonce = pull.Nonce
				n.Send(from, b) //nolint:errcheck
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
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
	mesh := transport.NewMesh()
	startPrimary(t, mesh, plog, PrimaryOptions{Metrics: pm})

	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := newFollower(t, mesh, "f1", app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
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
	f2 := newFollower(t, mesh, "f2", app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
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
	f3 := newFollower(t, mesh, "f3", app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
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
	// At least 2: a stopped follower's last pull may still be answered
	// with a wipe nobody applies.
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
	mesh := transport.NewMesh()
	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := newFollower(t, mesh, "fol", app, FollowerOptions{Epoch: 5, Heartbeat: time.Second, Metrics: fm})

	// Fake stale primary: answer the pull with an epoch-1 batch that
	// tries to feed a record.
	fakePrimary(t, mesh, func(wire.ReplPull) (wire.ReplBatch, bool) {
		return wire.ReplBatch{Epoch: 1, Start: 1, Last: 1, Records: [][]byte{[]byte("bad")}}, true
	})

	err := f.pull()
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
	mesh := transport.NewMesh()
	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := newFollower(t, mesh, "fol", app, FollowerOptions{Epoch: 1, Heartbeat: time.Second, Metrics: fm})

	// An empty batch at epoch 2 (the follower advances), then a record
	// from epoch 1 — a fenced ex-primary's batch.
	pulls := 0
	fakePrimary(t, mesh, func(wire.ReplPull) (wire.ReplBatch, bool) {
		if pulls++; pulls == 1 {
			return wire.ReplBatch{Epoch: 2, Start: 1}, true
		}
		return wire.ReplBatch{Epoch: 1, Start: 1, Last: 1, Records: [][]byte{[]byte("stale")}}, true
	})
	if err := f.pull(); err != nil {
		t.Fatal(err)
	}

	err := f.pull()
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
// guard: a pull reporting a higher epoch than ours means we are the
// fenced ex-primary; the pull must go unanswered.
func TestStalePrimaryRefusesSuperiorFollower(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	pm := newFakeMetrics()
	mesh := transport.NewMesh()
	startPrimary(t, mesh, plog, PrimaryOptions{Epoch: 3, Metrics: pm})

	answers := make(chan wire.Frame, 1)
	fol := mesh.Node("fol")
	if err := fol.Start(func(_ string, fr wire.Frame) { answers <- fr }); err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.Send("primary", wire.ReplPull{Nonce: 1, Epoch: 9, WaitMS: 50}); err != nil {
		t.Fatal(err)
	}
	// The primary must not answer, not even after the pull's wait.
	select {
	case fr := <-answers:
		t.Fatalf("fenced primary answered with %T", fr)
	case <-time.After(6 * 50 * time.Millisecond):
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
	mesh := transport.NewMesh()
	startPrimary(t, mesh, plog, PrimaryOptions{Epoch: 9})
	app := newFakeApplier(t)
	persisted := make(chan uint64, 4)
	f := newFollower(t, mesh, "fol", app, FollowerOptions{
		Epoch:        7,
		Heartbeat:    50 * time.Millisecond,
		PersistEpoch: func(e uint64) error { persisted <- e; return nil },
	})
	f.Start()
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
	mesh := transport.NewMesh()
	p := startPrimary(t, mesh, plog, PrimaryOptions{})
	app := newFakeApplier(t)
	const lagBound = 250 * time.Millisecond
	f := newFollower(t, mesh, "fol", app, FollowerOptions{Heartbeat: 20 * time.Millisecond})
	f.Start()
	waitFor(t, "first contact", func() bool { return f.Status().Connected })
	if since := f.Status().SinceContact; since > lagBound {
		t.Fatalf("healthy follower last heard from its primary %v ago", since)
	}
	p.Close() // primary dies; heartbeats stop
	waitFor(t, "lag bound breach", func() bool { return f.Status().SinceContact > lagBound })
}

// TestSupersededPullAnswerIgnored: a transport replay can deliver the
// answer to a pull the follower has given up on after the pull that
// replaced it. The follower applies only the answer to its latest pull.
func TestSupersededPullAnswerIgnored(t *testing.T) {
	mesh := transport.NewMesh()
	app := newFakeApplier(t)
	f := newFollower(t, mesh, "fol", app, FollowerOptions{Heartbeat: 10 * time.Millisecond})
	pulls := make(chan wire.ReplPull, 4)
	prim := fakePrimary(t, mesh, func(p wire.ReplPull) (wire.ReplBatch, bool) {
		pulls <- p
		return wire.ReplBatch{}, false
	})
	if err := f.pull(); !errors.Is(err, errSilent) {
		t.Fatalf("unanswered pull: err = %v, want errSilent", err)
	}
	first := <-pulls
	done := make(chan error, 1)
	go func() { done <- f.pull() }()
	second := <-pulls
	for _, b := range []wire.ReplBatch{
		{Nonce: first.Nonce, Epoch: 1, Start: 1, Last: 1, Records: [][]byte{[]byte("superseded")}},
		{Nonce: second.Nonce, Epoch: 1, Start: 1, Last: 1, Records: [][]byte{[]byte("latest")}},
	} {
		if err := prim.Send("fol", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, _ := app.get(1); got != "latest" || app.appliedCount() != 1 {
		t.Fatalf("applied[1] = %q of %d records, want \"latest\" alone", got, app.appliedCount())
	}
}

// TestPrimaryForgetsSilentFollower: repl_followers counts the followers
// that pulled within six of their waits; one that stops pulling drops
// out, the last one too.
func TestPrimaryForgetsSilentFollower(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	pm := newFakeMetrics()
	mesh := transport.NewMesh()
	startPrimary(t, mesh, plog, PrimaryOptions{Metrics: pm})
	var fols []*Follower
	for _, name := range []string{"f1", "f2"} {
		f := newFollower(t, mesh, name, newFakeApplier(t), FollowerOptions{Heartbeat: 20 * time.Millisecond})
		f.Start()
		fols = append(fols, f)
	}
	waitFor(t, "two followers", func() bool { return pm.gauge("repl_followers") == 2 })
	fols[0].Stop()
	waitFor(t, "the stopped follower forgotten", func() bool { return pm.gauge("repl_followers") == 1 })
	fols[1].Stop()
	waitFor(t, "the last follower forgotten", func() bool { return pm.gauge("repl_followers") == 0 })
}

// slowLink is a transport whose sends cross a link of rate bytes per
// second: a frame reaches the inner transport after the frames sent
// before it, once its encoded size has crossed.
type slowLink struct {
	transport.Transport
	rate  int
	queue chan slowFrame
	done  chan struct{}
}

type slowFrame struct {
	node string
	f    wire.Frame
}

func newSlowLink(inner transport.Transport, rate int) *slowLink {
	l := &slowLink{Transport: inner, rate: rate, queue: make(chan slowFrame, 64), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *slowLink) Send(node string, f wire.Frame) error {
	select {
	case l.queue <- slowFrame{node, f}:
		return nil
	case <-l.done:
		return transport.ErrClosed
	}
}

func (l *slowLink) run() {
	for {
		select {
		case <-l.done:
			return
		case sf := <-l.queue:
			size := len(wire.AppendFrame(nil, 0, sf.f))
			select {
			case <-l.done:
				return
			case <-time.After(time.Duration(size) * time.Second / time.Duration(l.rate)):
			}
			l.Transport.Send(sf.node, sf.f) //nolint:errcheck
		}
	}
}

func (l *slowLink) Close() error {
	close(l.done)
	return l.Transport.Close()
}

// TestSlowLinkCatchUp: a follower with a large backlog behind a slow
// link catches up. Each batch crosses well inside the six heartbeats
// after which the follower pulls again; one batch of the whole backlog
// would not, and the follower would drop every late answer and never
// finish.
func TestSlowLinkCatchUp(t *testing.T) {
	plog, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	const recs = 48 // 6 MiB of 128 KiB records
	rec := make([]byte, 128<<10)
	for i := 0; i < recs; i++ {
		rec[0] = byte(i)
		if _, err := plog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mesh := transport.NewMesh()
	// At 8 MiB/s the backlog takes 750 ms to cross and a batch 125 ms,
	// against the 300 ms after which the follower pulls again.
	p, err := NewPrimary(plog, newSlowLink(mesh.Node("primary"), 8<<20), PrimaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	app := newFakeApplier(t)
	fm := newFakeMetrics()
	f := newFollower(t, mesh, "fol", app, FollowerOptions{Heartbeat: 50 * time.Millisecond, Metrics: fm})
	f.Start()
	waitFor(t, "the backlog applied", func() bool { return app.appliedCount() == recs })
	if got, _ := app.get(recs); got == "" || got[0] != recs-1 {
		t.Fatalf("applied[%d] = %.8q…, want it to start %d", recs, got, recs-1)
	}
	t.Logf("caught up with %d re-pulls", fm.counter("repl_reconnects_total"))
}

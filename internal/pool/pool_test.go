package pool

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ---- scheduler properties ----

// TestLeastLoadedBalanceBound: placing sessions one at a time, feeding
// each placement back into the load picture, least-loaded keeps the
// spread between the fullest and emptiest worker at most one.
func TestLeastLoadedBalanceBound(t *testing.T) {
	workers := []WorkerLoad{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}}
	for i := 0; i < 300; i++ {
		pick := leastLoaded(workers)
		found := false
		for j := range workers {
			if workers[j].Name == pick {
				workers[j].Active++
				found = true
			}
		}
		if !found {
			t.Fatalf("picked %q, not a candidate", pick)
		}
		min, max := workers[0].Active, workers[0].Active
		for _, w := range workers[1:] {
			if w.Active < min {
				min = w.Active
			}
			if w.Active > max {
				max = w.Active
			}
		}
		if max-min > 1 {
			t.Fatalf("after %d placements: spread %d (loads %+v)", i+1, max-min, workers)
		}
	}
}

// TestLeastLoadedCountsQueue: a worker with a deep queue loses to an
// idle one even when it holds fewer sessions.
func TestLeastLoadedCountsQueue(t *testing.T) {
	got := leastLoaded([]WorkerLoad{
		{Name: "a", Active: 1, Queued: 10},
		{Name: "b", Active: 3, Queued: 0},
	})
	if got != "b" {
		t.Fatalf("picked %q, want the shallow-queue worker", got)
	}
}

// ---- worker idempotency over a mesh ----

// fakeBackend counts evaluations so the dedup tests can prove a
// duplicate never re-evaluates.
type fakeBackend struct {
	mu        sync.Mutex
	creates   int
	appends   map[string]int
	evaluated map[string][]string // alarms of each evaluated append, in order
	live      map[string]bool
	replays   map[string][]string // records each Replay received

	// Set before the worker starts: every Append waits for gate (when
	// non-nil), counted in held meanwhile, then sleeps delay.
	gate  chan struct{}
	held  atomic.Int32
	delay time.Duration
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{appends: make(map[string]int), evaluated: make(map[string][]string),
		live: make(map[string]bool), replays: make(map[string][]string)}
}

func (b *fakeBackend) Create(id, netText, engine string, maxFacts int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.creates++
	b.live[id] = true
	return []byte(fmt.Sprintf("created:%s", id)), nil
}

func (b *fakeBackend) Append(id, alarms string, timeout time.Duration) ([]byte, error) {
	if b.gate != nil {
		b.held.Add(1)
		<-b.gate
		b.held.Add(-1)
	}
	time.Sleep(b.delay)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.appends[id]++
	b.evaluated[id] = append(b.evaluated[id], alarms)
	return []byte(fmt.Sprintf("append:%d", b.appends[id])), nil
}

func (b *fakeBackend) Get(id string) ([]byte, error)   { return []byte("state"), nil }
func (b *fakeBackend) Delete(id string) error          { return nil }
func (b *fakeBackend) Ship(id string) ([]byte, error)  { return []byte("cp:" + id), nil }
func (b *fakeBackend) Classify(error) (uint32, uint32) { return wire.SessRetry, 0 }
func (b *fakeBackend) Active() int                     { b.mu.Lock(); defer b.mu.Unlock(); return len(b.live) }
func (b *fakeBackend) Replay(id string, records []byte, timeout time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.replays[id] = append(b.replays[id], string(records))
	b.live[id] = true
	return nil
}
func (b *fakeBackend) appendEvals(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appends[id]
}

// workerRig starts one Worker per name over an in-process mesh, all on
// one backend, and returns a synchronous call into any of them.
func workerRig(t *testing.T, backend Backend, names ...string) func(worker string, job wire.SessionJob) wire.SessionReply {
	t.Helper()
	mesh := transport.NewMesh()
	for _, name := range names {
		w := NewWorker(WorkerConfig{Transport: mesh.Node(name), Backend: backend})
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		t.Cleanup(func() { mesh.Node(name).Close() }) //nolint:errcheck
	}

	replies := make(chan wire.SessionReply, 16)
	fe := mesh.Node("fe")
	if err := fe.Start(func(from string, f wire.Frame) {
		if rep, ok := f.(wire.SessionReply); ok {
			replies <- rep
		}
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() }) //nolint:errcheck

	var req uint64
	return func(worker string, job wire.SessionJob) wire.SessionReply {
		t.Helper()
		req++
		job.Req, job.Frontend = req, "fe"
		if err := fe.Send(worker, job); err != nil {
			t.Fatal(err)
		}
		select {
		case rep := <-replies:
			if rep.Req != req {
				t.Fatalf("reply for req %d, want %d", rep.Req, req)
			}
			return rep
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to op %d", job.Op)
			return wire.SessionReply{}
		}
	}
}

// TestWorkerAppendDedup drives a worker directly with SessionJob frames
// and checks its idempotency contract: duplicate indexes return the
// memoized reply without re-evaluating, gaps are refused with
// SessOutOfSync.
func TestWorkerAppendDedup(t *testing.T) {
	backend := newFakeBackend()
	call := workerRig(t, backend, "w1")
	roundTrip := func(job wire.SessionJob) wire.SessionReply { return call("w1", job) }

	if rep := roundTrip(wire.SessionJob{Op: wire.SessCreate, Session: "s1"}); rep.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", rep.Code, rep.Err)
	}
	// A duplicate create resends the first reply instead of re-admitting.
	rep := roundTrip(wire.SessionJob{Op: wire.SessCreate, Session: "s1"})
	if rep.Code != wire.SessOK || string(rep.Blob) != "created:s1" {
		t.Fatalf("retried create: code %d blob %q", rep.Code, rep.Blob)
	}
	if backend.creates != 1 {
		t.Fatalf("backend created %d times, want 1", backend.creates)
	}

	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 1}); string(rep.Blob) != "append:1" {
		t.Fatalf("append 1: %q", rep.Blob)
	}
	// Duplicate of index 1: memoized, not re-evaluated.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 1}); string(rep.Blob) != "append:1" {
		t.Fatalf("duplicate append: %q", rep.Blob)
	}
	if n := backend.appendEvals("s1"); n != 1 {
		t.Fatalf("backend evaluated %d appends, want 1", n)
	}
	// An index gap means the frontend and worker diverged.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 3}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("gap append: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 2}); string(rep.Blob) != "append:2" {
		t.Fatalf("append 2: %q", rep.Blob)
	}
	// Appends to a session the worker never admitted are NotFound — the
	// frontend's cue to re-materialize.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "ghost", Index: 1}); rep.Code != wire.SessNotFound {
		t.Fatalf("ghost append: code %d, want SessNotFound", rep.Code)
	}
	// A replay installs the appends its records cover so dedup resumes there.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessReplay, Session: "s2", Index: 7, Blob: []byte("records")}); rep.Code != wire.SessOK {
		t.Fatalf("replay: code %d err %q", rep.Code, rep.Err)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 9}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("post-replay gap: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 8}); rep.Code != wire.SessOK {
		t.Fatalf("post-replay append: code %d", rep.Code)
	}
}

// TestWorkerReplayIndex: a ship reply carries the bare checkpoint, and
// a replay job carrying a session's records and the appends they cover
// resumes dedup exactly there on another worker — the migration path.
func TestWorkerReplayIndex(t *testing.T) {
	backend := newFakeBackend()
	call := workerRig(t, backend, "w1", "w2")
	if rep := call("w1", wire.SessionJob{Op: wire.SessCreate, Session: "s1"}); rep.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", rep.Code, rep.Err)
	}
	for i := uint64(1); i <= 3; i++ {
		if rep := call("w1", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: i}); rep.Code != wire.SessOK {
			t.Fatalf("append %d: code %d err %q", i, rep.Code, rep.Err)
		}
	}
	ship := call("w1", wire.SessionJob{Op: wire.SessShip, Session: "s1"})
	if ship.Code != wire.SessOK || string(ship.Blob) != "cp:s1" {
		t.Fatalf("ship: code %d blob %q, want the bare checkpoint", ship.Code, ship.Blob)
	}

	if rep := call("w2", wire.SessionJob{Op: wire.SessReplay, Session: "s1", Index: 3, Blob: []byte("records:s1")}); rep.Code != wire.SessOK {
		t.Fatalf("replay: code %d err %q", rep.Code, rep.Err)
	}
	backend.mu.Lock()
	replayed := backend.replays["s1"]
	backend.mu.Unlock()
	if len(replayed) != 1 || replayed[0] != "records:s1" {
		t.Fatalf("backend replayed %q, want the shipped records once", replayed)
	}
	evals := backend.appendEvals("s1")
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 3}); rep.Code != wire.SessOK || backend.appendEvals("s1") != evals {
		t.Fatalf("append 3 after replay: code %d, %d evaluations (want a dedup, %d)", rep.Code, backend.appendEvals("s1"), evals)
	}
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 5}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("append 5 after replay: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 4}); rep.Code != wire.SessOK || backend.appendEvals("s1") != evals+1 {
		t.Fatalf("append 4 after replay: code %d, %d evaluations, want %d", rep.Code, backend.appendEvals("s1"), evals+1)
	}
}

// memLog is a Log over an in-memory record list: each record names its
// op, and a ship record is a session's new base.
type memLog struct {
	mu      sync.Mutex
	records map[string][]string
	reads   int
}

func (l *memLog) Commit(job wire.SessionJob, rep wire.SessionReply) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case job.Op == wire.SessShip:
		l.records[job.Session] = []string{"checkpoint:" + string(rep.Blob)}
	case job.Op == wire.SessCreate || job.Op == wire.SessAppend && rep.Code == wire.SessOK:
		l.records[job.Session] = append(l.records[job.Session], fmt.Sprintf("op%d:%s", job.Op, job.Alarms))
	case job.Op == wire.SessDelete:
		delete(l.records, job.Session)
	}
	return nil
}

func (l *memLog) Records(ids []string) map[string][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads++
	out := make(map[string][]byte)
	for _, id := range ids {
		out[id] = []byte(strings.Join(l.records[id], "|"))
	}
	return out
}

// TestRematerializeIsOneJob: a session whose worker dies after k appends
// past its checkpoint comes back on another worker from one replay job
// carrying the checkpoint and the k appends, with its append index intact
// — not from a create or load plus k append round trips.
func TestRematerializeIsOneJob(t *testing.T) {
	mesh := transport.NewMesh()
	backends := map[string]*fakeBackend{"w1": newFakeBackend(), "w2": newFakeBackend()}
	for _, name := range []string{"w1", "w2"} {
		w := NewWorker(WorkerConfig{Transport: mesh.Node(name), Backend: backends[name]})
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	log := &memLog{records: make(map[string][]string)}
	p, err := New(Config{Transport: mesh.Node("fe"), Workers: []string{"w1", "w2"}, Log: log, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	res := p.Create("net", "dqsq", 0, time.Second)
	if res.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", res.Code, res.Err)
	}
	id := strings.TrimPrefix(string(res.Body), "created:")
	appendOK := func(alarms string) {
		t.Helper()
		if res := p.Append(id, alarms, time.Second); res.Code != wire.SessOK {
			t.Fatalf("append %s: code %d err %q", alarms, res.Code, res.Err)
		}
	}
	for _, a := range []string{"a1", "a2", "a3"} {
		appendOK(a)
	}
	if err := p.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	const k = 4
	for i := 1; i <= k; i++ {
		appendOK(fmt.Sprintf("b%d", i))
	}
	home, _ := p.SessionWorker(id)
	other := map[string]string{"w1": "w2", "w2": "w1"}[home]
	mesh.Node(home).Close() //nolint:errcheck // the kill under test

	appendOK("c1")
	if now, _ := p.SessionWorker(id); now != other {
		t.Fatalf("session on %q after the kill, want %q", now, other)
	}
	b := backends[other]
	b.mu.Lock()
	defer b.mu.Unlock()
	want := "checkpoint:cp:" + id + "|op2:b1|op2:b2|op2:b3|op2:b4"
	if got := b.replays[id]; len(got) != 1 || got[0] != want {
		t.Fatalf("replays on %s: %q, want one carrying %q", other, got, want)
	}
	if b.creates != 0 || b.appends[id] != 1 {
		t.Fatalf("%s evaluated %d creates and %d appends, want 0 and only the new one", other, b.creates, b.appends[id])
	}
	if log.reads != 1 {
		t.Fatalf("log read %d times, want 1", log.reads)
	}
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPoolAnswerMatchesEvaluation: an append that waits behind a full
// executor queue is answered by its own evaluation. A second copy of
// the job sent while the first waited would be shed with SessSaturated
// and answered as that; the first copy would still be evaluated later,
// and the next append, carrying the same index, would get its memoized
// reply — leaving the log with an append the worker never evaluated.
func TestPoolAnswerMatchesEvaluation(t *testing.T) {
	mesh := transport.NewMesh()
	backend := newFakeBackend()
	backend.gate = make(chan struct{})
	w := NewWorker(WorkerConfig{Transport: mesh.Node("w1"), Backend: backend})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	log := &memLog{records: make(map[string][]string)}
	p, err := New(Config{Transport: mesh.Node("fe"), Workers: []string{"w1"}, Log: log, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	res := p.Create("net", "dqsq", 0, 5*time.Second)
	if res.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", res.Code, res.Err)
	}
	id := strings.TrimPrefix(string(res.Body), "created:")

	// A filler node parks one append of a session on the target's
	// executor, then queues queueDepth-1 jobs behind it.
	filler := mesh.Node("filler")
	if err := filler.Start(func(string, wire.Frame) {}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() }) //nolint:errcheck
	var fid string
	for i := 0; ; i++ {
		if fid = fmt.Sprintf("filler%d", i); hash64(fid)%executors == hash64(id)%executors {
			break
		}
	}
	send := func(job wire.SessionJob) {
		t.Helper()
		job.Frontend = "filler"
		if err := filler.Send("w1", job); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.SessionJob{Op: wire.SessCreate, Session: fid})
	send(wire.SessionJob{Op: wire.SessAppend, Session: fid, Index: 1})
	waitUntil(t, "the filler append to park", func() bool { return backend.held.Load() == 1 })
	for i := 0; i < queueDepth-1; i++ {
		send(wire.SessionJob{Op: wire.SessGet, Session: fid})
	}
	waitUntil(t, "the filler jobs to queue", func() bool { return w.queued.Load() == queueDepth-1 })

	// The target's append takes the last slot and waits well past 25ms
	// (where a re-send timer would have fired) before the queue drains.
	first := make(chan Result, 1)
	go func() { first <- p.Append(id, "A1", 5*time.Second) }()
	waitUntil(t, "the target append to queue", func() bool { return w.queued.Load() == queueDepth })
	time.Sleep(200 * time.Millisecond)
	close(backend.gate)
	answers := map[string]Result{"A1": <-first}
	waitUntil(t, "the queue to drain", func() bool { return w.queued.Load() == 0 })
	answers["A2"] = p.Append(id, "A2", 5*time.Second)

	backend.mu.Lock()
	evaluated := append([]string(nil), backend.evaluated[id]...)
	backend.mu.Unlock()
	for alarms, res := range answers {
		for _, e := range evaluated {
			if res.Code != wire.SessOK && e == alarms {
				t.Errorf("append %s answered with code %d (%q) but evaluated", alarms, res.Code, res.Err)
			}
		}
	}
	var want []string
	for _, a := range evaluated {
		want = append(want, "op2:"+a)
	}
	log.mu.Lock()
	logged := log.records[id][1:] // past the create
	log.mu.Unlock()
	if strings.Join(logged, "|") != strings.Join(want, "|") {
		t.Fatalf("log holds appends %q, the worker evaluated %q", logged, evaluated)
	}
}

// countingTransport counts the SessionJob frames its node receives, per
// request ID.
type countingTransport struct {
	transport.Transport
	mu   sync.Mutex
	jobs map[uint64]int
}

func (c *countingTransport) Start(h transport.Handler) error {
	return c.Transport.Start(func(from string, f wire.Frame) {
		if job, ok := f.(wire.SessionJob); ok {
			c.mu.Lock()
			c.jobs[job.Req]++
			c.mu.Unlock()
		}
		h(from, f)
	})
}

// TestPoolSendsEachJobOnce: with appends slower than 25ms, the worker
// still receives every pooled job exactly once.
func TestPoolSendsEachJobOnce(t *testing.T) {
	mesh := transport.NewMesh()
	backend := newFakeBackend()
	backend.delay = 60 * time.Millisecond
	tr := &countingTransport{Transport: mesh.Node("w1"), jobs: make(map[uint64]int)}
	w := NewWorker(WorkerConfig{Transport: tr, Backend: backend})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	p, err := New(Config{Transport: mesh.Node("fe"), Workers: []string{"w1"}, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	res := p.Create("net", "dqsq", 0, 5*time.Second)
	if res.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", res.Code, res.Err)
	}
	id := strings.TrimPrefix(string(res.Body), "created:")
	for _, a := range []string{"a1", "a2", "a3"} {
		if res := p.Append(id, a, 5*time.Second); res.Code != wire.SessOK {
			t.Fatalf("append %s: code %d err %q", a, res.Code, res.Err)
		}
	}
	if res := p.Get(id, 5*time.Second); res.Code != wire.SessOK {
		t.Fatalf("get: code %d err %q", res.Code, res.Err)
	}
	if res := p.Delete(id, 5*time.Second); res.Code != wire.SessOK {
		t.Fatalf("delete: code %d err %q", res.Code, res.Err)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.jobs) != 6 {
		t.Errorf("worker saw %d requests, want 6 (create, 3 appends, get, delete)", len(tr.jobs))
	}
	for req, n := range tr.jobs {
		if n != 1 {
			t.Errorf("request %d reached the worker %d times", req, n)
		}
	}
}

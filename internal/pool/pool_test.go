package pool

import (
	"fmt"
	"sync"
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
	var p LeastLoaded
	for i := 0; i < 300; i++ {
		pick := p.Pick(fmt.Sprintf("s%d", i), workers)
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
	got := LeastLoaded{}.Pick("s", []WorkerLoad{
		{Name: "a", Active: 1, Queued: 10},
		{Name: "b", Active: 3, Queued: 0},
	})
	if got != "b" {
		t.Fatalf("picked %q, want the shallow-queue worker", got)
	}
}

// TestConsistentHashAffinity: the ring is a pure function of session and
// candidate set, and removing one worker only moves the sessions that
// hashed to it — everyone else's placement is stable.
func TestConsistentHashAffinity(t *testing.T) {
	full := []WorkerLoad{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}}
	var without []WorkerLoad
	for _, w := range full {
		if w.Name != "w3" {
			without = append(without, w)
		}
	}
	var p ConsistentHash
	moved, onRemoved := 0, 0
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("session-%d", i)
		first := p.Pick(id, full)
		if again := p.Pick(id, full); again != first {
			t.Fatalf("%s: unstable pick %q then %q on identical candidates", id, first, again)
		}
		second := p.Pick(id, without)
		if first == "w3" {
			onRemoved++
			if second == "w3" {
				t.Fatalf("%s: picked the removed worker", id)
			}
			continue
		}
		if second != first {
			moved++
		}
	}
	if onRemoved == 0 {
		t.Fatal("no session ever hashed to w3; ring is degenerate")
	}
	if moved != 0 {
		t.Fatalf("%d sessions moved that were not on the removed worker", moved)
	}
}

// TestConsistentHashSpread: with the default 64 virtual nodes no worker
// captures a grossly lopsided share. FNV and the vnode keys are fixed,
// so this is deterministic, not flaky.
func TestConsistentHashSpread(t *testing.T) {
	candidates := []WorkerLoad{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}, {Name: "w4"}, {Name: "w5"}}
	counts := make(map[string]int)
	var p ConsistentHash
	const n = 1000
	for i := 0; i < n; i++ {
		counts[p.Pick(fmt.Sprintf("session-%d", i), candidates)]++
	}
	for _, c := range candidates {
		got := counts[c.Name]
		if got == 0 {
			t.Fatalf("worker %s never picked: %v", c.Name, counts)
		}
		if got > n/2 {
			t.Fatalf("worker %s captured %d of %d sessions: %v", c.Name, got, n, counts)
		}
	}
}

// ---- worker idempotency over a mesh ----

// fakeBackend counts evaluations so the dedup tests can prove a retried
// or hedged duplicate never re-evaluates.
type fakeBackend struct {
	mu      sync.Mutex
	creates int
	appends map[string]int
	live    map[string]bool
	loaded  map[string]string // checkpoint bytes each Load received
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{appends: make(map[string]int), live: make(map[string]bool), loaded: make(map[string]string)}
}

func (b *fakeBackend) Create(id, netText, engine string, maxFacts int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.creates++
	b.live[id] = true
	return []byte(fmt.Sprintf("created:%s", id)), nil
}

func (b *fakeBackend) Append(id, alarms string, timeout time.Duration) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.appends[id]++
	return []byte(fmt.Sprintf("append:%d", b.appends[id])), nil
}

func (b *fakeBackend) Get(id string) ([]byte, error)   { return []byte("state"), nil }
func (b *fakeBackend) Delete(id string) error          { return nil }
func (b *fakeBackend) Ship(id string) ([]byte, error)  { return []byte("cp:" + id), nil }
func (b *fakeBackend) Classify(error) (uint32, uint32) { return wire.SessRetry, 0 }
func (b *fakeBackend) Active() int                     { b.mu.Lock(); defer b.mu.Unlock(); return len(b.live) }
func (b *fakeBackend) Load(id string, checkpoint []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loaded[id] = string(checkpoint)
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
// and checks the idempotency contract retry and hedging depend on:
// duplicate indexes return the memoized reply without re-evaluating,
// gaps are refused with SessOutOfSync.
func TestWorkerAppendDedup(t *testing.T) {
	backend := newFakeBackend()
	call := workerRig(t, backend, "w1")
	roundTrip := func(job wire.SessionJob) wire.SessionReply { return call("w1", job) }

	if rep := roundTrip(wire.SessionJob{Op: wire.SessCreate, Session: "s1"}); rep.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", rep.Code, rep.Err)
	}
	// A retried create resends the first reply instead of re-admitting.
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
	// Duplicate of index 1 (a hedge or retry): memoized, not re-evaluated.
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
	// A load installs the shipped applied-index so dedup resumes there.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessLoad, Session: "s2", Index: 7, Blob: []byte("cp")}); rep.Code != wire.SessOK {
		t.Fatalf("load: code %d err %q", rep.Code, rep.Err)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 9}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("post-load gap: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 8}); rep.Code != wire.SessOK {
		t.Fatalf("post-load append: code %d", rep.Code)
	}
}

// TestWorkerShipLoadIndex: a ship reply carries the applied-append index
// beside the bare checkpoint bytes, and a load that sends both back
// resumes dedup exactly there on another worker — the drain migration
// path.
func TestWorkerShipLoadIndex(t *testing.T) {
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
	if ship.Code != wire.SessOK || ship.Index != 3 || string(ship.Blob) != "cp:s1" {
		t.Fatalf("ship: code %d index %d blob %q, want index 3 and the bare checkpoint", ship.Code, ship.Index, ship.Blob)
	}

	if rep := call("w2", wire.SessionJob{Op: wire.SessLoad, Session: "s1", Index: ship.Index, Blob: ship.Blob}); rep.Code != wire.SessOK {
		t.Fatalf("load: code %d err %q", rep.Code, rep.Err)
	}
	backend.mu.Lock()
	loaded := backend.loaded["s1"]
	backend.mu.Unlock()
	if loaded != "cp:s1" {
		t.Fatalf("backend loaded %q, want the shipped checkpoint", loaded)
	}
	evals := backend.appendEvals("s1")
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 3}); rep.Code != wire.SessOK || backend.appendEvals("s1") != evals {
		t.Fatalf("append 3 after load: code %d, %d evaluations (want a dedup, %d)", rep.Code, backend.appendEvals("s1"), evals)
	}
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 5}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("append 5 after load: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := call("w2", wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 4}); rep.Code != wire.SessOK || backend.appendEvals("s1") != evals+1 {
		t.Fatalf("append 4 after load: code %d, %d evaluations, want %d", rep.Code, backend.appendEvals("s1"), evals+1)
	}
}

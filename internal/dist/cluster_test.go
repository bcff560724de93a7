package dist

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ringAssign is the ring's peer→node map: the driver hosts "a".
var ringAssign = map[PeerID]string{"b": "n1", "c": "n2"}

// ringJobs is one job per ring member, carrying the ring's assignment.
func ringJobs() map[string]wire.Job {
	job := wire.Job{Peers: []wire.Assign{{Key: "b", Val: "n1"}, {Key: "c", Val: "n2"}}}
	return map[string]wire.Job{"n1": job, "n2": job}
}

// shipRing ships one ring job and returns its round, hosting "a".
func shipRing(t *testing.T, drv *Driver) *DriverRound {
	t.Helper()
	r, err := drv.ShipJob(ringJobs(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r.AddPeer("a", ringHandler("a"))
	return r
}

// serveRing runs one ring member: each job it receives is one round
// hosting peer, reported with Finish.
func serveRing(m *Member, peer PeerID, handler func(self PeerID) Handler) {
	for job := range m.Jobs() {
		r := m.Round(job)
		r.AddPeer(peer, handler(peer))
		stats, _ := r.Run(nil, 30*time.Second)
		var processed uint64
		for _, c := range stats.Processed {
			processed += uint64(c)
		}
		r.Finish(map[string]uint64{"hops": processed})
	}
}

// ringCluster builds a driver hosting peer "a" and two members hosting
// "b" and "c" over an in-process mesh. Each peer forwards
// wire.Activate{Rel: k} as k-1 to the next peer of the ring until k
// reaches zero, so one seed of k produces exactly k+1 messages
// cluster-wide.
func ringCluster(t *testing.T, handler func(self PeerID) Handler) *Driver {
	t.Helper()
	mesh := transport.NewMesh()
	drv, err := NewDriver(mesh.Node("drv"), []string{"n1", "n2"}, ringAssign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Node("drv").Close() })
	for node, peer := range map[string]PeerID{"n1": "b", "n2": "c"} {
		m, err := NewMember(mesh.Node(node), "drv")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		go serveRing(m, peer, handler)
	}
	return drv
}

func ringHandler(self PeerID) Handler {
	next := map[PeerID]PeerID{"a": "b", "b": "c", "c": "a"}
	return func(ctx *Context, m Message) {
		k, err := strconv.Atoi(string(m.Payload.(wire.Activate).Rel))
		if err != nil || k == 0 {
			return
		}
		ctx.Send(next[self], wire.Activate{Rel: rel.Name(strconv.Itoa(k - 1))})
	}
}

func TestClusterRing(t *testing.T) {
	r := shipRing(t, ringCluster(t, ringHandler))
	seed := []Message{{From: "seed", To: "a", Payload: wire.Activate{Rel: "10"}}}
	stats, err := r.Run(seed, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 11 {
		t.Errorf("MessagesSent = %d, want 11", stats.MessagesSent)
	}
	var processed int
	for _, c := range stats.Processed {
		processed += c
	}
	if processed != 11 {
		t.Errorf("total processed = %d, want 11", processed)
	}
	// Members hosted b and c: of the 11 hops, a handles 4 (k=10,7,4,1),
	// b handles 4 (9,6,3,0) and c handles 3 (8,5,2) — 7 member hops.
	if got := r.ClusterExtras()["hops"]; got != 7 {
		t.Errorf("member hops = %d, want 7", got)
	}
	// Per-pair counts from the members were folded in: the b→c channel
	// lives entirely on member n1.
	if got := stats.MessagesByPair[Pair{From: "b", To: "c"}]; got != 3 {
		t.Errorf("b→c messages = %d, want 3", got)
	}
	if got := stats.BytesSentByPair[Pair{From: "b", To: "c"}]; got == 0 {
		t.Error("b→c bytes not accounted")
	}
}

// TestClusterTwoRounds reuses the same members for a second shipped job,
// one round each: the job boundary (Stop, Done, the next job's fresh
// round) must not lose or duplicate anything.
func TestClusterTwoRounds(t *testing.T) {
	drv := ringCluster(t, ringHandler)

	for round, k := range []int{10, 5} {
		r := shipRing(t, drv)
		seed := []Message{{From: "seed", To: "a", Payload: wire.Activate{Rel: rel.Name(strconv.Itoa(k))}}}
		stats, err := r.Run(seed, 30*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.MessagesSent != k+1 {
			t.Errorf("round %d: MessagesSent = %d, want %d", round, stats.MessagesSent, k+1)
		}
	}
}

// TestClusterMemberAbort: a handler aborting on a member node must fail
// the whole round at the driver with the member's error.
func TestClusterMemberAbort(t *testing.T) {
	boom := "member b exploded"
	handler := func(self PeerID) Handler {
		inner := ringHandler(self)
		return func(ctx *Context, m Message) {
			if self == "b" {
				ctx.Abort(errors.New(boom))
				return
			}
			inner(ctx, m)
		}
	}
	r := shipRing(t, ringCluster(t, handler))
	seed := []Message{{From: "seed", To: "a", Payload: wire.Activate{Rel: "10"}}}
	_, err := r.Run(seed, 30*time.Second)
	if err == nil || !strings.Contains(err.Error(), boom) {
		t.Fatalf("driver error = %v, want %q", err, boom)
	}
}

// TestClusterOverTCP runs the ring over real loopback sockets.
func TestClusterOverTCP(t *testing.T) {
	names := []string{"drv", "n1", "n2"}
	trs := make(map[string]*transport.TCP, len(names))
	for _, n := range names {
		tr, err := transport.ListenTCP(n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[n] = tr
	}
	for _, a := range names {
		for _, b := range names {
			if a != b {
				trs[a].AddRoute(b, trs[b].Addr())
			}
		}
	}
	drv, err := NewDriver(trs["drv"], []string{"n1", "n2"}, ringAssign)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for node, peer := range map[string]PeerID{"n1": "b", "n2": "c"} {
		m, err := NewMember(trs[node], "drv")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(m *Member, peer PeerID) {
			defer wg.Done()
			r := m.Round(<-m.Jobs())
			r.AddPeer(peer, ringHandler(peer))
			r.Run(nil, 30*time.Second) //nolint:errcheck // Finish reports it
			r.Finish(nil)
		}(m, peer)
	}

	r := shipRing(t, drv)
	seed := []Message{{From: "seed", To: "a", Payload: wire.Activate{Rel: "20"}}}
	stats, err := r.Run(seed, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 21 {
		t.Errorf("MessagesSent = %d, want 21", stats.MessagesSent)
	}
	var processed int
	for _, c := range stats.Processed {
		processed += c
	}
	if processed != 21 {
		t.Errorf("total processed = %d, want 21", processed)
	}
	wg.Wait()
}

// TestMemberLostGeneration: a member whose job is older than a frame's
// generation lost that generation's job to a restart. It answers the
// first such frame of each generation with one Done carrying an error
// (so the driver re-ships instead of timing out), drops older
// generations silently, and accepts the next shipped job as usual.
func TestMemberLostGeneration(t *testing.T) {
	mesh := transport.NewMesh()
	var (
		mu    sync.Mutex
		dones []wire.Done
	)
	drv := mesh.Node("drv")
	if err := drv.Start(func(_ string, f wire.Frame) {
		if d, ok := f.(wire.Done); ok {
			mu.Lock()
			dones = append(dones, d)
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drv.Close() })
	m, err := NewMember(mesh.Node("m"), "drv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ship := func(gen uint64) {
		t.Helper()
		if err := drv.Send("m", wire.Job{Gen: gen}); err != nil {
			t.Fatal(err)
		}
		select {
		case job := <-m.Jobs():
			if job.Gen != gen {
				t.Fatalf("member accepted job generation %d, want %d", job.Gen, gen)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("member never accepted job generation %d", gen)
		}
	}
	// waitDones sends a marker the member answers (a newer generation)
	// and returns every Done up to and including its answer: the mesh
	// delivers in order, so nothing sent before the marker is still due.
	waitDones := func(marker uint64) []wire.Done {
		t.Helper()
		if err := drv.Send("m", wire.Poll{Gen: marker, Epoch: 1}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := dones
			if n := len(got); n > 0 && got[n-1].Gen == marker {
				dones = nil
				mu.Unlock()
				return got[:n-1]
			}
			mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatalf("no Done for marker generation %d; have %+v", marker, got)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ship(4)
	for _, f := range []wire.Frame{
		wire.Poll{Gen: 3, Epoch: 1}, // older: silent
		wire.Stop{Gen: 2},           // older: silent
		wire.Poll{Gen: 6, Epoch: 1}, // lost: one Done ...
		wire.Data{Gen: 6, From: "p", To: "q", Payload: wire.Activate{Rel: "r"}},
		wire.Poll{Gen: 6, Epoch: 2}, // ... however many frames follow
		wire.Poll{Gen: 7, Epoch: 1}, // the next lost generation: one more
		wire.Stop{Gen: 7},
	} {
		if err := drv.Send("m", f); err != nil {
			t.Fatal(err)
		}
	}
	got := waitDones(8)
	if len(got) != 2 || got[0].Gen != 6 || got[1].Gen != 7 || got[0].Err == "" || got[1].Err == "" {
		t.Fatalf("Dones for lost generations = %+v, want one with an error for each of 6 and 7", got)
	}

	// The next job is accepted; its own frames are no loss, and older
	// ones stay silent.
	ship(9)
	for _, f := range []wire.Frame{wire.Poll{Gen: 9, Epoch: 1}, wire.Poll{Gen: 8, Epoch: 1}} {
		if err := drv.Send("m", f); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitDones(10); len(got) != 0 {
		t.Fatalf("frames of the accepted job or older drew Dones: %+v", got)
	}
}

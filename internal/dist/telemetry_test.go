package dist

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tracedRingCluster is ringCluster with telemetry: every member round
// records a Chrome trace, and when its round ends the member drains the
// events and ships them to the driver.
func tracedRingCluster(t *testing.T) *Driver {
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
		go func(m *Member, peer PeerID) {
			tw := obs.NewChromeTraceWriter(0)
			for job := range m.Jobs() {
				r := m.Round(job)
				r.SetTracer(tw)
				r.AddPeer(peer, ringHandler(peer))
				r.Run(nil, 30*time.Second) //nolint:errcheck // Finish reports it
				events, dropped := tw.DrainEvents()
				wireEvents := make([]wire.TraceEvent, len(events))
				for i, ev := range events {
					wireEvents[i] = wire.TraceEvent{
						Track: ev.Track, Name: ev.Name, Ph: ev.Ph,
						Wall: ev.Wall, Dur: ev.Dur, Value: ev.Value, ID: ev.ID,
					}
				}
				r.SendTelemetry(wire.Telemetry{Dropped: uint64(dropped), Events: wireEvents})
				r.Finish(nil)
			}
		}(m, peer)
	}
	return drv
}

// TestClusterTelemetry: member telemetry samples arrive before Run
// returns, tagged with node and generation, carrying the members' trace
// events — and the flow IDs in those events line up with the driver's own
// so a merged trace binds cross-process arrows.
func TestClusterTelemetry(t *testing.T) {
	drv := tracedRingCluster(t)

	tw := obs.NewChromeTraceWriter(0)
	r := shipRing(t, drv)
	r.SetTracer(tw)
	seed := []Message{{From: "seed", To: "a", Payload: wire.Activate{Rel: "10"}}}
	if _, err := r.Run(seed, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	tels := r.ClusterTelemetry()
	byNode := map[string]wire.Telemetry{}
	for _, tel := range tels {
		byNode[tel.Node] = tel
		if tel.Gen != r.gen {
			t.Errorf("telemetry from %s has gen %d, want %d", tel.Node, tel.Gen, r.gen)
		}
	}
	if len(byNode) != 2 || byNode["n1"].Node == "" || byNode["n2"].Node == "" {
		t.Fatalf("telemetry nodes = %v, want n1 and n2", byNode)
	}
	// The ring run put 4 hops through b (n1) and 3 through c (n2); each
	// member's trace saw at least that many events.
	if len(byNode["n1"].Events) == 0 || len(byNode["n2"].Events) == 0 {
		t.Fatalf("member events: n1=%d n2=%d, want > 0",
			len(byNode["n1"].Events), len(byNode["n2"].Events))
	}

	// Cross-process flow binding: the driver's trace records the send half
	// ('s') of every a→b hop under a driver-based flow ID; member n1's
	// shipped events must contain the matching receive half ('f') under
	// the very same ID.
	driverSends := map[uint64]bool{}
	for _, ev := range tw.Events() {
		if ev.Ph == 's' {
			driverSends[ev.ID] = true
		}
	}
	matched := 0
	for _, ev := range byNode["n1"].Events {
		if ev.Ph == 'f' && driverSends[ev.ID] {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no member flow-end bound to a driver flow-begin: flow IDs not propagated")
	}

	// Flow IDs drawn by different nodes must not collide: the per-node
	// bases put them in disjoint ranges.
	if flowBase("drv") == flowBase("n1") || flowBase("n1") == flowBase("n2") {
		t.Fatal("flow bases collide")
	}
}

// capturingHandler records slog records for assertion.
type capturingHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *capturingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *capturingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.records = append(h.records, r)
	h.mu.Unlock()
	return nil
}
func (h *capturingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *capturingHandler) WithGroup(string) slog.Handler      { return h }

// fakeRegistry records what a metrics sink folds into its registry.
type fakeRegistry struct {
	mu       sync.Mutex
	counters map[string]int64
	observed map[string][]time.Duration
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{counters: make(map[string]int64), observed: make(map[string][]time.Duration)}
}

func (r *fakeRegistry) Add(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}
func (r *fakeRegistry) SetGauge(string, int64) {}
func (r *fakeRegistry) Observe(name string, d time.Duration) {
	r.mu.Lock()
	r.observed[name] = append(r.observed[name], d)
	r.mu.Unlock()
}

// TestStragglerReport drives reportStragglers directly: a node whose mean
// status-reply latency is far past the cluster median must be named in a
// structured warning carrying its mean, the median it was judged against
// and its sample count; balanced nodes must not be named.
func TestStragglerReport(t *testing.T) {
	cap := &capturingHandler{}
	mesh := transport.NewMesh()
	drv, err := NewDriver(mesh.Node("drv"), []string{"n1", "n2", "n3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Node("drv").Close() })
	drv.SetLogger(slog.New(cap))

	r := &DriverRound{d: drv, statLat: map[string]latSample{
		"n1": {sum: 10 * time.Millisecond, n: 10},
		"n2": {sum: 12 * time.Millisecond, n: 10},
		"n3": {sum: 200 * time.Millisecond, n: 10}, // 20ms mean vs ~1ms median
	}}
	r.reportStragglers()

	cap.mu.Lock()
	defer cap.mu.Unlock()
	var named []string
	for _, rec := range cap.records {
		if rec.Message != "dist: straggler detected" {
			continue
		}
		attrs := map[string]string{}
		rec.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		named = append(named, attrs["node"])
		// n3's 20ms mean against the 1.2ms median of 1, 1.2 and 20ms.
		want := map[string]string{"phase": "status-reply", "mean_ms": "20", "median_ms": "1.2", "samples": "10"}
		for k, v := range want {
			if attrs[k] != v {
				t.Errorf("straggler warning %s = %q, want %q", k, attrs[k], v)
			}
		}
	}
	if len(named) != 1 || named[0] != "n3" {
		t.Fatalf("stragglers named = %v, want [n3]", named)
	}
}

// TestRoundSpanFeedsHistogram: a metrics sink with the dist-round track
// routed to dist_round_latency_seconds (the peerd -admin wiring) folds
// one histogram sample out of every Network.Run — the node's own view of
// the round, no driver required.
func TestRoundSpanFeedsHistogram(t *testing.T) {
	reg := newFakeRegistry()
	sink := obs.NewMetricsSink(reg)
	sink.ObserveSpans("dist-round", "dist_round_latency_seconds")
	n := NewNetwork()
	n.SetTracer(sink)
	n.AddPeer("a", func(ctx *Context, m Message) {})
	if _, err := n.Run(nil, time.Second); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if got := reg.observed["dist_round_latency_seconds"]; len(got) != 1 {
		t.Fatalf("dist_round_latency_seconds observations = %v, want exactly one", got)
	}
}

// TestRoundLatencySingleNode: a one-node cluster has no median to judge
// against, so however slow its one member, nothing is ever flagged.
func TestRoundLatencySingleNode(t *testing.T) {
	cap := &capturingHandler{}
	mesh := transport.NewMesh()
	drv, err := NewDriver(mesh.Node("drv"), []string{"n1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Node("drv").Close() })
	drv.SetLogger(slog.New(cap))

	r := &DriverRound{d: drv, statLat: map[string]latSample{"n1": {sum: 500 * time.Millisecond, n: 5}}}
	r.reportStragglers()

	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.records) != 0 {
		t.Fatalf("single-node round flagged stragglers: %v", cap.records)
	}
}

// TestStragglerQuietWhenBalanced: near-identical latencies log nothing,
// and sub-millisecond absolute gaps never qualify however skewed the
// ratio (the stragglerMinGap floor).
func TestStragglerQuietWhenBalanced(t *testing.T) {
	cap := &capturingHandler{}
	mesh := transport.NewMesh()
	drv, err := NewDriver(mesh.Node("drv"), []string{"n1", "n2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Node("drv").Close() })
	drv.SetLogger(slog.New(cap))

	r := &DriverRound{d: drv, statLat: map[string]latSample{
		"n1": {sum: 100 * time.Microsecond, n: 10},
		"n2": {sum: 900 * time.Microsecond, n: 10}, // 9x ratio, but 80µs gap
	}, doneLat: map[string]latSample{
		"n1": {sum: 50 * time.Millisecond, n: 10},
		"n2": {sum: 55 * time.Millisecond, n: 10},
	}}
	r.reportStragglers()

	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.records) != 0 {
		t.Fatalf("unexpected log records: %v", cap.records)
	}
}

// TestFlowBaseDisjoint pins the flow-ID layout: bases occupy the top 32
// bits, leaving the full bottom range for per-node sequences, and the
// driver round actually seeds its network with its own base.
func TestFlowBaseDisjoint(t *testing.T) {
	names := []string{"drv", "n1", "n2", "node-a", "node-b", strconv.Itoa(1 << 20)}
	seen := map[uint64]string{}
	for _, n := range names {
		b := flowBase(n)
		if b == 0 {
			t.Errorf("flowBase(%q) = 0", n)
		}
		if b&0xFFFFFFFF != 0 {
			t.Errorf("flowBase(%q) = %#x leaks into the low 32 bits", n, b)
		}
		if prev, dup := seen[b]; dup {
			t.Errorf("flowBase collision: %q and %q", prev, n)
		}
		seen[b] = n
	}
}

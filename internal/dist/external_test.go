package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestByteCountersSymmetric: what BytesSentByPair charges each channel
// is the wire size of what the receiving peer handled on it.
func TestByteCountersSymmetric(t *testing.T) {
	n := NewNetwork()
	received := map[Pair]int{}
	handled := func(m Message) {
		size, ok := wire.PayloadSize(m.Payload)
		if !ok {
			t.Errorf("%T has no wire size", m.Payload)
		}
		received[Pair{From: m.From, To: m.To}] += size
	}
	n.AddPeer("a", func(ctx *Context, m Message) {
		handled(m)
		if _, ok := m.Payload.(wire.Activate); ok {
			ctx.Send("b", wire.Facts{Qual: "r@a", Arity: 0})
		}
	})
	n.AddPeer("b", func(ctx *Context, m Message) { handled(m) })
	stats, err := n.Run([]Message{{From: "q", To: "a", Payload: wire.Activate{Rel: "r"}}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.BytesSentByPair) != 2 {
		t.Fatalf("BytesSentByPair = %v, want 2 pairs", stats.BytesSentByPair)
	}
	for pair, sent := range stats.BytesSentByPair {
		size, ok := wire.PayloadSize(wire.Activate{Rel: "r"})
		if !ok {
			t.Fatal("Activate has no wire size")
		}
		if pair.From == "a" {
			size, _ = wire.PayloadSize(wire.Facts{Qual: "r@a", Arity: 0})
		}
		if sent != size {
			t.Errorf("%v: sent %d bytes, wire size %d", pair, sent, size)
		}
		if got := received[pair]; got != sent {
			t.Errorf("%v: received %d bytes, sent %d", pair, got, sent)
		}
	}
}

// TestNonWirePayloadCountsZeroBytes: toy payloads outside the wire codec
// keep the message counters but charge no bytes.
func TestNonWirePayloadCountsZeroBytes(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("a", func(ctx *Context, m Message) {})
	stats, err := n.Run([]Message{{From: "q", To: "a", Payload: 42}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 1 {
		t.Fatalf("MessagesSent = %d", stats.MessagesSent)
	}
	if len(stats.BytesSentByPair) != 0 {
		t.Fatalf("byte counter not empty: %v", stats.BytesSentByPair)
	}
}

// TestRouteDivertsUnknownPeers: with a route installed, sends to peers not
// hosted here are counted and diverted instead of panicking, and do not
// keep the local network from quiescing.
func TestRouteDivertsUnknownPeers(t *testing.T) {
	n := NewNetwork()
	var mu sync.Mutex
	var routed []Message
	n.SetRoute(func(m Message) {
		mu.Lock()
		routed = append(routed, m)
		mu.Unlock()
	})
	n.AddPeer("a", func(ctx *Context, m Message) {
		ctx.Send("remote", wire.Activate{Rel: "r1"})
		ctx.Send("remote", wire.Activate{Rel: "r2"})
	})
	stats, err := n.Run([]Message{{From: "q", To: "a", Payload: wire.Activate{Rel: "seed"}}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(routed) != 2 {
		t.Fatalf("routed %d messages, want 2", len(routed))
	}
	// Per-sender order must survive the diversion.
	if routed[0].Payload.(wire.Activate).Rel != "r1" || routed[1].Payload.(wire.Activate).Rel != "r2" {
		t.Fatalf("routed out of order: %v", routed)
	}
	if stats.MessagesSent != 3 {
		t.Fatalf("MessagesSent = %d, want 3 (seed + two routed)", stats.MessagesSent)
	}
	if stats.MessagesByPair[Pair{"a", "remote"}] != 2 {
		t.Fatalf("MessagesByPair = %v", stats.MessagesByPair)
	}
	// Routed messages were sent but not processed here.
	if stats.Processed["a"] != 1 {
		t.Fatalf("Processed = %v", stats.Processed)
	}
}

// TestExternalMemberLifecycle drives a member network by hand: it must
// not stop on local idleness, must fire notify on each idle transition,
// must process injected messages, and must stop only via Stop.
func TestExternalMemberLifecycle(t *testing.T) {
	n := NewNetwork()
	idle := make(chan struct{}, 16)
	n.SetExternal(func() {
		select {
		case idle <- struct{}{}:
		default:
		}
	})
	handled := make(chan Message, 16)
	n.AddPeer("a", func(ctx *Context, m Message) { handled <- m })

	done := make(chan struct{})
	var stats Stats
	var runErr error
	go func() {
		defer close(done)
		stats, runErr = n.Run(nil, 5*time.Second)
	}()

	<-idle // member reports idle immediately: empty seed does not stop it
	n.Inject(Message{From: "x", To: "a", Payload: wire.Activate{Rel: "r"}})
	m := <-handled
	if m.From != "x" {
		t.Fatalf("handled %v", m)
	}
	<-idle // idle again after draining the injection

	sent, processed, isIdle := n.Counters()
	if sent != 0 || processed != 1 || !isIdle {
		t.Fatalf("Counters = (%d, %d, %v), want (0, 1, true)", sent, processed, isIdle)
	}

	n.Stop(nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if runErr != nil {
		t.Fatalf("Run returned %v", runErr)
	}
	if stats.Processed["a"] != 1 {
		t.Fatalf("Processed = %v", stats.Processed)
	}
	// Injected messages count as processed but not as sent.
	if stats.MessagesSent != 0 {
		t.Fatalf("MessagesSent = %d, want 0", stats.MessagesSent)
	}
}

// TestExternalStopWithError: a coordinator-propagated abort surfaces as
// Run's error on the member.
func TestExternalStopWithError(t *testing.T) {
	n := NewNetwork()
	n.SetExternal(nil)
	n.AddPeer("a", func(ctx *Context, m Message) {})
	boom := errors.New("remote budget exhausted")
	go n.Stop(boom)
	_, err := n.Run(nil, 5*time.Second)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
}

package dist

import (
	"errors"
	"testing"
	"time"
)

// TestPostRunObservable: after Run returns, Stopped/Err and the state the
// handlers built are readable without extra synchronization (the post-Run
// contract documented on Stopped). Run under -race.
func TestPostRunObservable(t *testing.T) {
	counts := map[string]int{} // written by handlers, read after Run
	n := NewNetwork()
	n.AddPeer("a", func(ctx *Context, m Message) {
		counts["a"]++
		if k := m.Payload.(int); k > 0 {
			ctx.Send("b", k-1)
		}
	})
	n.AddPeer("b", func(ctx *Context, m Message) {
		counts["b"]++
		if k := m.Payload.(int); k > 0 {
			ctx.Send("a", k-1)
		}
	})
	stats, err := n.Run([]Message{{From: "x", To: "a", Payload: 6}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Stopped() {
		t.Fatal("network not stopped after Run")
	}
	if n.Err() != nil {
		t.Fatalf("Err = %v after clean quiescence", n.Err())
	}
	if counts["a"]+counts["b"] != stats.MessagesSent {
		t.Fatalf("handled %d+%d messages, stats say %d", counts["a"], counts["b"], stats.MessagesSent)
	}
}

// TestPostRunErrVisible: an abort error is visible through Err after Run.
func TestPostRunErrVisible(t *testing.T) {
	boom := errors.New("boom")
	n := NewNetwork()
	n.AddPeer("a", func(ctx *Context, m Message) { ctx.Abort(boom) })
	if _, err := n.Run([]Message{{From: "x", To: "a", Payload: 0}}, 5*time.Second); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v", err)
	}
	if !errors.Is(n.Err(), boom) {
		t.Fatalf("Err = %v, want boom", n.Err())
	}
}

// TestLateAbortIsNoOp: a timeout (or any abort) that fires after the
// network already stopped must not overwrite a clean result — the
// guarantee long-lived sessions rely on when their per-round timer races
// with quiescence.
func TestLateAbortIsNoOp(t *testing.T) {
	n := NewNetwork()
	n.AddPeer("a", func(ctx *Context, m Message) {})
	if _, err := n.Run([]Message{{From: "x", To: "a", Payload: 0}}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	n.Stop(ErrTimeout) // the AfterFunc body, firing late
	if n.Err() != nil {
		t.Fatalf("late abort overwrote result: Err = %v", n.Err())
	}
	if !n.Stopped() {
		t.Fatal("network not stopped")
	}
}

// TestReenteredEvaluation: peer state shared across a sequence of
// Networks (one per evaluation round, as a re-entrant engine does) needs
// no locking of its own: Run's return happens-after all handler
// executions, and the next Run's goroutine starts happen-after the state
// mutations between rounds. Run under -race.
func TestReenteredEvaluation(t *testing.T) {
	state := map[int]int{} // shared, unlocked: the contract under test
	for round := 0; round < 5; round++ {
		state[round] = 0 // mutated between rounds, read by handlers
		n := NewNetwork()
		n.AddPeer("a", func(ctx *Context, m Message) {
			state[round] += m.Payload.(int)
			if m.Payload.(int) > 1 {
				ctx.Send("a", m.Payload.(int)-1)
			}
		})
		if _, err := n.Run([]Message{{From: "x", To: "a", Payload: 3}}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if state[round] != 3+2+1 {
			t.Fatalf("round %d: state = %d", round, state[round])
		}
	}
}

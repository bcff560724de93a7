package ddatalog

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// TestCloneSnapshotIsItsTail: a clone's snapshot is what it added past its
// origin, and appending it to a fresh clone of that origin gives an engine
// that holds the same tuples and counters and goes on exactly as the
// snapshotted one does. A clone holding a rule of its own, and an engine
// that is no clone, are refused; a truncated snapshot never restores.
func TestCloneSnapshotIsItsTail(t *testing.T) {
	s := term.NewStore()
	prog, q := reachProgram(s, [][2]string{{"1", "2"}, {"2", "3"}})
	origin, err := NewEngine(prog, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Run(q, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var w snapshot.Writer
	if err := origin.EncodeSnapshot(&w); err == nil {
		t.Fatal("an engine that is no clone was snapshotted")
	}

	edge := func(e *Engine, from, to string) []PAtom {
		return []PAtom{At("edge", "a", e.store.Constant(from), e.store.Constant(to))}
	}
	live := origin.Clone(s.Clone(), datalog.Budget{MaxFacts: 1000})
	if _, err := live.RunDelta(q, edge(live, "3", "4"), nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := live.EncodeSnapshot(&w); err != nil {
		t.Fatal(err)
	}
	tail := w.Body()
	restore := func(b []byte) (*Engine, error) {
		e := origin.Clone(s.Clone(), live.Budget())
		r := snapshot.NewReader(b)
		if err := e.DecodeSnapshot(r); err != nil {
			return nil, err
		}
		return e, r.Finish()
	}
	back, err := restore(tail)
	if err != nil {
		t.Fatal(err)
	}
	if back.store.Len() != live.store.Len() || back.Budget() != live.Budget() {
		t.Fatalf("restored %d terms under %+v, snapshotted %d under %+v", back.store.Len(), back.Budget(), live.store.Len(), live.Budget())
	}
	for _, id := range live.Peers() {
		if g, w := back.PeerDB(id).Dump(), live.PeerDB(id).Dump(); g != w {
			t.Fatalf("peer %s restored\n%s\nsnapshotted\n%s", id, g, w)
		}
	}
	gd, gr := back.Totals()
	wd, wr := live.Totals()
	gp, ga := back.JoinCounts()
	wp, wa := live.JoinCounts()
	if gd != wd || gr != wr || gp != wp || ga != wa {
		t.Fatalf("restored counters %d/%d/%d/%d, snapshotted %d/%d/%d/%d", gd, gr, gp, ga, wd, wr, wp, wa)
	}
	for _, e := range []*Engine{back, live} {
		if _, err := e.RunDelta(q, edge(e, "4", "5"), nil, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	g, err := back.RunDelta(q, nil, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.RunDelta(q, nil, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Answers, want.Answers) || g.Stats.Derived != want.Stats.Derived {
		t.Fatalf("after one more edge the restored engine answers %v with %d derived, the snapshotted one %v with %d",
			g.Answers, g.Stats.Derived, want.Answers, want.Stats.Derived)
	}
	var gb, wb snapshot.Writer
	if err := back.EncodeSnapshot(&gb); err != nil {
		t.Fatal(err)
	}
	if err := live.EncodeSnapshot(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Body(), wb.Body()) {
		t.Fatal("the restored and the snapshotted engine went on to different snapshots")
	}

	for i := range tail {
		if _, err := restore(tail[:i]); err == nil {
			t.Fatalf("a snapshot truncated to %d of %d bytes restored", i, len(tail))
		}
	}

	own := origin.Clone(s.Clone(), datalog.Budget{})
	x, y := own.store.Variable("X"), own.store.Variable("Y")
	if _, err := own.RunDelta(q, nil, []PRule{{Head: At("back", "b", y, x), Body: []PAtom{At("mirror", "b", x, y)}}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := own.EncodeSnapshot(&snapshot.Writer{}); err == nil {
		t.Fatal("a clone hosting a rule of its own was snapshotted")
	}
}

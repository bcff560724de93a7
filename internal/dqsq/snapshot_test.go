package dqsq

import (
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/snapshot"
)

// TestSnapshotRefusesStateItsOriginLacks: a clone of a primed session
// snapshots once the facts it was extended with have been queried in. A
// session that is no clone, a clone with extended facts still queued, and a
// clone extended with a rule of its own, before and after a query installs
// it, hold what a snapshot relative to the origin cannot carry, and are
// refused.
func TestSnapshotRefusesStateItsOriginLacks(t *testing.T) {
	p := figure3([][2]string{{"1", "2"}}, [][2]string{{"2", "x"}}, [][2]string{{"2", "3"}})
	all := func(s *OnlineSession) ddatalog.PAtom {
		st := s.Program().Store
		return ddatalog.At("R", "r", st.Variable("AnsX"), st.Variable("AnsY"))
	}
	origin, err := NewOnlineSession(p, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Prime(all(origin), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := origin.EncodeSnapshot(&snapshot.Writer{}); err == nil {
		t.Fatal("a session that is no clone was snapshotted")
	}

	grown := origin.Clone(datalog.Budget{})
	s := grown.Program().Store
	if err := grown.Extend([]ddatalog.PAtom{ddatalog.At("A", "r", s.Constant("5"), s.Constant("6"))}, nil); err != nil {
		t.Fatal(err)
	}
	if err := grown.EncodeSnapshot(&snapshot.Writer{}); err == nil {
		t.Fatal("a clone with queued facts was snapshotted")
	}
	if _, err := grown.Query(all(grown), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := grown.EncodeSnapshot(&snapshot.Writer{}); err != nil {
		t.Fatalf("a clone grown by facts alone: %v", err)
	}

	ruled := origin.Clone(datalog.Budget{})
	s = ruled.Program().Store
	x, y := s.Variable("X"), s.Variable("Y")
	rule := ddatalog.PRule{Head: ddatalog.At("Q", "r", x, y), Body: []ddatalog.PAtom{ddatalog.At("R", "r", x, y)}}
	if err := ruled.Extend(nil, []ddatalog.PRule{rule}); err != nil {
		t.Fatal(err)
	}
	if err := ruled.EncodeSnapshot(&snapshot.Writer{}); err == nil {
		t.Fatal("a clone extended with a rule no query has installed was snapshotted")
	}
	res, err := ruled.Query(ddatalog.At("Q", "r", s.Variable("QX"), s.Variable("QY")), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("the extended rule answered nothing")
	}
	if err := ruled.EncodeSnapshot(&snapshot.Writer{}); err == nil {
		t.Fatal("a clone extended with a rule of its own was snapshotted")
	}
}

package ddatalog

import (
	"errors"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/term"
)

// TestActivatedEngineClones: a query primes an engine — rules evaluated,
// subscriptions in place — and the clones of the engine it leaves answer
// like an engine that ran the query cold; they share its compiled rules,
// carry its counters on (against their own budgets), and neither a clone's
// new facts nor its new rules reach a sibling or the origin.
func TestActivatedEngineClones(t *testing.T) {
	edges := [][2]string{{"1", "2"}, {"2", "3"}}
	cold, coldQ := reachProgram(term.NewStore(), edges)
	want, _, err := Run(cold, coldQ, datalog.Budget{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	s := term.NewStore()
	prog, q := reachProgram(s, edges)
	origin, err := NewEngine(prog, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	primed, err := origin.Run(q, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if primed.Stats.Derived != want.Stats.Derived {
		t.Fatalf("priming derived %d facts, the cold query %d", primed.Stats.Derived, want.Stats.Derived)
	}
	tuplesA, tuplesB, terms := origin.PeerDB("a").FactCount(), origin.PeerDB("b").FactCount(), s.Len()

	s1, s2 := s.Clone(), s.Clone()
	one, two := origin.Clone(s1, datalog.Budget{}), origin.Clone(s2, datalog.Budget{})
	for _, id := range origin.Peers() {
		r0, r1, r2 := origin.Rules(id), one.Rules(id), two.Rules(id)
		if len(r1) != len(r0) || len(r2) != len(r0) {
			t.Fatalf("peer %s: clones host %d and %d rules, origin %d", id, len(r1), len(r2), len(r0))
		}
		for i := range r0 {
			if r1[i] != r0[i] || r2[i] != r0[i] {
				t.Fatalf("peer %s, rule %d: a clone compiled its own copy", id, i)
			}
		}
	}

	res, err := one.RunDelta(q, nil, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want.Answers) || res.Stats.Derived != want.Stats.Derived {
		t.Fatalf("clone: %d answers, %d derived; cold run: %d, %d", len(res.Answers), res.Stats.Derived, len(want.Answers), want.Stats.Derived)
	}

	// Grow the first clone: an edge, and a rule over a relation of its own.
	x, y := s1.Variable("X"), s1.Variable("Y")
	grown, err := one.RunDelta(At("back", "b", s1.Variable("QX"), s1.Variable("QY")),
		[]PAtom{At("edge", "a", s1.Constant("3"), s1.Constant("4"))},
		[]PRule{{Head: At("back", "b", y, x), Body: []PAtom{At("mirror", "b", x, y)}}},
		10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Answers) != 6 { // paths among 1..4
		t.Fatalf("grown clone: %d answers, want 6", len(grown.Answers))
	}
	if n := len(one.Rules("b")); n != len(origin.Rules("b"))+1 {
		t.Fatalf("grown clone hosts %d rules at b, want its origin's and one more", n)
	}

	again, err := two.RunDelta(q, nil, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Answers) != len(want.Answers) || again.Stats.Derived != want.Stats.Derived || len(two.Rules("b")) != len(origin.Rules("b")) {
		t.Fatalf("sibling clone saw the other's growth: %d answers, %d derived, %d rules at b", len(again.Answers), again.Stats.Derived, len(two.Rules("b")))
	}
	if a, b := origin.PeerDB("a").FactCount(), origin.PeerDB("b").FactCount(); a != tuplesA || b != tuplesB || s.Len() != terms {
		t.Fatalf("origin changed under its clones: %d and %d tuples, %d terms; were %d, %d, %d", a, b, s.Len(), tuplesA, tuplesB, terms)
	}

	// What the origin derived is spent from a clone's budget too.
	s3 := s.Clone()
	tight := origin.Clone(s3, datalog.Budget{MaxFacts: primed.Stats.Derived})
	if _, err := tight.RunDelta(q, []PAtom{At("edge", "a", s3.Constant("3"), s3.Constant("4"))}, nil, 10*time.Second); !errors.Is(err, datalog.ErrBudget) {
		t.Fatalf("clone with its budget already spent by its origin: %v, want ErrBudget", err)
	}
}

package dqsq

import (
	"errors"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/rel"
)

// TestPrimedClonesAnswerLikeFreshSessions: a session primed for a query
// shape and then cloned answers a query of that shape exactly as a fresh
// session does, rewriting nothing but the query rule it is extended with;
// clones do not see each other's extensions; and the session they were
// cloned from is left as it was.
func TestPrimedClonesAnswerLikeFreshSessions(t *testing.T) {
	a := [][2]string{{"1", "2"}}
	b := [][2]string{{"2", "x"}}
	c := [][2]string{{"2", "3"}}
	ask := func(p *ddatalog.Program, version rel.Name) (ddatalog.PRule, ddatalog.PAtom) {
		s := p.Store
		x, y := s.Variable("Qx"), s.Variable("Qy")
		return ddatalog.PRule{
				Head: ddatalog.At("q."+version, "r", x, y),
				Body: []ddatalog.PAtom{ddatalog.At("R", "r", x, y)},
			},
			ddatalog.At("q."+version, "r", s.Variable("AnsX"), s.Variable("AnsY"))
	}

	fresh := figure3(a, b, c)
	rule, q := ask(fresh, "v1")
	fresh.AddRule(rule)
	want, _, err := RunOnline(fresh, q, datalog.Budget{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	p := figure3(a, b, c)
	origin, err := NewOnlineSession(p, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	pattern, _ := ask(p, "v0")
	if err := origin.Prime(pattern, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	primed := len(origin.Trace().Snapshot())
	if primed == 0 {
		t.Fatal("priming rewrote nothing")
	}
	terms := p.Store.Len()

	one, two := origin.Clone(datalog.Budget{}), origin.Clone(datalog.Budget{})
	rule1, q1 := ask(one.Program(), "v1")
	if err := one.Extend(nil, []ddatalog.PRule{rule1}); err != nil {
		t.Fatal(err)
	}
	got, err := one.Query(q1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sortedRows(got.Store, got.Answers), sortedRows(want.Store, want.Answers); len(w) == 0 || len(g) != len(w) || g[0] != w[0] {
		t.Fatalf("primed clone answers %v, fresh session %v", g, w)
	}
	if got.Stats.Derived != want.Stats.Derived {
		t.Fatalf("primed clone derived %d facts, fresh session %d", got.Stats.Derived, want.Stats.Derived)
	}
	if rewrites := one.Trace().Snapshot()[primed:]; len(rewrites) != 1 || rewrites[0].Key.Rel != "q.v1" {
		t.Fatalf("the clone's query rewrote %v, want q.v1 only", rewrites)
	}

	// The second clone has no q.v1 and an empty R#ff; the origin is untouched.
	s2 := two.Program().Store
	if res, err := two.Query(ddatalog.At("q.v1", "r", s2.Variable("AnsX"), s2.Variable("AnsY")), 10*time.Second); err != nil || len(res.Answers) != 0 {
		t.Fatalf("a sibling clone sees %d answers of a rule it was never given (err %v)", len(res.Answers), err)
	}
	if p.Store.Len() != terms || len(origin.Trace().Snapshot()) != primed || len(origin.Program().Rules) != len(p.Rules) {
		t.Fatal("cloning or querying the clones changed the session they came from")
	}

	// What the origin derived counts against a clone's budget.
	spent := one.Clone(datalog.Budget{MaxFacts: got.Stats.Derived})
	rule2, q2 := ask(spent.Program(), "v2")
	if err := spent.Extend(nil, []ddatalog.PRule{rule2}); err != nil {
		t.Fatal(err)
	}
	if _, err := spent.Query(q2, 10*time.Second); !errors.Is(err, datalog.ErrBudget) {
		t.Fatalf("query on a clone whose budget its origin already spent: %v, want ErrBudget", err)
	}
}

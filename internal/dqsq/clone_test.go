package dqsq

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
)

// TestPrimedClonesAnswerLikeFreshSessions: a session primed with a standing
// query and then cloned answers every query of that relation — all free or
// with constants — as a fresh session does, rewriting nothing, and facts
// extended in afterwards flow through the rules already in place; clones do
// not see each other's extensions; the session they were cloned from is
// left as it was; and Prime refuses a query that binds an argument.
func TestPrimedClonesAnswerLikeFreshSessions(t *testing.T) {
	a := [][2]string{{"1", "2"}}
	b := [][2]string{{"2", "x"}}
	c := [][2]string{{"2", "3"}}
	all := func(p *ddatalog.Program) ddatalog.PAtom {
		s := p.Store
		return ddatalog.At("R", "r", s.Variable("AnsX"), s.Variable("AnsY"))
	}
	cold := func(a [][2]string) (*Result, string) {
		p := figure3(a, b, c)
		res, _, err := RunOnline(p, all(p), datalog.Budget{}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res, strings.Join(sortedRows(res.Store, res.Answers), ";")
	}
	want, wantRows := cold(a)

	p := figure3(a, b, c)
	origin, err := NewOnlineSession(p, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Prime(all(p), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	primed := len(origin.Trace().Snapshot())
	if primed == 0 {
		t.Fatal("priming rewrote nothing")
	}
	terms, facts := p.Store.Len(), len(p.Facts)

	one, two := origin.Clone(datalog.Budget{}), origin.Clone(datalog.Budget{})
	got, err := one.Query(all(one.Program()), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(sortedRows(got.Store, got.Answers), ";"); g != wantRows || got.Stats.Derived != want.Stats.Derived {
		t.Fatalf("primed clone answers %s with %d derived, fresh session %s with %d", g, got.Stats.Derived, wantRows, want.Stats.Derived)
	}
	s1 := one.Program().Store
	bound, err := one.Query(ddatalog.At("R", "r", s1.Constant("1"), s1.Variable("AnsY")), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(sortedRows(bound.Store, bound.Answers), ";"); g != "2;3" {
		t.Fatalf("R(1,Y) on the primed clone answers %s, want 2;3", g)
	}

	// A new fact flows through the primed rules: the clone answers as a cold
	// run over the grown data, and still rewrites nothing.
	if err := one.Extend([]ddatalog.PAtom{ddatalog.At("A", "r", s1.Constant("5"), s1.Constant("6"))}, nil); err != nil {
		t.Fatal(err)
	}
	grown, err := one.Query(all(one.Program()), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, w := cold(append(a, [2]string{"5", "6"})); strings.Join(sortedRows(grown.Store, grown.Answers), ";") != w {
		t.Fatalf("grown clone answers %v, cold run %s", sortedRows(grown.Store, grown.Answers), w)
	}
	if rewrites := one.Trace().Snapshot()[primed:]; len(rewrites) != 0 {
		t.Fatalf("queries of the standing relation rewrote %v, want nothing", rewrites)
	}

	// The second clone has no A(5,6); the origin is untouched.
	res, err := two.Query(all(two.Program()), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(sortedRows(res.Store, res.Answers), ";"); g != wantRows {
		t.Fatalf("a sibling clone answers %s, want %s", g, wantRows)
	}
	if p.Store.Len() != terms || len(origin.Trace().Snapshot()) != primed || len(origin.Program().Facts) != facts {
		t.Fatal("cloning or querying the clones changed the session they came from")
	}

	// What the origin and the clone derived counts against a clone's budget.
	spent := one.Clone(datalog.Budget{MaxFacts: grown.Stats.Derived})
	s3 := spent.Program().Store
	if err := spent.Extend([]ddatalog.PAtom{ddatalog.At("A", "r", s3.Constant("7"), s3.Constant("8"))}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := spent.Query(all(spent.Program()), 10*time.Second); !errors.Is(err, datalog.ErrBudget) {
		t.Fatalf("query on a clone whose budget is already spent: %v, want ErrBudget", err)
	}

	if err := two.Prime(queryFig3(two.Program(), "1"), 10*time.Second); err == nil {
		t.Fatal("Prime accepted a query with a bound argument")
	}
}

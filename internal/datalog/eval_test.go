package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rel"
	"repro/internal/term"
)

// buildTC builds the classic transitive-closure program over the given
// edges: tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).
func buildTC(edges [][2]string) *Program {
	s := term.NewStore()
	p := NewProgram(s)
	x, y, z := s.Variable("X"), s.Variable("Y"), s.Variable("Z")
	p.AddRule(Rule{Head: Atom{"tc", []term.ID{x, y}}, Body: []Atom{{"edge", []term.ID{x, y}}}})
	p.AddRule(Rule{Head: Atom{"tc", []term.ID{x, z}}, Body: []Atom{
		{"edge", []term.ID{x, y}}, {"tc", []term.ID{y, z}},
	}})
	for _, e := range edges {
		p.AddFact(Atom{"edge", []term.ID{s.Constant(e[0]), s.Constant(e[1])}})
	}
	return p
}

func factSet(db *rel.DB, store *term.Store, name rel.Name) map[string]bool {
	out := make(map[string]bool)
	r := db.Lookup(name)
	if r == nil {
		return out
	}
	for _, tup := range r.All() {
		key := ""
		for _, t := range tup {
			key += store.String(t) + "|"
		}
		out[key] = true
	}
	return out
}

func TestTransitiveClosureChain(t *testing.T) {
	p := buildTC([][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}})
	db, st := p.SemiNaive(Budget{})
	if st.Truncated {
		t.Fatalf("truncated: %s", st.Reason)
	}
	tc := factSet(db, p.Store, "tc")
	want := []string{"a|b|", "a|c|", "a|d|", "b|c|", "b|d|", "c|d|"}
	if len(tc) != len(want) {
		t.Fatalf("tc has %d facts, want %d: %v", len(tc), len(want), tc)
	}
	for _, w := range want {
		if !tc[w] {
			t.Fatalf("missing %q", w)
		}
	}
}

func TestTransitiveClosureCycleTerminates(t *testing.T) {
	p := buildTC([][2]string{{"a", "b"}, {"b", "a"}})
	db, st := p.SemiNaive(Budget{})
	if st.Truncated {
		t.Fatal("cycle without function symbols must reach fixpoint")
	}
	if got := db.Lookup("tc").Len(); got != 4 {
		t.Fatalf("tc on 2-cycle has %d facts, want 4", got)
	}
}

func TestNaiveEqualsSemiNaive(t *testing.T) {
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}, {"d", "e"}}
	p1 := buildTC(edges)
	p2 := buildTC(edges)
	db1, _ := p1.Naive(Budget{})
	db2, _ := p2.SemiNaive(Budget{})
	if db1.Dump() != db2.Dump() {
		t.Fatalf("naive:\n%s\nseminaive:\n%s", db1.Dump(), db2.Dump())
	}
}

func TestSemiNaiveDoesLessWork(t *testing.T) {
	var edges [][2]string
	for i := 0; i < 30; i++ {
		edges = append(edges, [2]string{string(rune('a' + i)), string(rune('a' + i + 1))})
	}
	_, stN := buildTC(edges).Naive(Budget{})
	_, stS := buildTC(edges).SemiNaive(Budget{})
	if stS.Attempts >= stN.Attempts {
		t.Fatalf("seminaive attempts %d >= naive attempts %d", stS.Attempts, stN.Attempts)
	}
	if stS.Derived != stN.Derived {
		t.Fatalf("derived differ: %d vs %d", stS.Derived, stN.Derived)
	}
}

func TestFunctionSymbolsWithDepthBudget(t *testing.T) {
	// nat(s(X)) :- nat(X). Diverges without a bound.
	s := term.NewStore()
	p := NewProgram(s)
	x := s.Variable("X")
	p.AddFact(Atom{"nat", []term.ID{s.Constant("z")}})
	p.AddRule(Rule{Head: Atom{"nat", []term.ID{s.Compound("s", x)}}, Body: []Atom{{"nat", []term.ID{x}}}})

	db, st := p.SemiNaive(Budget{MaxTermDepth: 5})
	if st.Truncated {
		t.Fatalf("depth-bounded run truncated: %s", st.Reason)
	}
	// z, s(z), ..., s^5(z): 6 facts.
	if got := db.Lookup("nat").Len(); got != 6 {
		t.Fatalf("nat has %d facts, want 6", got)
	}
}

func TestFactBudgetTruncates(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	x := s.Variable("X")
	p.AddFact(Atom{"nat", []term.ID{s.Constant("z")}})
	p.AddRule(Rule{Head: Atom{"nat", []term.ID{s.Compound("s", x)}}, Body: []Atom{{"nat", []term.ID{x}}}})

	db, st := p.SemiNaive(Budget{MaxFacts: 100})
	if !st.Truncated || st.Reason != "fact budget" {
		t.Fatalf("want fact-budget truncation, got %+v", st)
	}
	if db.FactCount() > 100 {
		t.Fatalf("materialized %d facts, budget 100", db.FactCount())
	}
}

func TestNeqConstraint(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	x, y := s.Variable("X"), s.Variable("Y")
	p.AddFact(Atom{"n", []term.ID{s.Constant("a")}})
	p.AddFact(Atom{"n", []term.ID{s.Constant("b")}})
	p.AddRule(Rule{
		Head: Atom{"pair", []term.ID{x, y}},
		Body: []Atom{{"n", []term.ID{x}}, {"n", []term.ID{y}}},
		Neqs: []Neq{{x, y}},
	})
	db, _ := p.SemiNaive(Budget{})
	if got := db.Lookup("pair").Len(); got != 2 {
		t.Fatalf("pair has %d facts, want 2 (a,b and b,a)", got)
	}
	if db.Lookup("pair").Contains([]term.ID{s.Constant("a"), s.Constant("a")}) {
		t.Fatal("x != y violated")
	}
}

func TestCompoundTermsInBodyPattern(t *testing.T) {
	// parentOf(X,Y) :- holds(f(X,Y)). — body atom with a compound pattern.
	s := term.NewStore()
	p := NewProgram(s)
	x, y := s.Variable("X"), s.Variable("Y")
	a, b := s.Constant("a"), s.Constant("b")
	p.AddFact(Atom{"holds", []term.ID{s.Compound("f", a, b)}})
	p.AddFact(Atom{"holds", []term.ID{s.Constant("junk")}})
	p.AddRule(Rule{
		Head: Atom{"parentOf", []term.ID{x, y}},
		Body: []Atom{{"holds", []term.ID{s.Compound("f", x, y)}}},
	})
	db, _ := p.SemiNaive(Budget{})
	if got := db.Lookup("parentOf").Len(); got != 1 {
		t.Fatalf("parentOf has %d facts, want 1", got)
	}
	if !db.Lookup("parentOf").Contains([]term.ID{a, b}) {
		t.Fatal("missing parentOf(a,b)")
	}
}

func TestGroundFactRule(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	p.AddRule(Rule{Head: Atom{"r", []term.ID{s.Constant("a")}}})
	db, _ := p.SemiNaive(Budget{})
	if !db.Lookup("r").Contains([]term.ID{s.Constant("a")}) {
		t.Fatal("fact rule not seeded")
	}
}

func TestValidateRangeRestriction(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	x, y := s.Variable("X"), s.Variable("Y")
	p.AddRule(Rule{Head: Atom{"r", []term.ID{x, y}}, Body: []Atom{{"e", []term.ID{x}}}})
	if err := p.Validate(); err == nil {
		t.Fatal("unbound head variable not rejected")
	}
}

func TestValidateNeqSafety(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	x, y := s.Variable("X"), s.Variable("Y")
	p.AddRule(Rule{
		Head: Atom{"r", []term.ID{x}},
		Body: []Atom{{"e", []term.ID{x}}},
		Neqs: []Neq{{x, y}},
	})
	if err := p.Validate(); err == nil {
		t.Fatal("unsafe constraint variable not rejected")
	}
}

func TestValidateArityConflict(t *testing.T) {
	s := term.NewStore()
	p := NewProgram(s)
	x := s.Variable("X")
	p.AddRule(Rule{Head: Atom{"r", []term.ID{x}}, Body: []Atom{{"e", []term.ID{x}}}})
	p.AddRule(Rule{Head: Atom{"r", []term.ID{x, x}}, Body: []Atom{{"e", []term.ID{x}}}})
	if err := p.Validate(); err == nil {
		t.Fatal("arity conflict not rejected")
	}
}

func TestValidateOK(t *testing.T) {
	p := buildTC([][2]string{{"a", "b"}})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnswers(t *testing.T) {
	p := buildTC([][2]string{{"a", "b"}, {"b", "c"}})
	db, _ := p.SemiNaive(Budget{})
	s := p.Store
	y := s.Variable("Ans")
	rows := Answers(db, s, Atom{"tc", []term.ID{s.Constant("a"), y}})
	if len(rows) != 2 {
		t.Fatalf("got %d answers, want 2", len(rows))
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[s.String(r[0])] = true
	}
	if !got["b"] || !got["c"] {
		t.Fatalf("answers %v", got)
	}
	// Query on an absent relation yields nothing.
	if Answers(db, s, Atom{"nope", nil}) != nil {
		t.Fatal("answers on missing relation")
	}
}

func TestDepends(t *testing.T) {
	p := buildTC(nil)
	deps := p.Depends()
	if len(deps["tc"]) != 2 {
		t.Fatalf("tc deps = %v", deps["tc"])
	}
}

// Property: on random graphs, semi-naive computes exactly reachability.
func TestQuickTCMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		var edges [][2]string
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(4) == 0 {
					adj[i][j] = true
					edges = append(edges, [2]string{name(i), name(j)})
				}
			}
		}
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		p := buildTC(edges)
		db, st := p.SemiNaive(Budget{})
		if st.Truncated {
			return false
		}
		tc := factSet(db, p.Store, "tc")
		count := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					count++
					if !tc[name(i)+"|"+name(j)+"|"] {
						return false
					}
				}
			}
		}
		return count == len(tc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string { return string(rune('a' + i)) }

func BenchmarkSemiNaiveTCChain100(b *testing.B) {
	var edges [][2]string
	for i := 0; i < 100; i++ {
		edges = append(edges, [2]string{name(i%26) + name(i/26), name((i+1)%26) + name((i+1)/26)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := buildTC(edges)
		if _, st := p.SemiNaive(Budget{}); st.Truncated {
			b.Fatal("truncated")
		}
	}
}

// TestStatsPinned pins Stats{Iterations,Seeded,Derived,Attempts} of this
// file's programs, semi-naive and naive, to the values the evaluator
// produced before its body join moved into the shared kernel: scheduling
// (rounds, watermarks, budgets) must not have moved with it. The kernel now
// joins the delta atom first and the rest in planned order; the windows of
// one pass partition its instantiations statically, so all four numbers
// are independent of that order.
func TestStatsPinned(t *testing.T) {
	chain := func(n int) [][2]string {
		var edges [][2]string
		for i := 0; i < n; i++ {
			edges = append(edges, [2]string{name(i), name(i + 1)})
		}
		return edges
	}
	nat := func() *Program {
		s := term.NewStore()
		p := NewProgram(s)
		x := s.Variable("X")
		p.AddFact(A("nat", s.Constant("z")))
		p.AddRule(Rule{Head: A("nat", s.Compound("s", x)), Body: []Atom{A("nat", x)}})
		return p
	}
	neqPairs := func() *Program {
		s := term.NewStore()
		p := NewProgram(s)
		x, y := s.Variable("X"), s.Variable("Y")
		p.AddFact(A("n", s.Constant("a")))
		p.AddFact(A("n", s.Constant("b")))
		p.AddRule(Rule{Head: A("pair", x, y), Body: []Atom{A("n", x), A("n", y)}, Neqs: []Neq{{x, y}}})
		return p
	}
	compoundBody := func() *Program {
		s := term.NewStore()
		p := NewProgram(s)
		x, y := s.Variable("X"), s.Variable("Y")
		p.AddFact(A("holds", s.Compound("f", s.Constant("a"), s.Constant("b"))))
		p.AddFact(A("holds", s.Constant("junk")))
		p.AddRule(Rule{Head: A("parentOf", x, y), Body: []Atom{A("holds", s.Compound("f", x, y))}})
		return p
	}
	factRule := func() *Program {
		s := term.NewStore()
		p := NewProgram(s)
		p.AddRule(Rule{Head: A("r", s.Constant("a"))})
		return p
	}
	type counts [4]int // Iterations, Seeded, Derived, Attempts
	for _, tc := range []struct {
		name        string
		build       func() *Program
		budget      Budget
		semi, naive counts
	}{
		{"chain3", func() *Program { return buildTC(chain(3)) }, Budget{}, counts{4, 3, 6, 6}, counts{4, 3, 6, 20}},
		{"cycle2", func() *Program { return buildTC([][2]string{{"a", "b"}, {"b", "a"}}) }, Budget{}, counts{3, 2, 4, 6}, counts{3, 2, 4, 12}},
		{"graph5", func() *Program {
			return buildTC([][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}, {"d", "e"}})
		}, Budget{}, counts{5, 5, 16, 21}, counts{5, 5, 16, 71}},
		{"chain30", func() *Program { return buildTC(chain(30)) }, Budget{}, counts{31, 30, 465, 465}, counts{31, 30, 465, 9920}},
		{"natDepth5", nat, Budget{MaxTermDepth: 5}, counts{6, 1, 5, 6}, counts{6, 1, 5, 21}},
		{"natFacts100", nat, Budget{MaxFacts: 100}, counts{99, 1, 99, 99}, counts{99, 1, 99, 4950}},
		{"natIters7", nat, Budget{MaxIters: 7}, counts{7, 1, 7, 7}, counts{7, 1, 7, 28}},
		{"neqPairs", neqPairs, Budget{}, counts{2, 2, 2, 2}, counts{2, 2, 2, 4}},
		{"compoundBody", compoundBody, Budget{}, counts{2, 2, 1, 1}, counts{2, 2, 1, 2}},
		{"factRule", factRule, Budget{}, counts{1, 1, 0, 0}, counts{1, 1, 0, 0}},
	} {
		_, st := tc.build().SemiNaive(tc.budget)
		if got := (counts{st.Iterations, st.Seeded, st.Derived, st.Attempts}); got != tc.semi {
			t.Errorf("%s semi-naive: stats %v, want %v", tc.name, got, tc.semi)
		}
		_, st = tc.build().Naive(tc.budget)
		if got := (counts{st.Iterations, st.Seeded, st.Derived, st.Attempts}); got != tc.naive {
			t.Errorf("%s naive: stats %v, want %v", tc.name, got, tc.naive)
		}
	}
}

package ddatalog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/rel"
	"repro/internal/term"
)

// reachProgram builds a two-peer reachability program:
//
//	edge@a(x,y) facts, path@a(X,Y) :- edge@a(X,Y)
//	path@a(X,Z) :- edge@a(X,Y), path@a(Y,Z)
//	mirror@b(X,Y) :- path@a(X,Y)   (forces cross-peer subscription)
func reachProgram(s *term.Store, edges [][2]string) (*Program, PAtom) {
	p := NewProgram(s)
	x, y, z := s.Variable("X"), s.Variable("Y"), s.Variable("Z")
	p.AddRule(PRule{Head: At("path", "a", x, y), Body: []PAtom{At("edge", "a", x, y)}})
	p.AddRule(PRule{Head: At("path", "a", x, z), Body: []PAtom{At("edge", "a", x, y), At("path", "a", y, z)}})
	p.AddRule(PRule{Head: At("mirror", "b", x, y), Body: []PAtom{At("path", "a", x, y)}})
	for _, e := range edges {
		p.AddFact(At("edge", "a", s.Constant(e[0]), s.Constant(e[1])))
	}
	return p, At("mirror", "b", s.Variable("QX"), s.Variable("QY"))
}

// TestRunDeltaIncrementalFacts: appending one edge at a time through
// RunDelta yields the same final answer set as a one-shot run, and the
// later rounds only derive the new frontier (warm state is reused).
func TestRunDeltaIncrementalFacts(t *testing.T) {
	edges := [][2]string{{"1", "2"}, {"2", "3"}, {"3", "4"}}

	// One-shot reference.
	s1 := term.NewStore()
	prog1, q1 := reachProgram(s1, edges)
	ref, _, err := Run(prog1, q1, datalog.Budget{}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Incremental: start with the first edge, append the rest.
	s2 := term.NewStore()
	prog2, q2 := reachProgram(s2, edges[:1])
	eng, err := NewEngine(prog2, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(q2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("round 0: %d answers, want 1", len(res.Answers))
	}
	for _, e := range edges[1:] {
		res, err = eng.RunDelta(q2, []PAtom{At("edge", "a", s2.Constant(e[0]), s2.Constant(e[1]))}, nil, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Answers) != len(ref.Answers) {
		t.Fatalf("incremental answers %d != one-shot %d", len(res.Answers), len(ref.Answers))
	}
	// Derived is cumulative; warm reuse means the total stays close to the
	// one-shot count (the same path facts are derived exactly once).
	if res.Stats.Derived > 2*ref.Stats.Derived {
		t.Fatalf("incremental derived %d > 2x one-shot %d", res.Stats.Derived, ref.Stats.Derived)
	}
}

// TestRunDeltaInstallRule: a rule arriving between rounds extends the
// program — a fresh query relation over the warm materialization.
func TestRunDeltaInstallRule(t *testing.T) {
	s := term.NewStore()
	prog, q := reachProgram(s, [][2]string{{"1", "2"}, {"2", "3"}})
	eng, err := NewEngine(prog, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(q, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// New rule: from1@b(X) :- mirror@b("1", X) — hosted at b, over replicas.
	x := s.Variable("NX")
	r := PRule{Head: At("from1", "b", x), Body: []PAtom{At("mirror", "b", s.Constant("1"), x)}}
	res, err := eng.RunDelta(At("from1", "b", s.Variable("QZ")), nil, []PRule{r}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 { // 1->2, 1->3
		t.Fatalf("from1 answers = %d, want 2", len(res.Answers))
	}
}

// TestRunRepeatedSameQuery: re-running the same query with no delta is a
// cheap no-op that still returns the full (accumulated) answer set.
func TestRunRepeatedSameQuery(t *testing.T) {
	s := term.NewStore()
	prog, q := reachProgram(s, [][2]string{{"1", "2"}, {"2", "3"}})
	eng, err := NewEngine(prog, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Run(q, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(q, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Answers) != len(second.Answers) {
		t.Fatalf("answers changed across idle reruns: %d then %d", len(first.Answers), len(second.Answers))
	}
	if second.Stats.Derived != first.Stats.Derived {
		t.Fatalf("idle rerun derived new facts: %d -> %d", first.Stats.Derived, second.Stats.Derived)
	}
	if second.Stats.Net.MessagesSent > 3 {
		t.Fatalf("idle rerun sent %d messages", second.Stats.Net.MessagesSent)
	}
}

// TestActivationHooksOfTwoEnginesOverlap: the lock around an activation
// hook protects one engine's program store, so two engines (two sessions
// in one diagnosed process) must be able to sit inside their hooks at the
// same time. Each engine's first hook call waits for the other's.
func TestActivationHooksOfTwoEnginesOverlap(t *testing.T) {
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		prog, q := reachProgram(term.NewStore(), [][2]string{{"1", "2"}, {"2", "3"}})
		eng, err := NewEngine(prog, datalog.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		var first sync.Once
		eng.SetActivationHook(func(dist.PeerID, rel.Name) []PRule {
			first.Do(func() {
				arrived <- struct{}{}
				<-release
			})
			return nil
		})
		go func() {
			_, err := eng.Run(q, 30*time.Second)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Errorf("only %d of 2 engines entered their activation hook: hooks of distinct engines serialize", i)
			i = 2
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

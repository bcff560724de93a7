package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/term"
)

// bruteMatch is the property test's own one-way matcher: it shares nothing
// with term.Bindings. env maps variables to ground terms.
func bruteMatch(s *term.Store, pat, ground term.ID, env map[term.ID]term.ID) bool {
	switch s.Kind(pat) {
	case term.Const:
		return pat == ground
	case term.Var:
		if t, ok := env[pat]; ok {
			return t == ground
		}
		env[pat] = ground
		return true
	}
	if s.Kind(ground) != term.Comp || s.Name(ground) != s.Name(pat) || len(s.Args(ground)) != len(s.Args(pat)) {
		return false
	}
	for i, a := range s.Args(pat) {
		if !bruteMatch(s, a, s.Args(ground)[i], env) {
			return false
		}
	}
	return true
}

// bruteSubst instantiates t under env (every variable of t must be bound).
func bruteSubst(s *term.Store, t term.ID, env map[term.ID]term.ID) term.ID {
	switch s.Kind(t) {
	case term.Const:
		return t
	case term.Var:
		return env[t]
	}
	args := make([]term.ID, len(s.Args(t)))
	for i, a := range s.Args(t) {
		args[i] = bruteSubst(s, a, env)
	}
	return s.Compound(s.Name(t), args...)
}

// bruteJoin enumerates the cross product of the body atoms' windows (or
// the pinned tuple) in the kernel's order — atom 0 outermost, positions
// ascending — and returns the rendered head of every combination that
// matches, passes the neqs and survives the depth gadget, plus the number
// of body matches.
func bruteJoin(db *rel.DB, r Rule, win []Window, pin int, pinned []term.ID, maxDepth int) (heads []string, attempts int) {
	s := db.Store
	choice := make([][]term.ID, len(r.Body))
	var rec func(j int)
	rec = func(j int) {
		if j < len(r.Body) {
			if j == pin {
				choice[j] = pinned
				rec(j + 1)
				return
			}
			all := db.Lookup(r.Body[j].Rel).All()
			lo, hi := 0, len(all)
			if win != nil {
				lo, hi = win[j].Lo, min(win[j].Hi, len(all))
			}
			for pos := lo; pos < hi; pos++ {
				choice[j] = all[pos]
				rec(j + 1)
			}
			return
		}
		env := map[term.ID]term.ID{}
		for j, a := range r.Body {
			for i, pat := range a.Args {
				if !bruteMatch(s, pat, choice[j][i], env) {
					return
				}
			}
		}
		for _, n := range r.Neqs {
			if bruteSubst(s, n.X, env) == bruteSubst(s, n.Y, env) {
				return
			}
		}
		attempts++
		row := make([]string, len(r.Head.Args))
		for i, t := range r.Head.Args {
			g := bruteSubst(s, t, env)
			if maxDepth > 0 && s.Depth(g) > maxDepth {
				return
			}
			row[i] = s.String(g)
		}
		heads = append(heads, strings.Join(row, ","))
	}
	rec(0)
	return heads, attempts
}

// TestQuickKernelMatchesBruteForce drives Kernel.Join directly on random
// small bodies — repeated variables, compound patterns, constants, neqs,
// every pin position, non-trivial windows, the depth gadget, early stop —
// and requires the exact emission sequence of the cross-product
// enumerator.
func TestQuickKernelMatchesBruteForce(t *testing.T) {
	nonEmpty := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := term.NewStore()
		consts := []term.ID{s.Constant("a"), s.Constant("b")}
		vars := []term.ID{s.Variable("X"), s.Variable("Y"), s.Variable("Z")}
		// A four-value domain {a, b, f(a), f(b)} keeps joins from going empty.
		ground := func() term.ID {
			if c := consts[rng.Intn(2)]; rng.Intn(3) > 0 {
				return c
			} else {
				return s.Compound("f", c)
			}
		}
		pattern := func() term.ID {
			leaf := vars[rng.Intn(3)]
			if rng.Intn(5) == 0 {
				leaf = consts[rng.Intn(2)]
			}
			if rng.Intn(4) == 0 {
				return s.Compound("f", leaf)
			}
			return leaf
		}

		db := rel.NewDB(s)
		names := []rel.Name{"p", "q", "r"}
		for _, n := range names {
			relation := db.Rel(n, 1+rng.Intn(2))
			for i, m := 0, 2+rng.Intn(10); i < m; i++ {
				tuple := make([]term.ID, relation.Arity())
				for c := range tuple {
					tuple[c] = ground()
				}
				relation.Insert(tuple)
			}
		}

		var r Rule
		var bodyVars []term.ID
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			a := Atom{Rel: names[rng.Intn(3)]}
			for i := 0; i < db.Lookup(a.Rel).Arity(); i++ {
				p := pattern()
				a.Args = append(a.Args, p)
				bodyVars = s.Vars(bodyVars, p)
			}
			r.Body = append(r.Body, a)
		}
		operand := func() term.ID {
			if len(bodyVars) == 0 || rng.Intn(4) == 0 {
				return consts[rng.Intn(2)]
			}
			return bodyVars[rng.Intn(len(bodyVars))]
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			if x, y := operand(), operand(); x != y {
				r.Neqs = append(r.Neqs, Neq{X: x, Y: y})
			}
		}
		r.Head.Rel = "h"
		for _, v := range bodyVars {
			if rng.Intn(3) == 0 {
				v = s.Compound("g", v)
			}
			r.Head.Args = append(r.Head.Args, v)
		}

		var win []Window
		if rng.Intn(2) == 0 {
			for _, a := range r.Body {
				n := db.Lookup(a.Rel).Len()
				lo := rng.Intn(n + 1)
				win = append(win, Window{lo, lo + rng.Intn(n+3-lo)})
			}
		}
		pin, pinned := rng.Intn(len(r.Body)+1)-1, []term.ID(nil)
		if pin >= 0 {
			// Usually a tuple of the relation (a real delta), sometimes not.
			if all := db.Lookup(r.Body[pin].Rel).All(); rng.Intn(4) > 0 {
				pinned = all[rng.Intn(len(all))]
			} else {
				for range r.Body[pin].Args {
					pinned = append(pinned, ground())
				}
			}
		}
		maxDepth := max(0, rng.Intn(5)-2) // 0 disables the gadget

		full, wantAttempts := bruteJoin(db, r, win, pin, pinned, maxDepth)
		want, stopAfter := full, -1
		if len(want) > 0 && rng.Intn(3) == 0 {
			stopAfter = 1 + rng.Intn(len(want))
		}

		var got []string
		k := Kernel{DB: db, Bnd: term.NewBindings(s), MaxTermDepth: maxDepth}
		k.Emit = func(cr *CompiledRule, head []term.ID) bool {
			row := make([]string, len(head))
			for i, h := range head {
				row[i] = s.String(h)
			}
			got = append(got, strings.Join(row, ","))
			return len(got) != stopAfter
		}
		c := Compile(r)
		k.Join(c, win, pin, pinned)
		if stopAfter > 0 {
			want = want[:stopAfter]
		} else if k.Attempts != wantAttempts {
			t.Fatalf("seed %d: %s: %d attempts, brute force %d", seed, r.String(s), k.Attempts, wantAttempts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %s win=%v pin=%d depth=%d stop=%d:\n got %v\nwant %v",
				seed, r.String(s), win, pin, maxDepth, stopAfter, got, want)
		}
		nonEmpty += min(len(want), 1)
		if k.Bnd.Len() != 0 {
			t.Fatalf("seed %d: %d bindings left after Join", seed, k.Bnd.Len())
		}
		// A second Join on the same kernel and compiled rule (warm scratch,
		// cached relations, stop flag reset) repeats the sequence.
		got, stopAfter = nil, -1
		k.Join(c, win, pin, pinned)
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("seed %d: warm re-join differs:\n got %v\nwant %v", seed, got, full)
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d of 400 random joins emitted anything; the generator has gone vacuous", nonEmpty)
	}
	t.Logf("%d of 400 random joins emitted heads", nonEmpty)
}

// TestKernelWarmDeltaJoinAllocsIndependentOfProbes pins PR 10's "a delta
// join allocates nothing per probed tuple": with every derivation a
// duplicate, a warm pinned join over n matching tuples allocates the same
// (zero) whatever n is.
func TestKernelWarmDeltaJoinAllocsIndependentOfProbes(t *testing.T) {
	allocs := func(n int) (float64, int) {
		s := term.NewStore()
		x, y, z := s.Variable("X"), s.Variable("Y"), s.Variable("Z")
		a := s.Constant("a")
		db := rel.NewDB(s)
		e := db.Rel("e", 3)
		for i := 0; i < n; i++ {
			ci := s.Constant(fmt.Sprint("c", i))
			e.Insert([]term.ID{a, s.Compound("f", a, ci), s.Compound("g", ci)})
		}
		// h(X, Z) :- d(X), e(X, f(X,Y), Z), X != Y — an indexed probe whose
		// every candidate needs a compound match against a resolved pattern.
		c := Compile(Rule{
			Head: A("h", x, z),
			Body: []Atom{A("d", x), A("e", x, s.Compound("f", x, y), z)},
			Neqs: []Neq{{X: x, Y: y}},
		})
		k := Kernel{DB: db, Bnd: term.NewBindings(s)}
		k.Emit = func(r *CompiledRule, head []term.ID) bool {
			r.HeadRel(db).Insert(head)
			return true
		}
		pinned := []term.ID{a}
		k.Join(c, nil, 0, pinned) // materialize every head once
		before := k.Attempts
		per := testing.AllocsPerRun(20, func() { k.Join(c, nil, 0, pinned) })
		return per, (k.Attempts - before) / 21
	}
	small, probesSmall := allocs(8)
	large, probesLarge := allocs(2048)
	if probesSmall != 8 || probesLarge != 2048 {
		t.Fatalf("joins probed %d and %d tuples, want 8 and 2048", probesSmall, probesLarge)
	}
	if small != 0 || large != 0 {
		t.Fatalf("warm duplicate-only delta join allocates %v per run at 8 probes, %v at 2048; want 0 and 0", small, large)
	}
}

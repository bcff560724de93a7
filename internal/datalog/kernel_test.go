package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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

// bruteJoin enumerates the cross product of the body atoms' windows (the
// pinned tuple for atom pin, if pinned is non-nil) and returns the
// rendered head of every combination that matches, passes the neqs and
// survives the depth gadget, sorted, plus the number of body matches.
func bruteJoin(db *rel.DB, r Rule, win []Window, pin int, pinned []term.ID, maxDepth int) (heads []string, attempts int) {
	s := db.Store
	choice := make([][]term.ID, len(r.Body))
	var rec func(j int)
	rec = func(j int) {
		if j < len(r.Body) {
			if j == pin && pinned != nil {
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
	sort.Strings(heads)
	return heads, attempts
}

// TestQuickKernelMatchesBruteForce drives Kernel.Join directly on random
// small bodies — one to four atoms over three relations (so self-joins),
// repeated variables, unary and binary compound patterns, constants, neqs,
// the depth gadget — from every entry atom, pinned to a tuple and scanned,
// with and without windows, and requires the multiset of heads and the
// attempt count of the cross-product enumerator: the plan may visit the
// instantiations in any order but must visit exactly those. An early stop
// must deliver a sub-multiset of the right size.
func TestQuickKernelMatchesBruteForce(t *testing.T) {
	nonEmpty, joins, reordered, partial := 0, 0, 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := term.NewStore()
		consts := []term.ID{s.Constant("a"), s.Constant("b")}
		vars := []term.ID{s.Variable("X"), s.Variable("Y"), s.Variable("Z")}
		// A small domain {a, b, f(a), f(b), g(a,a), ...} keeps joins from going empty.
		ground := func() term.ID {
			c := consts[rng.Intn(2)]
			switch rng.Intn(5) {
			case 0:
				return s.Compound("f", c)
			case 1, 2:
				return s.Compound("g", c, consts[rng.Intn(2)])
			}
			return c
		}
		leaf := func() term.ID {
			if rng.Intn(5) == 0 {
				return consts[rng.Intn(2)]
			}
			return vars[rng.Intn(3)]
		}
		pattern := func() term.ID {
			switch rng.Intn(6) {
			case 0:
				return s.Compound("f", leaf())
			case 1, 2:
				return s.Compound("g", leaf(), leaf())
			}
			return leaf()
		}

		db := rel.NewDB(s)
		names := []rel.Name{"p", "q", "r"}
		for _, n := range names {
			relation := db.Rel(n, 1+rng.Intn(2))
			for i, m := 0, 3+rng.Intn(12); i < m; i++ {
				tuple := make([]term.ID, relation.Arity())
				for c := range tuple {
					tuple[c] = ground()
				}
				relation.Insert(tuple)
			}
		}

		var r Rule
		var bodyVars []term.ID
		for j, n := 0, 1+rng.Intn(4); j < n; j++ {
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
				v = s.Compound("g", v, v)
			}
			r.Head.Args = append(r.Head.Args, v)
		}
		maxDepth := max(0, rng.Intn(5)-2) // 0 disables the gadget

		c := Compile(s, r.Head, r.Body, r.Neqs)
		var got []string
		stopAfter := -1
		k := Kernel{DB: db, Bnd: term.NewBindings(s), MaxTermDepth: maxDepth}
		k.Emit = func(cr *CompiledRule, head []term.ID) bool {
			row := make([]string, len(head))
			for i, h := range head {
				row[i] = s.String(h)
			}
			got = append(got, strings.Join(row, ","))
			return len(got) != stopAfter
		}
		run := func(win []Window, entry int, pinned []term.ID) []string {
			got = nil
			k.Join(c, win, entry, pinned)
			if k.Bnd.Len() != 0 {
				t.Fatalf("seed %d: %d bindings left after Join", seed, k.Bnd.Len())
			}
			sort.Strings(got)
			return got
		}

		for entry := -1; entry < len(r.Body); entry++ {
			emitted := 0
			var windows []Window
			for _, a := range r.Body {
				n := db.Lookup(a.Rel).Len()
				lo := rng.Intn(n + 1)
				windows = append(windows, Window{lo, lo + rng.Intn(n+3-lo)})
			}
			pins := [][]term.ID{nil}
			if entry >= 0 {
				// A tuple of the relation (a real delta) and one that need not be.
				all := db.Lookup(r.Body[entry].Rel).All()
				stray := make([]term.ID, len(r.Body[entry].Args))
				for i := range stray {
					stray[i] = ground()
				}
				pins = append(pins, all[rng.Intn(len(all))], stray)
			}
			for _, win := range [][]Window{nil, windows} {
				for _, pinned := range pins {
					where := fmt.Sprintf("seed %d: %s win=%v entry=%d pinned=%v depth=%d", seed, r.String(s), win, entry, pinned, maxDepth)
					want, wantAttempts := bruteJoin(db, r, win, entry, pinned, maxDepth)
					before := k.Attempts
					if got := run(win, entry, pinned); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\n got %v\nwant %v", where, got, want)
					}
					if k.Attempts-before != wantAttempts {
						t.Fatalf("%s: %d attempts, brute force %d", where, k.Attempts-before, wantAttempts)
					}
					joins++
					if len(want) == 0 {
						continue
					}
					emitted++
					// Stopped early, then again warm with the stop flag reset.
					stopAfter = 1 + rng.Intn(len(want))
					if got := run(win, entry, pinned); len(got) != stopAfter || !subMultiset(got, want) {
						t.Fatalf("%s stop=%d:\n got %v\n not %d of %v", where, stopAfter, got, stopAfter, want)
					}
					stopAfter = -1
					if got := run(win, entry, pinned); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: warm re-join differs:\n got %v\nwant %v", where, got, want)
					}
				}
			}
			nonEmpty += emitted
			if re, pa := planShape(s, c, entry); emitted > 0 {
				reordered += re
				partial += pa
			}
		}
	}
	const tally = "%d of %d random joins emitted heads; of the plans behind those, %d left source order and %d matched a compound bound only in part"
	if nonEmpty < joins/10 || reordered < 50 || partial < 50 {
		t.Fatalf(tally+": the generator has gone vacuous", nonEmpty, joins, reordered, partial)
	}
	t.Logf(tally, nonEmpty, joins, reordered, partial)
}

// planShape reports (as 0 or 1 each) whether c's plan for entry leaves
// source order after the entry atom, and whether some step of it matches a
// compound pattern of which only some variables are bound on arrival.
func planShape(s *term.Store, c *CompiledRule, entry int) (reordered, partial int) {
	n := len(c.Body)
	var bound []term.ID
	last, from := -1, max(entry, 0)
	if entry < 0 {
		from = c.full
	}
	for d, st := range c.steps[from*n : (from+1)*n] {
		if d > 0 || entry < 0 {
			if st.atom < last {
				reordered = 1
			}
			last = st.atom
		}
		for i, t := range c.Body[st.atom].Args {
			if s.Kind(t) == term.Comp && st.mask&(1<<uint(i)) == 0 {
				vs := s.Vars(nil, t)
				if fresh := len(s.Vars(bound[:len(bound):len(bound)], t)) - len(bound); 0 < fresh && fresh < len(vs) {
					partial = 1
				}
			}
		}
		for _, t := range c.Body[st.atom].Args {
			bound = s.Vars(bound, t)
		}
	}
	return reordered, partial
}

// subMultiset reports whether sorted a is contained in sorted b.
func subMultiset(a, b []string) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// TestDeltaJoinProbesFollowTheIndex pins what the plan is for: a fact
// arriving for the last atom of h(X,Z) :- big(X,Y), small(Y,Z) reaches the
// big tuples that join with it through the index on Y, not by walking big.
func TestDeltaJoinProbesFollowTheIndex(t *testing.T) {
	s := term.NewStore()
	x, y, z := s.Variable("X"), s.Variable("Y"), s.Variable("Z")
	db := rel.NewDB(s)
	big := db.Rel("big", 2)
	for i := 0; i < 10000; i++ {
		big.Insert([]term.ID{s.Constant(fmt.Sprint("x", i)), s.Constant(fmt.Sprint("y", i/3))})
	}
	small := db.Rel("small", 2)
	small.Insert([]term.ID{s.Constant("y7"), s.Constant("z")})
	c := Compile(s, A("h", x, z), []Atom{A("big", x, y), A("small", y, z)}, nil)
	k := Kernel{DB: db, Bnd: term.NewBindings(s), Emit: func(*CompiledRule, []term.ID) bool { return true }}
	k.Join(c, nil, 1, small.At(0))
	if k.Attempts != 3 {
		t.Fatalf("%d matches, want the 3 big tuples with Y = y7", k.Attempts)
	}
	if k.Probes > k.Attempts+1 {
		t.Fatalf("delta join at small probed %d tuples for %d matches; it must start at the new tuple and probe big by index", k.Probes, k.Attempts)
	}
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
		c := Compile(s, A("h", x, z),
			[]Atom{A("d", x), A("e", x, s.Compound("f", x, y), z)},
			[]Neq{{X: x, Y: y}})
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

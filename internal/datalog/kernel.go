package datalog

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/rel"
	"repro/internal/term"
)

// This file is the one place a rule instantiation is matched. Naive,
// semi-naive, QSQ, magic, naive dDatalog and dQSQ differ only in which
// instantiations they schedule (Theorems 1 and 4), so the centralized
// evaluator, the distributed peers and Answers all hand their rules to the
// same planned body join and the same head builder.

// CompiledRule is a rule prepared for the kernel: the argument patterns
// and inequality constraints of the source rule, the slot of each relation
// it names, and one join plan per atom the join may be told to start from.
// It is immutable once compiled, so every kernel whose slots were numbered
// the same way — the sessions cloned from one program — may join it, at the
// same time: the relation pointers a join resolves are cached in the Kernel,
// by slot, not in the rule.
type CompiledRule struct {
	Head CompiledAtom
	Body []CompiledAtom
	Neqs []Neq
	// steps holds one plan of len(Body) steps per body atom, back to back:
	// steps[e*n:(e+1)*n] is the plan entered at atom e. A full evaluation
	// (no entry atom) enters at atom full, the one greed would pick first.
	steps []step
	full  int
}

// CompiledAtom is an atom with the slot of its relation: the number the
// rule's program gives the relation name, dense from 0 and the same wherever
// the name occurs, or negative for none — a kernel then looks the relation
// up by name each time a join reaches the atom.
type CompiledAtom struct {
	Atom
	Slot int
}

// step is one atom of a join plan. Stored facts are ground, so which
// columns the atoms before it have bound is known when the rule is
// compiled: mask selects the columns whose pattern is ground by then —
// constants, bound variables, compounds over them. Resolved, they are the
// index key the atom is probed with; the columns outside mask are matched
// against each candidate tuple. Two words a step: a session hosts
// thousands of rules.
type step struct {
	atom int
	mask uint64
}

// Compile prepares the rule head :- body, neqs, whose terms are interned
// in s, for Kernel.Join, with no slot for any relation. It shares the
// argument and constraint slices.
func Compile(s *term.Store, head Atom, body []Atom, neqs []Neq) *CompiledRule {
	c := &CompiledRule{Head: CompiledAtom{head, -1}, Body: make([]CompiledAtom, len(body)), Neqs: neqs}
	for i, a := range body {
		c.Body[i] = CompiledAtom{a, -1}
	}
	c.plan(s)
	return c
}

// CompileSlotted is Compile for the rules of one program, whose relations
// the caller has numbered. It copies body (a caller's stack buffer will do).
func CompileSlotted(s *term.Store, head CompiledAtom, body []CompiledAtom, neqs []Neq) *CompiledRule {
	c := &CompiledRule{Head: head, Body: slices.Clone(body), Neqs: neqs}
	c.plan(s)
	return c
}

// plan orders the body once per entry atom: the entry first, then always
// the atom with the most columns bound by constants and by the variables
// of the atoms already placed, ties to source order. dQSQ bodies are
// sup_j, atom_j, so a fact arriving for atom_j probes sup_j by index on the
// shared variables instead of walking all of it. Relations are empty when
// rules are installed, so connectivity is all there is to order by.
func (r *CompiledRule) plan(s *term.Store) {
	n := len(r.Body)
	r.steps = make([]step, 0, n*n)
	var buf [16]term.ID
	for entry := 0; entry < n; entry++ {
		plan, bound := r.steps[len(r.steps):], buf[:0]
		next := step{entry, keyMask(s, r.Body[entry].Args, bound)}
		for {
			plan = append(plan, next)
			if len(plan) == n {
				break
			}
			for _, t := range r.Body[next.atom].Args {
				bound = s.Vars(bound, t)
			}
			next.atom = -1
			for j := range r.Body {
				if placed(plan, j) {
					continue
				}
				if st := (step{j, keyMask(s, r.Body[j].Args, bound)}); next.atom < 0 || st.keyed() > next.keyed() {
					next = st
				}
			}
		}
		r.steps = r.steps[:len(r.steps)+n]
		if plan[0].keyed() > r.steps[r.full*n].keyed() {
			r.full = entry
		}
	}
}

// keyed counts the columns of the step's index key.
func (st step) keyed() int { return bits.OnesCount64(st.mask) }

func placed(plan []step, atom int) bool {
	for i := range plan {
		if plan[i].atom == atom {
			return true
		}
	}
	return false
}

// keyMask selects the patterns of args that have no variable outside
// bound.
func keyMask(s *term.Store, args, bound []term.ID) (mask uint64) {
	for i, t := range args {
		if len(s.Vars(bound, t)) == len(bound) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// HeadRel returns the relation the rule derives into, creating it in db on
// first use. Kernel.HeadRel is the cached form.
func (r *CompiledRule) HeadRel(db *rel.DB) *rel.Relation {
	return db.Rel(r.Head.Rel, len(r.Head.Args))
}

// Window is the scan window [Lo,Hi) of tuple positions one body atom is
// joined over.
type Window struct{ Lo, Hi int }

// Kernel matches rule bodies against DB under Bnd and hands every
// satisfied instantiation's head to Emit. One kernel serves one evaluator
// or peer: its scratch is reused across every Join, so a warm join
// allocates nothing per probed tuple, and Join is not re-entrant — Emit
// must queue follow-up joins, not start them.
type Kernel struct {
	DB  *rel.DB
	Bnd *term.Bindings
	// MaxTermDepth, when positive, drops heads containing a term nested
	// deeper than this (Budget.MaxTermDepth, the Section 4.4 gadget).
	MaxTermDepth int
	// Emit receives the resolved, ground head arguments in a buffer that is
	// only valid during the call. Returning false stops the current Join.
	Emit func(r *CompiledRule, head []term.ID) bool
	// Attempts counts satisfied body matches, duplicates and depth-dropped
	// heads included; Probes counts the stored tuples scans handed to the
	// matcher. Probes/Attempts is the join's waste ratio.
	Attempts, Probes int

	// rels caches the relations of DB by slot (DB.Rel never replaces a
	// relation, so a cached pointer stays valid).
	rels []*rel.Relation

	// Scratch: one index key per plan depth (the join at depth d owns entry
	// d; deeper recursion uses higher entries) and one head buffer.
	keybuf  [][]term.ID
	headbuf []term.ID

	// The Join in progress.
	rule    *CompiledRule
	plan    []step
	win     []Window
	pinned  []term.ID
	stopped bool
}

// Join extends Bnd over r's body atoms, in the order planned for starting
// at body atom entry (entry < 0: no atom to start from, a full evaluation),
// and calls Emit for every instantiation that also satisfies r's
// inequality constraints. Body atom j scans win[j] of its relation; a nil
// win scans every relation whole, as it stands when the join reaches the
// atom. A non-nil pinned is the one tuple the entry atom is matched
// against instead of being scanned — the delta of a single new fact; a
// delta that is a window of positions is entry plus win[entry]. (The one
// possible tuple of a zero-arity atom is nil: scanning finds it as well.)
func (k *Kernel) Join(r *CompiledRule, win []Window, entry int, pinned []term.ID) {
	if entry < 0 {
		entry = r.full
	}
	n := len(r.Body)
	k.rule, k.plan, k.win, k.pinned, k.stopped = r, r.steps[entry*n:(entry+1)*n], win, pinned, false
	k.join(0)
}

// Rel returns the relation of slot, which is called name: cached, or looked
// up in DB, where an arity >= 0 creates it if it is missing. A negative slot
// is looked up every time.
func (k *Kernel) Rel(slot int, name rel.Name, arity int) *rel.Relation {
	if slot >= 0 && slot < len(k.rels) && k.rels[slot] != nil {
		return k.rels[slot]
	}
	relation := k.DB.Lookup(name)
	if relation == nil && arity >= 0 {
		relation = k.DB.Rel(name, arity)
	}
	if slot >= 0 && relation != nil {
		for len(k.rels) <= slot {
			k.rels = append(k.rels, nil)
		}
		k.rels[slot] = relation
	}
	return relation
}

// HeadRel returns the relation r derives into, creating it on first use.
func (k *Kernel) HeadRel(r *CompiledRule) *rel.Relation {
	return k.Rel(r.Head.Slot, r.Head.Rel, len(r.Head.Args))
}

// scratch returns entry j of a per-depth buffer list, sized to n IDs.
func scratch(bufs *[][]term.ID, j, n int) []term.ID {
	for len(*bufs) <= j {
		*bufs = append(*bufs, nil)
	}
	b := (*bufs)[j]
	if cap(b) < n {
		b = make([]term.ID, n)
		(*bufs)[j] = b
	}
	return b[:n]
}

func (k *Kernel) join(d int) {
	if d == len(k.plan) {
		k.head()
		return
	}
	st, bnd := &k.plan[d], k.Bnd
	a := &k.rule.Body[st.atom]
	args := a.Args
	if d == 0 && k.pinned != nil {
		mark := bnd.Mark()
		if k.match(args, 0, k.pinned) {
			k.join(1)
		}
		bnd.Undo(mark)
		return
	}
	relation := k.Rel(a.Slot, a.Rel, -1)
	if relation == nil {
		return
	}
	lo, hi := 0, math.MaxInt
	if k.win != nil {
		lo, hi = k.win[st.atom].Lo, k.win[st.atom].Hi
	}
	mask := st.mask
	key := scratch(&k.keybuf, d, len(args))
	for i, pat := range args {
		if mask&(1<<uint(i)) != 0 {
			key[i] = bnd.Resolve(pat)
		}
	}
	relation.Scan(mask, key, lo, hi, func(_ int, tuple []term.ID) bool {
		k.Probes++
		mark := bnd.Mark()
		if k.match(args, mask, tuple) {
			k.join(d + 1)
		}
		bnd.Undo(mark)
		return !k.stopped
	})
}

// match matches the columns of args outside mask (those the index has not
// already compared) against tuple, binding their free variables. Match
// reads bound variables inside a pattern itself, so a compound bound only
// in part is never rebuilt.
func (k *Kernel) match(args []term.ID, mask uint64, tuple []term.ID) bool {
	for i, pat := range args {
		if mask&(1<<uint(i)) == 0 && !k.Bnd.Match(pat, tuple[i]) {
			return false
		}
	}
	return true
}

// head checks the rule's inequality constraints, resolves the head under
// the current bindings and emits it.
func (k *Kernel) head() {
	r, bnd, store := k.rule, k.Bnd, k.DB.Store
	for _, n := range r.Neqs {
		if bnd.Resolve(n.X) == bnd.Resolve(n.Y) {
			return
		}
	}
	k.Attempts++
	n := len(r.Head.Args)
	if cap(k.headbuf) < n {
		k.headbuf = make([]term.ID, n)
	}
	args := k.headbuf[:n]
	for i, t := range r.Head.Args {
		rt := bnd.Resolve(t)
		if !store.IsGround(rt) {
			panic(fmt.Sprintf("datalog: rule derived non-ground fact %s", r.Head.String(store)))
		}
		if k.MaxTermDepth > 0 && store.Depth(rt) > k.MaxTermDepth {
			return // depth gadget: drop, do not truncate
		}
		args[i] = rt
	}
	if !k.Emit(r, args) {
		k.stopped = true
	}
}

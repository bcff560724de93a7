package datalog

import (
	"fmt"
	"math"

	"repro/internal/rel"
	"repro/internal/term"
)

// This file is the one place a rule instantiation is matched. Naive,
// semi-naive, QSQ, magic, naive dDatalog and dQSQ differ only in which
// instantiations they schedule (Theorems 1 and 4), so the centralized
// evaluator, the distributed peers and Answers all hand their rules to the
// same left-to-right body join and the same head builder.

// CompiledRule is a rule prepared for the kernel: the argument patterns
// and inequality constraints of the source rule plus the relation pointers
// the join resolves on first use (DB.Rel never replaces a relation, so a
// cached pointer stays valid).
type CompiledRule struct {
	Head Atom
	Body []CompiledAtom
	Neqs []Neq
	head *rel.Relation
}

// CompiledAtom is a body atom with its relation cached.
type CompiledAtom struct {
	Atom
	rel *rel.Relation
}

// Compile prepares r for Kernel.Join.
func Compile(r Rule) *CompiledRule {
	c := &CompiledRule{Head: r.Head, Body: make([]CompiledAtom, len(r.Body)), Neqs: r.Neqs}
	for i, a := range r.Body {
		c.Body[i].Atom = a
	}
	return c
}

// HeadRel returns the relation the rule derives into, creating it in db on
// first use.
func (r *CompiledRule) HeadRel(db *rel.DB) *rel.Relation {
	if r.head == nil {
		r.head = db.Rel(r.Head.Rel, len(r.Head.Args))
	}
	return r.head
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
	// heads included.
	Attempts int

	// Scratch: one key/resolved pair per body depth (join at depth j owns
	// entry j; deeper recursion uses higher entries) and one head buffer.
	keybuf  [][]term.ID
	resbuf  [][]term.ID
	headbuf []term.ID

	// The Join in progress.
	rule    *CompiledRule
	win     []Window
	pin     int
	pinned  []term.ID
	stopped bool
}

// Join extends Bnd over r's body atoms left to right and calls Emit for
// every instantiation that also satisfies r's inequality constraints. Atom
// j scans win[j] of its relation; a nil win scans every relation whole, as
// it stands when the join reaches the atom. If pin >= 0, body atom pin is
// matched only against the tuple pinned instead of being scanned.
func (k *Kernel) Join(r *CompiledRule, win []Window, pin int, pinned []term.ID) {
	k.rule, k.win, k.pin, k.pinned, k.stopped = r, win, pin, pinned, false
	k.join(0)
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

func (k *Kernel) join(j int) {
	r, bnd, store := k.rule, k.Bnd, k.DB.Store
	if j == len(r.Body) {
		k.head()
		return
	}
	a := &r.Body[j]
	args := a.Args
	if j == k.pin {
		mark := bnd.Mark()
		ok := true
		for i, pat := range args {
			if !bnd.Match(bnd.Resolve(pat), k.pinned[i]) {
				ok = false
				break
			}
		}
		if ok {
			k.join(j + 1)
		}
		bnd.Undo(mark)
		return
	}
	relation := a.rel
	if relation == nil {
		if relation = k.DB.Lookup(a.Rel); relation == nil {
			return
		}
		a.rel = relation
	}
	lo, hi := 0, math.MaxInt
	if k.win != nil {
		lo, hi = k.win[j].Lo, k.win[j].Hi
	}
	// Build an index key from arguments that are ground under the current
	// bindings; non-ground arguments are matched per candidate tuple.
	var mask uint64
	key := scratch(&k.keybuf, j, len(args))
	resolved := scratch(&k.resbuf, j, len(args))
	for i, t := range args {
		rt := bnd.Resolve(t)
		resolved[i] = rt
		if store.IsGround(rt) {
			mask |= 1 << uint(i)
			key[i] = rt
		}
	}
	relation.Scan(mask, key, lo, hi, func(_ int, tuple []term.ID) bool {
		mark := bnd.Mark()
		ok := true
		for i, pat := range resolved {
			if mask&(1<<uint(i)) != 0 {
				continue // already matched via the index
			}
			if !bnd.Match(pat, tuple[i]) {
				ok = false
				break
			}
		}
		if ok {
			k.join(j + 1)
		}
		bnd.Undo(mark)
		return !k.stopped
	})
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

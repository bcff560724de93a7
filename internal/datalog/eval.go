package datalog

import (
	"errors"

	"repro/internal/rel"
	"repro/internal/term"
)

// Budget bounds an evaluation. Datalog with function symbols has infinite
// minimal models in general (Section 3: "the semantics of a Datalog program
// may be infinite and its naive evaluation may not terminate"), so every
// run declares how much it is willing to materialize. The zero Budget means
// DefaultBudget.
type Budget struct {
	// MaxFacts bounds the total number of materialized tuples across all
	// relations, extensional facts included.
	MaxFacts int
	// MaxIters bounds fixpoint iterations.
	MaxIters int
	// MaxTermDepth, when positive, drops derived facts containing a term
	// nested deeper than this — the paper's Section 4.4 "gadget" of
	// bounding the depth of the unfolding.
	MaxTermDepth int
}

// DefaultBudget is used for zero-valued budgets: generous enough for every
// experiment in this repository, small enough to fail fast on divergence.
var DefaultBudget = Budget{MaxFacts: 1 << 21, MaxIters: 1 << 16}

func (b Budget) orDefault() Budget {
	if b.MaxFacts == 0 {
		b.MaxFacts = DefaultBudget.MaxFacts
	}
	if b.MaxIters == 0 {
		b.MaxIters = DefaultBudget.MaxIters
	}
	return b
}

// Stats reports what an evaluation did.
type Stats struct {
	Iterations int  // fixpoint rounds executed
	Seeded     int  // extensional facts loaded
	Derived    int  // new tuples materialized by rules — the metric QSQ minimizes
	Attempts   int  // successful body matches (incl. duplicates and depth-dropped)
	Truncated  bool // a budget bound was hit; the result is a sound under-approximation
	Reason     string
}

// ErrBudget is wrapped by errors returned when a budget is exhausted and
// the caller asked for strict evaluation.
var ErrBudget = errors.New("datalog: budget exhausted")

// SemiNaive evaluates the program bottom-up with semi-naive iteration and
// returns the materialized database. If the budget is hit, the database is
// a sound prefix of the minimal model and Stats.Truncated is set; no error
// is returned for truncation (diagnosis workloads rely on bounded prefixes).
func (p *Program) SemiNaive(b Budget) (*rel.DB, Stats) {
	return p.run(b, true)
}

// Naive evaluates the program with naive iteration: every round rejoins
// full relations rather than deltas. Semantically identical to SemiNaive;
// kept as the cost baseline the paper's Section 3.1 starts from.
func (p *Program) Naive(b Budget) (*rel.DB, Stats) {
	return p.run(b, false)
}

type evaluator struct {
	db     *rel.DB
	budget Budget
	stats  Stats
	k      Kernel
	prev   map[rel.Name]int // watermark at start of previous round
	cur    map[rel.Name]int // watermark at start of current round
	win    []Window         // per-atom scan windows of the join being scheduled
}

func (p *Program) run(b Budget, seminaive bool) (*rel.DB, Stats) {
	b = b.orDefault()
	arities, err := p.Arities()
	if err != nil {
		panic(err) // callers validate first; an invalid program is a programming error here
	}
	e := &evaluator{
		db:     rel.NewDB(p.Store),
		budget: b,
		prev:   make(map[rel.Name]int),
		cur:    make(map[rel.Name]int),
	}
	e.k = Kernel{DB: e.db, Bnd: term.NewBindings(p.Store), MaxTermDepth: b.MaxTermDepth, Emit: e.emit}
	// Create every relation up front so lookups never nil-check, and number
	// them for the kernel's relation cache.
	slots := make(map[rel.Name]int, len(arities))
	for name, ar := range arities {
		e.db.Rel(name, ar)
		slots[name] = len(slots)
	}
	slotted := func(a Atom) CompiledAtom { return CompiledAtom{a, slots[a.Rel]} }
	// Seed extensional facts and ground-fact rules.
	var rules []*CompiledRule
	for _, f := range p.Facts {
		e.insert(e.db.Lookup(f.Rel), f.Args, &e.stats.Seeded)
	}
	for _, r := range p.Rules {
		if r.IsFact() {
			e.insert(e.db.Lookup(r.Head.Rel), r.Head.Args, &e.stats.Seeded)
			continue
		}
		body := make([]CompiledAtom, len(r.Body))
		for i, a := range r.Body {
			body[i] = slotted(a)
		}
		rules = append(rules, CompileSlotted(p.Store, slotted(r.Head), body, r.Neqs))
	}

	fixpoint := false
	for !fixpoint && e.stats.Iterations < b.MaxIters && !e.stats.Truncated {
		e.stats.Iterations++
		for name := range e.cur {
			e.cur[name] = 0
		}
		for _, name := range e.db.Names() {
			e.cur[name] = e.db.Lookup(name).Len()
		}
		before := e.stats.Derived
		for _, r := range rules {
			if seminaive && e.stats.Iterations > 1 {
				// One pass per choice of delta atom.
				for d := range r.Body {
					if e.prev[r.Body[d].Rel] >= e.cur[r.Body[d].Rel] {
						continue // empty delta
					}
					e.join(r, d)
					if e.stats.Truncated {
						break
					}
				}
			} else {
				e.join(r, -1)
			}
			if e.stats.Truncated {
				break
			}
		}
		for name, c := range e.cur {
			e.prev[name] = c
		}
		fixpoint = e.stats.Derived == before
	}
	if !fixpoint && !e.stats.Truncated {
		e.stats.Truncated = true
		e.stats.Reason = "iteration budget"
	}
	e.stats.Attempts = e.k.Attempts
	return e.db, e.stats
}

// join schedules one instantiation pass of r with the delta atom at index
// d (d < 0 means naive: the full current window everywhere): atoms before
// d see everything up to this round's watermark, d itself only the
// previous round's additions, atoms after d only what preceded those. The
// windows partition the instantiations whatever order the atoms are joined
// in, so the kernel starts at d, the narrow one.
func (e *evaluator) join(r *CompiledRule, d int) {
	e.win = e.win[:0]
	for j, a := range r.Body {
		switch {
		case d < 0 || j < d:
			e.win = append(e.win, Window{0, e.cur[a.Rel]})
		case j == d:
			e.win = append(e.win, Window{e.prev[a.Rel], e.cur[a.Rel]})
		default:
			e.win = append(e.win, Window{0, e.prev[a.Rel]})
		}
	}
	e.k.Join(r, e.win, d, nil)
}

// emit is the kernel's continuation: materialize the head, stop the join
// once the fact budget is hit.
func (e *evaluator) emit(r *CompiledRule, head []term.ID) bool {
	e.insert(e.k.HeadRel(r), head, &e.stats.Derived)
	return !e.stats.Truncated
}

func (e *evaluator) insert(into *rel.Relation, args []term.ID, counter *int) {
	if into.Insert(args) {
		*counter++
		// Every tuple of db was counted here, so the two counters are its size.
		if e.stats.Seeded+e.stats.Derived >= e.budget.MaxFacts {
			e.stats.Truncated = true
			e.stats.Reason = "fact budget"
		}
	}
}

// Answers evaluates a query pattern against a materialized database: it
// returns the bindings of the pattern's variables, in first-occurrence
// order, for every matching tuple of the pattern's relation. The returned
// tuples are deduplicated and deterministic (insertion order of db).
func Answers(db *rel.DB, store *term.Store, q Atom) [][]term.ID {
	if db.Lookup(q.Rel) == nil {
		return nil
	}
	var qvars []term.ID
	for _, a := range q.Args {
		qvars = store.Vars(qvars, a)
	}
	// The query is the one-atom rule ans(qvars) :- q, joined once.
	seen := rel.New(len(qvars))
	var out [][]term.ID
	k := Kernel{DB: db, Bnd: term.NewBindings(store), Emit: func(_ *CompiledRule, row []term.ID) bool {
		if pos, added := seen.InsertPos(row); added {
			out = append(out, seen.At(pos))
		}
		return true
	}}
	k.Join(Compile(store, Atom{Args: qvars}, []Atom{q}, nil), nil, -1, nil)
	return out
}

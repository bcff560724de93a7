// Package qsq implements the Query-Sub-Query optimization as a program
// rewriting (Section 3.1, Figure 4): given a Datalog program and a query,
// it produces a new program over adorned relations (R#bf), input relations
// (in-R#bf) and supplementary relations (sup<i>_<j>#ad) whose bottom-up
// evaluation materializes only the facts relevant to the query — top-down
// relevance with bottom-up termination.
//
// The rewriting is the centralized half of the paper's contribution; its
// distributed extension lives in package dqsq.
package qsq

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/datalog"
	"repro/internal/rel"
	"repro/internal/term"
)

// Rewriting is the result of rewriting a program for a query.
type Rewriting struct {
	// Program is the rewritten program: seed facts for the query's input
	// relation, supplementary rules, and the extensional facts of the
	// original program.
	Program *datalog.Program
	// Query is the adorned atom to read answers from; its argument list is
	// the original query's.
	Query datalog.Atom
	// Keys lists the relation-adornment pairs that were expanded, in
	// processing order (useful for structural tests against Figure 4).
	Keys []adorn.Key
}

// Rewrite rewrites program p for the single-atom query q. Multi-atom
// queries are expressed by first adding a rule defining a fresh query
// relation. The original program is not modified.
func Rewrite(p *datalog.Program, q datalog.Atom) (*Rewriting, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckQuery(q); err != nil {
		return nil, err
	}
	s := p.Store
	idb := p.IDB()

	out := datalog.NewProgram(s)
	out.Facts = append(out.Facts, p.Facts...) // extensional data is shared, not copied

	rw := &rewriter{p: p, out: out, idb: idb, done: make(map[adorn.Key]bool)}

	// The query's bound positions are exactly its ground arguments: nothing
	// is bound before evaluation starts.
	ad := adorn.Compute(s, adorn.VarSet{}, q.Args)
	if !idb[q.Rel] {
		// Querying an extensional relation directly: nothing to rewrite.
		return &Rewriting{Program: out, Query: q}, nil
	}
	// Seed the input relation with the query's bound arguments.
	out.AddFact(datalog.Atom{Rel: adorn.InputName(q.Rel, ad), Args: adorn.BoundArgs(ad, q.Args)})
	rw.request(adorn.Key{Rel: q.Rel, Ad: ad})
	rw.drain()

	return &Rewriting{
		Program: out,
		Query:   datalog.Atom{Rel: adorn.Name(q.Rel, ad), Args: q.Args},
		Keys:    rw.keys,
	}, nil
}

type rewriter struct {
	p     *datalog.Program
	out   *datalog.Program
	idb   map[rel.Name]bool
	done  map[adorn.Key]bool
	queue []adorn.Key
	keys  []adorn.Key
}

func (rw *rewriter) request(k adorn.Key) {
	if rw.done[k] {
		return
	}
	rw.done[k] = true
	rw.queue = append(rw.queue, k)
	rw.keys = append(rw.keys, k)
}

func (rw *rewriter) drain() {
	for len(rw.queue) > 0 {
		k := rw.queue[0]
		rw.queue = rw.queue[1:]
		for i, r := range rw.p.Rules {
			if r.Head.Rel == k.Rel {
				rw.rewriteRule(i, r, k.Ad)
			}
		}
		// A relation may be intensional and still hold base facts (e.g.
		// the root facts of the unfolding program). Bridge each fact into
		// the adorned answer relation, guarded by the input relation.
		for _, f := range rw.p.Facts {
			if f.Rel == k.Rel {
				rw.out.AddRule(datalog.Rule{
					Head: datalog.Atom{Rel: adorn.Name(k.Rel, k.Ad), Args: f.Args},
					Body: []datalog.Atom{{Rel: adorn.InputName(k.Rel, k.Ad), Args: adorn.BoundArgs(k.Ad, f.Args)}},
				})
			}
		}
	}
}

// relevantVars returns, in deterministic first-occurrence order over
// `order`, the bound variables still needed by the remaining body atoms
// (from index next on), the unattached constraints, or the head.
func (rw *rewriter) relevantVars(s *term.Store, r datalog.Rule, next int, attached []bool, bound adorn.VarSet, order []term.ID) []term.ID {
	needed := adorn.VarSet{}
	for j := next; j < len(r.Body); j++ {
		for _, t := range r.Body[j].Args {
			needed.AddTerm(s, t)
		}
	}
	for ci, n := range r.Neqs {
		if !attached[ci] {
			needed.AddTerm(s, n.X)
			needed.AddTerm(s, n.Y)
		}
	}
	for _, t := range r.Head.Args {
		needed.AddTerm(s, t)
	}
	var out []term.ID
	for _, v := range order {
		if bound[v] && needed[v] {
			out = append(out, v)
		}
	}
	return out
}

// rewriteRule produces the supplementary-relation rules for rule index ri
// under head adornment ad, following Figure 4's layout:
//
//	sup<ri>_0#ad(...)  :- in-R#ad(bound head args)
//	sup<ri>_j#ad(...)  :- sup<ri>_{j-1}#ad(...), S#adj(args)   (S intensional)
//	in-S#adj(bound)    :- sup<ri>_{j-1}#ad(...)
//	R#ad(head args)    :- sup<ri>_n#ad(...)
func (rw *rewriter) rewriteRule(ri int, r datalog.Rule, ad adorn.Adornment) {
	s := rw.p.Store
	supName := func(j int) rel.Name {
		return rel.Name(fmt.Sprintf("sup%d_%d#%s", ri, j, ad))
	}

	// Variable order for supplementary columns: first occurrence across the
	// bound head arguments, then the body left to right.
	var order []term.ID
	for i, t := range r.Head.Args {
		if ad.Bound(i) {
			order = s.Vars(order, t)
		}
	}
	for _, a := range r.Body {
		for _, t := range a.Args {
			order = s.Vars(order, t)
		}
	}

	bound := adorn.VarSet{}
	for i, t := range r.Head.Args {
		if ad.Bound(i) {
			bound.AddTerm(s, t)
		}
	}
	attached := make([]bool, len(r.Neqs))

	// sup0 :- in-R#ad(bound head args). Matching decomposes any compound
	// patterns in the head's bound positions.
	cols := rw.relevantVars(s, r, 0, attached, bound, order)
	rw.out.AddRule(datalog.Rule{
		Head: datalog.Atom{Rel: supName(0), Args: cols},
		Body: []datalog.Atom{{Rel: adorn.InputName(r.Head.Rel, ad), Args: adorn.BoundArgs(ad, r.Head.Args)}},
	})
	prev := datalog.Atom{Rel: supName(0), Args: cols}

	for j, a := range r.Body {
		joinAtom := a
		if rw.idb[a.Rel] {
			adj := adorn.Compute(s, bound, a.Args)
			// Ship the bindings: in-S#adj(bound args) :- sup_{j}(...).
			rw.out.AddRule(datalog.Rule{
				Head: datalog.Atom{Rel: adorn.InputName(a.Rel, adj), Args: adorn.BoundArgs(adj, a.Args)},
				Body: []datalog.Atom{prev},
			})
			rw.request(adorn.Key{Rel: a.Rel, Ad: adj})
			joinAtom = datalog.Atom{Rel: adorn.Name(a.Rel, adj), Args: a.Args}
		}
		for _, t := range a.Args {
			bound.AddTerm(s, t)
		}
		// Attach every constraint whose variables just became bound.
		var neqs []datalog.Neq
		for ci, n := range r.Neqs {
			if !attached[ci] && bound.CoversTerm(s, n.X) && bound.CoversTerm(s, n.Y) {
				attached[ci] = true
				neqs = append(neqs, n)
			}
		}
		cols = rw.relevantVars(s, r, j+1, attached, bound, order)
		rw.out.AddRule(datalog.Rule{
			Head: datalog.Atom{Rel: supName(j + 1), Args: cols},
			Body: []datalog.Atom{prev, joinAtom},
			Neqs: neqs,
		})
		prev = datalog.Atom{Rel: supName(j + 1), Args: cols}
	}

	// Any constraint never attached has ground sides; attach to the answer rule.
	var tail []datalog.Neq
	for ci, n := range r.Neqs {
		if !attached[ci] {
			tail = append(tail, n)
		}
	}
	rw.out.AddRule(datalog.Rule{
		Head: datalog.Atom{Rel: adorn.Name(r.Head.Rel, ad), Args: r.Head.Args},
		Body: []datalog.Atom{prev},
		Neqs: tail,
	})
}

// Eval evaluates the rewritten program semi-naively under the budget.
func (rw *Rewriting) Eval(b datalog.Budget) (*rel.DB, datalog.Stats) {
	return rw.Program.SemiNaive(b)
}

// Answers extracts the query answers from a database produced by Eval: one
// row per match, columns in first-occurrence order of the query variables.
func (rw *Rewriting) Answers(db *rel.DB) [][]term.ID {
	return datalog.Answers(db, rw.Program.Store, rw.Query)
}

// Run rewrites, evaluates and extracts answers in one call.
func Run(p *datalog.Program, q datalog.Atom, b datalog.Budget) ([][]term.ID, *rel.DB, datalog.Stats, error) {
	rw, err := Rewrite(p, q)
	if err != nil {
		return nil, nil, datalog.Stats{}, err
	}
	db, st := rw.Eval(b)
	return rw.Answers(db), db, st, nil
}

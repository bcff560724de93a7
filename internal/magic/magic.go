// Package magic implements the (generalized, supplementary-free) magic-sets
// rewriting — the sibling of QSQ the paper cites as reference [7]
// ("Magic sets and other strange ways to execute logic programs").
//
// It serves as an ablation baseline: Section 1 argues QSQ and magic sets
// are "two main, closely related, optimization techniques ... that both aim
// at minimizing the quantity of data that is materialized". The benchmark
// suite compares the two rewritings' materialization on the same programs.
package magic

import (
	"repro/internal/adorn"
	"repro/internal/datalog"
	"repro/internal/rel"
	"repro/internal/term"
)

// Rewriting is the result of the magic-sets transformation.
type Rewriting struct {
	Program *datalog.Program
	Query   datalog.Atom
	Keys    []adorn.Key
}

// magicName returns the name of the magic predicate for R#ad.
func magicName(r rel.Name, a adorn.Adornment) rel.Name {
	return "magic-" + adorn.Name(r, a)
}

// Rewrite rewrites program p for the single-atom query q with magic sets.
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
	out.Facts = append(out.Facts, p.Facts...)

	ad := adorn.Compute(s, adorn.VarSet{}, q.Args)
	if !idb[q.Rel] {
		return &Rewriting{Program: out, Query: q}, nil
	}
	out.AddFact(datalog.Atom{Rel: magicName(q.Rel, ad), Args: adorn.BoundArgs(ad, q.Args)})

	done := map[adorn.Key]bool{}
	var queue, keys []adorn.Key
	request := func(k adorn.Key) {
		if !done[k] {
			done[k] = true
			queue = append(queue, k)
			keys = append(keys, k)
		}
	}
	request(adorn.Key{Rel: q.Rel, Ad: ad})

	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, r := range p.Rules {
			if r.Head.Rel != k.Rel {
				continue
			}
			rewriteRule(s, out, idb, r, k.Ad, request)
		}
		// Bridge base facts of intensional relations into the adorned
		// answer relation (see the matching fix in package qsq).
		for _, f := range p.Facts {
			if f.Rel == k.Rel {
				out.AddRule(datalog.Rule{
					Head: datalog.Atom{Rel: adorn.Name(k.Rel, k.Ad), Args: f.Args},
					Body: []datalog.Atom{{Rel: magicName(k.Rel, k.Ad), Args: adorn.BoundArgs(k.Ad, f.Args)}},
				})
			}
		}
	}

	return &Rewriting{
		Program: out,
		Query:   datalog.Atom{Rel: adorn.Name(q.Rel, ad), Args: q.Args},
		Keys:    keys,
	}, nil
}

// rewriteRule emits the modified rule and one magic rule per intensional
// body atom:
//
//	R#ad(t...)           :- magic-R#ad(bound t...), A1', ..., An'
//	magic-S#adj(bound)   :- magic-R#ad(bound t...), A1', ..., A(j-1)'
func rewriteRule(s *term.Store, out *datalog.Program, idb map[rel.Name]bool,
	r datalog.Rule, ad adorn.Adornment, request func(adorn.Key)) {

	guard := datalog.Atom{Rel: magicName(r.Head.Rel, ad), Args: adorn.BoundArgs(ad, r.Head.Args)}
	bound := adorn.VarSet{}
	for i, t := range r.Head.Args {
		if ad.Bound(i) {
			bound.AddTerm(s, t)
		}
	}

	prefix := []datalog.Atom{guard}
	for _, a := range r.Body {
		join := a
		if idb[a.Rel] {
			adj := adorn.Compute(s, bound, a.Args)
			out.AddRule(datalog.Rule{
				Head: datalog.Atom{Rel: magicName(a.Rel, adj), Args: adorn.BoundArgs(adj, a.Args)},
				Body: append([]datalog.Atom(nil), prefix...),
			})
			request(adorn.Key{Rel: a.Rel, Ad: adj})
			join = datalog.Atom{Rel: adorn.Name(a.Rel, adj), Args: a.Args}
		}
		for _, t := range a.Args {
			bound.AddTerm(s, t)
		}
		prefix = append(prefix, join)
	}
	out.AddRule(datalog.Rule{
		Head: datalog.Atom{Rel: adorn.Name(r.Head.Rel, ad), Args: r.Head.Args},
		Body: prefix,
		Neqs: append([]datalog.Neq(nil), r.Neqs...),
	})
}

// Eval evaluates the rewritten program semi-naively.
func (rw *Rewriting) Eval(b datalog.Budget) (*rel.DB, datalog.Stats) {
	return rw.Program.SemiNaive(b)
}

// Answers extracts the query answers from a database produced by Eval.
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

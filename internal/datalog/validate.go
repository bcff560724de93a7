package datalog

import (
	"fmt"

	"repro/internal/term"
)

// Validate checks the well-formedness conditions of Section 3:
//
//   - range restriction: every variable of a rule head occurs in its body;
//   - constraint safety: every variable of an x != y constraint occurs in
//     the body;
//   - consistent arities across all uses of a relation;
//   - facts are ground.
//
// It returns the first violation found, or nil.
func (p *Program) Validate() error {
	if _, err := p.Arities(); err != nil {
		return err
	}
	for i, f := range p.Facts {
		for _, t := range f.Args {
			if !p.Store.IsGround(t) {
				return fmt.Errorf("datalog: fact %d (%s) is not ground", i, f.String(p.Store))
			}
		}
	}
	for i, r := range p.Rules {
		bodyVars := make(map[term.ID]bool)
		for _, a := range r.Body {
			for _, t := range a.Args {
				for _, v := range p.Store.Vars(nil, t) {
					bodyVars[v] = true
				}
			}
		}
		for _, t := range r.Head.Args {
			for _, v := range p.Store.Vars(nil, t) {
				if !bodyVars[v] {
					return fmt.Errorf("datalog: rule %d (%s): head variable %s not bound in body",
						i, r.String(p.Store), p.Store.String(v))
				}
			}
		}
		for _, n := range r.Neqs {
			for _, side := range []term.ID{n.X, n.Y} {
				for _, v := range p.Store.Vars(nil, side) {
					if !bodyVars[v] {
						return fmt.Errorf("datalog: rule %d (%s): constraint variable %s not bound in body",
							i, r.String(p.Store), p.Store.String(v))
					}
				}
			}
		}
	}
	return nil
}

// CheckQuery reports a query atom whose arity differs from the one p uses
// its relation with. A relation p never mentions has no arity to differ
// from: it simply has no answers.
func (p *Program) CheckQuery(q Atom) error {
	ar, err := p.Arities()
	if err != nil {
		return err
	}
	if n, ok := ar[q.Rel]; ok && n != len(q.Args) {
		return fmt.Errorf("datalog: query %s has %d arguments, but %s has arity %d", q.String(p.Store), len(q.Args), q.Rel, n)
	}
	return nil
}

// Depends returns the dependency graph of the program's relations: edges
// from each head relation to every relation in the same rule's body. Used
// for reachability pruning and for documentation dumps.
func (p *Program) Depends() map[string][]string {
	deps := make(map[string][]string)
	seen := make(map[string]map[string]bool)
	for _, r := range p.Rules {
		h := string(r.Head.Rel)
		if seen[h] == nil {
			seen[h] = make(map[string]bool)
		}
		for _, a := range r.Body {
			b := string(a.Rel)
			if !seen[h][b] {
				seen[h][b] = true
				deps[h] = append(deps[h], b)
			}
		}
	}
	return deps
}

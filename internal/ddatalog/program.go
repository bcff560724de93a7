// Package ddatalog implements dDatalog (Section 3): Datalog whose atoms
// R@p(t1,...,tn) are located at peers, with rules hosted at the peer of
// their head, plus the naive distributed evaluation of Section 3.2 — peers
// activate each other's relations, stream tuples asynchronously, and the
// run ends when the network quiesces.
//
// The optimized distributed evaluation (dQSQ) lives in package dqsq and
// reuses this package's program representation and engine.
package ddatalog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/rel"
	"repro/internal/term"
)

// PAtom is a located atom R@p(args).
type PAtom struct {
	Rel  rel.Name
	Peer dist.PeerID
	Args []term.ID
}

// At is a terse located-atom constructor.
func At(r rel.Name, p dist.PeerID, args ...term.ID) PAtom {
	return PAtom{Rel: r, Peer: p, Args: args}
}

// Qualified returns the globally unique relation name "R@p".
func (a PAtom) Qualified() rel.Name {
	return Qualify(a.Rel, a.Peer)
}

// Qualify composes a located relation name.
func Qualify(r rel.Name, p dist.PeerID) rel.Name {
	return r + "@" + rel.Name(p)
}

// SplitQualified splits "R@p" back into relation and peer. The second
// return is false if the name is unqualified.
func SplitQualified(q rel.Name) (rel.Name, dist.PeerID, bool) {
	i := strings.LastIndex(string(q), "@")
	if i < 0 {
		return q, "", false
	}
	return q[:i], dist.PeerID(q[i+1:]), true
}

// String renders the atom as R@p(args).
func (a PAtom) String(s *term.Store) string {
	var b strings.Builder
	b.WriteString(string(a.Rel))
	b.WriteByte('@')
	b.WriteString(string(a.Peer))
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String(t))
	}
	b.WriteByte(')')
	return b.String()
}

// PRule is a located rule; it is hosted at Head.Peer ("the rules at site p
// are the rules where p is the site of the head").
type PRule struct {
	Head PAtom
	Body []PAtom
	Neqs []datalog.Neq
}

// String renders the rule.
func (r PRule) String(s *term.Store) string {
	var b strings.Builder
	b.WriteString(r.Head.String(s))
	if len(r.Body) > 0 || len(r.Neqs) > 0 {
		b.WriteString(" :- ")
		for i, a := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String(s))
		}
		for i, n := range r.Neqs {
			if i > 0 || len(r.Body) > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.String(n.X) + " != " + s.String(n.Y))
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Program is a distributed Datalog program over one term store, which the
// engine that evaluates it makes its own: the peers it hosts keep their
// tuples in it.
type Program struct {
	Store *term.Store
	Rules []PRule
	Facts []PAtom
	// declared lists peers that must exist even when no rule or fact
	// mentions them yet — used by programs whose rules arrive at runtime
	// (online dQSQ).
	declared []dist.PeerID
}

// AddPeer declares a peer explicitly.
func (p *Program) AddPeer(id dist.PeerID) {
	p.declared = append(p.declared, id)
}

// NewProgram returns an empty program over store.
func NewProgram(store *term.Store) *Program {
	return &Program{Store: store}
}

// Clone returns a program over store — a clone of p's store — that holds
// p's rules, facts and peers and grows independently of p (what p holds is
// shared, not copied). p must not grow afterwards.
func (p *Program) Clone(store *term.Store) *Program {
	return &Program{
		Store:    store,
		Rules:    slices.Clip(p.Rules),
		Facts:    slices.Clip(p.Facts),
		declared: slices.Clip(p.declared),
	}
}

// AddRule appends a rule.
func (p *Program) AddRule(r PRule) { p.Rules = append(p.Rules, r) }

// AddFact appends a ground located fact.
func (p *Program) AddFact(a PAtom) {
	for _, t := range a.Args {
		if !p.Store.IsGround(t) {
			panic(fmt.Sprintf("ddatalog: non-ground fact %s", a.String(p.Store)))
		}
	}
	p.Facts = append(p.Facts, a)
}

// Peers returns every peer mentioned in the program, in first-mention order.
func (p *Program) Peers() []dist.PeerID {
	seen := map[dist.PeerID]bool{}
	var out []dist.PeerID
	add := func(id dist.PeerID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range p.declared {
		add(id)
	}
	for _, f := range p.Facts {
		add(f.Peer)
	}
	for _, r := range p.Rules {
		add(r.Head.Peer)
		for _, a := range r.Body {
			add(a.Peer)
		}
	}
	return out
}

// IDB returns the set of qualified relation names defined by rule heads.
func (p *Program) IDB() map[rel.Name]bool {
	out := make(map[rel.Name]bool)
	for _, r := range p.Rules {
		out[r.Head.Qualified()] = true
	}
	return out
}

// Localize produces the centralized version of the program: peer names are
// erased from atoms and every relation keeps its qualified name, which
// makes relation names of distinct peers distinct — the w.l.o.g. assumption
// of Theorem 1. The returned program shares the term store.
func (p *Program) Localize() *datalog.Program {
	out := datalog.NewProgram(p.Store)
	for _, f := range p.Facts {
		out.AddFact(f.localize())
	}
	for _, r := range p.Rules {
		lr := datalog.Rule{Head: r.Head.localize(), Neqs: append([]datalog.Neq(nil), r.Neqs...)}
		for _, a := range r.Body {
			lr.Body = append(lr.Body, a.localize())
		}
		out.AddRule(lr)
	}
	return out
}

// localize erases the peer from the atom, keeping the qualified name.
func (a PAtom) localize() datalog.Atom {
	return datalog.Atom{Rel: a.Qualified(), Args: a.Args}
}

// Global produces the canonical global translation of Section 3 ("Models
// and Semantics"): each n-ary R@p atom becomes an (n+1)-ary Rg atom with
// the peer name as the extra, final column. Its minimal model defines the
// semantics of the distributed program.
func (p *Program) Global() *datalog.Program {
	out := datalog.NewProgram(p.Store)
	tr := func(a PAtom) datalog.Atom {
		args := make([]term.ID, 0, len(a.Args)+1)
		args = append(args, a.Args...)
		args = append(args, p.Store.Constant(string(a.Peer)))
		return datalog.Atom{Rel: a.Rel + "-g", Args: args}
	}
	for _, f := range p.Facts {
		out.AddFact(tr(f))
	}
	for _, r := range p.Rules {
		gr := datalog.Rule{Head: tr(r.Head), Neqs: append([]datalog.Neq(nil), r.Neqs...)}
		for _, a := range r.Body {
			gr.Body = append(gr.Body, tr(a))
		}
		out.AddRule(gr)
	}
	return out
}

// Validate checks the same conditions as datalog.Program.Validate on the
// localized form.
func (p *Program) Validate() error {
	return p.Localize().Validate()
}

// CheckQuery is datalog.Program.CheckQuery on the localized program.
func (p *Program) CheckQuery(q PAtom) error {
	return p.Localize().CheckQuery(q.localize())
}

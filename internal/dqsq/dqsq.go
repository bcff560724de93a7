// Package dqsq implements distributed Query-Sub-Query (Section 3.2,
// Figure 5) — the paper's primary contribution.
//
// Each peer rewrites its own rules exactly as centralized QSQ would,
// using only local information: its hosted rules and the adornment
// requests it receives. When the left-to-right pass over a rule body
// reaches an atom owned by another peer, the remainder of the rule is
// delegated to that peer (the paper's rule (†)): the supplementary
// relation computed so far is defined at the current peer and consumed at
// the remote peer, which continues the chain. The result is a distributed
// dDatalog program whose naive asynchronous evaluation (package ddatalog)
// materializes exactly the facts centralized QSQ would — Theorem 1.
package dqsq

import (
	"fmt"
	"time"

	"repro/internal/adorn"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/rel"
	"repro/internal/term"
)

// Rewriting is the distributed rewriting of a program for a query.
type Rewriting struct {
	// Program is the rewritten distributed program: per-peer supplementary
	// rules, cross-peer delegations, the in-relation seed for the query,
	// and the original extensional facts.
	Program *ddatalog.Program
	// Query is the adorned located atom holding the answers.
	Query ddatalog.PAtom
	// KeysByPeer records which relation-adornment pairs each peer
	// expanded, in arrival order — evidence that rewriting is per-peer.
	KeysByPeer map[dist.PeerID][]adorn.Key
}

// request is an adornment request in flight between peer rewriters.
type request struct {
	peer dist.PeerID
	key  adorn.Key
}

// peerRewriter rewrites the rules of a single peer. It sees nothing but
// its own hosted rules, its own extensional relations, and the requests
// addressed to it — the locality property the paper emphasizes ("each peer
// can perform its own rewriting with only local information available").
type peerRewriter struct {
	id       dist.PeerID
	place    Placement
	store    *term.Store
	rules    []ddatalog.PRule
	hasRules map[rel.Name]bool
	facts    map[rel.Name][][]term.ID // local base facts, by relation
	done     map[adorn.Key]bool
	keys     []adorn.Key
	out      *ddatalog.Program
}

// Placement selects where supplementary relations are hosted — the
// paper's Remark 1: "One could use a different distribution for the
// supplementary relations, based on some cost model."
type Placement int

const (
	// PlaceAtData hosts sup<i>_j at the peer of body atom j, so every
	// join is local to the data it scans (the Figure 5 layout; default).
	PlaceAtData Placement = iota
	// PlaceAtHead hosts every supplementary relation at the rule's own
	// peer; remote answer relations are replicated to it instead. Same
	// facts, different communication pattern — the Remark 1 ablation.
	PlaceAtHead
)

// Rewrite performs the distributed rewriting of prog for the located query
// atom q with the default (Figure 5) placement. Each peer's portion is
// computed by an isolated peerRewriter; the driver only forwards adornment
// requests between them, playing the role of the network.
func Rewrite(prog *ddatalog.Program, q ddatalog.PAtom) (*Rewriting, error) {
	return RewritePlaced(prog, q, PlaceAtData)
}

// RewritePlaced is Rewrite with an explicit supplementary-relation
// placement strategy.
func RewritePlaced(prog *ddatalog.Program, q ddatalog.PAtom, place Placement) (*Rewriting, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := prog.CheckQuery(q); err != nil {
		return nil, err
	}
	s := prog.Store

	out := ddatalog.NewProgram(s)
	out.Facts = append(out.Facts, prog.Facts...)

	rewriters := make(map[dist.PeerID]*peerRewriter)
	for _, id := range prog.Peers() {
		rewriters[id] = &peerRewriter{
			id:       id,
			place:    place,
			store:    s,
			hasRules: make(map[rel.Name]bool),
			facts:    make(map[rel.Name][][]term.ID),
			done:     make(map[adorn.Key]bool),
			out:      out,
		}
	}
	for _, r := range prog.Rules {
		pr := rewriters[r.Head.Peer]
		pr.rules = append(pr.rules, r)
		pr.hasRules[r.Head.Rel] = true
	}
	for _, f := range prog.Facts {
		pr := rewriters[f.Peer]
		pr.facts[f.Rel] = append(pr.facts[f.Rel], f.Args)
	}

	ad := adorn.Compute(s, adorn.VarSet{}, q.Args)
	qr, ok := rewriters[q.Peer]
	if !ok {
		return nil, fmt.Errorf("dqsq: query peer %q not in program", q.Peer)
	}
	if !qr.hasRules[q.Rel] {
		// Extensional query: nothing to rewrite; answer directly.
		return &Rewriting{Program: out, Query: q, KeysByPeer: map[dist.PeerID][]adorn.Key{}}, nil
	}
	out.AddFact(ddatalog.PAtom{
		Rel: adorn.InputName(q.Rel, ad), Peer: q.Peer,
		Args: adorn.BoundArgs(ad, q.Args),
	})

	// Drive the request exchange to fixpoint.
	queue := []request{{peer: q.Peer, key: adorn.Key{Rel: q.Rel, Ad: ad}}}
	for len(queue) > 0 {
		req := queue[0]
		queue = queue[1:]
		pr, ok := rewriters[req.peer]
		if !ok {
			return nil, fmt.Errorf("dqsq: request for unknown peer %q", req.peer)
		}
		queue = append(queue, pr.handle(req.key)...)
	}

	keysByPeer := make(map[dist.PeerID][]adorn.Key)
	for id, pr := range rewriters {
		if len(pr.keys) > 0 {
			keysByPeer[id] = pr.keys
		}
	}
	return &Rewriting{
		Program: out,
		Query: ddatalog.PAtom{
			Rel: adorn.Name(q.Rel, ad), Peer: q.Peer, Args: q.Args,
		},
		KeysByPeer: keysByPeer,
	}, nil
}

// handle expands one adornment request and returns the requests it
// triggers at other peers (or at this peer — the driver routes uniformly).
func (pr *peerRewriter) handle(k adorn.Key) []request {
	if pr.done[k] {
		return nil
	}
	pr.done[k] = true
	pr.keys = append(pr.keys, k)

	if !pr.hasRules[k.Rel] {
		pr.bridge(k)
		return nil
	}
	var reqs []request
	for i, r := range pr.rules {
		if r.Head.Rel == k.Rel {
			reqs = append(reqs, pr.rewriteRule(i, r, k.Ad)...)
		}
	}
	// An intensional relation may also hold base facts (e.g. the root
	// facts of the unfolding program); bridge each into the adorned
	// answer relation, guarded by the shipped bindings.
	for _, args := range pr.facts[k.Rel] {
		pr.out.AddRule(ddatalog.PRule{
			Head: ddatalog.PAtom{Rel: adorn.Name(k.Rel, k.Ad), Peer: pr.id, Args: args},
			Body: []ddatalog.PAtom{{
				Rel: adorn.InputName(k.Rel, k.Ad), Peer: pr.id,
				Args: adorn.BoundArgs(k.Ad, args),
			}},
		})
	}
	return reqs
}

// bridge handles an adornment request for a relation this peer holds only
// extensionally: the adorned answer relation is defined directly from the
// base relation, filtered by the shipped bindings. The adornment has a
// letter per argument, so it gives the arity whether or not the relation
// holds a fact yet.
//
//	R#ad@p(v1,...,vn) :- in-R#ad@p(bound vi...), R@p(v1,...,vn)
func (pr *peerRewriter) bridge(k adorn.Key) {
	vars := make([]term.ID, len(k.Ad))
	for i := range vars {
		vars[i] = pr.store.FreshVar("v")
	}
	pr.out.AddRule(ddatalog.PRule{
		Head: ddatalog.PAtom{Rel: adorn.Name(k.Rel, k.Ad), Peer: pr.id, Args: vars},
		Body: []ddatalog.PAtom{
			{Rel: adorn.InputName(k.Rel, k.Ad), Peer: pr.id, Args: adorn.BoundArgs(k.Ad, vars)},
			{Rel: k.Rel, Peer: pr.id, Args: vars},
		},
	})
}

// intensional reports how the rewriter treats a body atom: its own atoms
// are intensional iff it has rules for them; remote atoms are always
// requested (the remote peer bridges if the relation turns out to be
// extensional — this peer cannot know, and must not need to).
func (pr *peerRewriter) intensional(a ddatalog.PAtom) bool {
	if a.Peer == pr.id {
		return pr.hasRules[a.Rel]
	}
	return true
}

// relevant returns the bound variables still needed from position next on
// (remaining atoms, unattached constraints, head), in `order` order.
func relevant(s *term.Store, r ddatalog.PRule, next int, attached []bool, bound adorn.VarSet, order []term.ID) []term.ID {
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

// rewriteRule is the distributed analogue of the centralized QSQ rule
// rewriting. Supplementary relations are hosted where they are computed:
// sup<i>_j lives at the peer of body atom j, so each step of the chain is
// a local join and crossing an atom boundary between peers is precisely
// the paper's delegation (†).
func (pr *peerRewriter) rewriteRule(ri int, r ddatalog.PRule, ad adorn.Adornment) []request {
	s := pr.store
	// The rewriting peer's identity is part of the name: supplementary
	// relations of different peers' rules may be delegated to the same
	// host and must not collide there.
	supName := func(j int) rel.Name {
		return rel.Name(fmt.Sprintf("sup.%s.%s.%d_%d#%s", pr.id, r.Head.Rel, ri, j, ad))
	}

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

	cols := relevant(s, r, 0, attached, bound, order)
	pr.out.AddRule(ddatalog.PRule{
		Head: ddatalog.PAtom{Rel: supName(0), Peer: pr.id, Args: cols},
		Body: []ddatalog.PAtom{{
			Rel: adorn.InputName(r.Head.Rel, ad), Peer: pr.id,
			Args: adorn.BoundArgs(ad, r.Head.Args),
		}},
	})
	prev := ddatalog.PAtom{Rel: supName(0), Peer: pr.id, Args: cols}

	var reqs []request
	for j, a := range r.Body {
		host := a.Peer // PlaceAtData: the join happens where the data lives
		if pr.place == PlaceAtHead {
			host = pr.id // Remark 1 alternative: keep the chain at home
		}
		joinAtom := a
		if pr.intensional(a) {
			adj := adorn.Compute(s, bound, a.Args)
			// Delegation: ship the current bindings to the atom's peer.
			// Hosted at a.Peer, consuming prev possibly remotely.
			pr.out.AddRule(ddatalog.PRule{
				Head: ddatalog.PAtom{Rel: adorn.InputName(a.Rel, adj), Peer: a.Peer, Args: adorn.BoundArgs(adj, a.Args)},
				Body: []ddatalog.PAtom{prev},
			})
			reqs = append(reqs, request{peer: a.Peer, key: adorn.Key{Rel: a.Rel, Ad: adj}})
			joinAtom = ddatalog.PAtom{Rel: adorn.Name(a.Rel, adj), Peer: a.Peer, Args: a.Args}
		}
		for _, t := range a.Args {
			bound.AddTerm(s, t)
		}
		var neqs []datalog.Neq
		for ci, n := range r.Neqs {
			if !attached[ci] && bound.CoversTerm(s, n.X) && bound.CoversTerm(s, n.Y) {
				attached[ci] = true
				neqs = append(neqs, n)
			}
		}
		cols = relevant(s, r, j+1, attached, bound, order)
		pr.out.AddRule(ddatalog.PRule{
			Head: ddatalog.PAtom{Rel: supName(j + 1), Peer: host, Args: cols},
			Body: []ddatalog.PAtom{prev, joinAtom},
			Neqs: neqs,
		})
		prev = ddatalog.PAtom{Rel: supName(j + 1), Peer: host, Args: cols}
	}

	var tail []datalog.Neq
	for ci, n := range r.Neqs {
		if !attached[ci] {
			tail = append(tail, n)
		}
	}
	pr.out.AddRule(ddatalog.PRule{
		Head: ddatalog.PAtom{Rel: adorn.Name(r.Head.Rel, ad), Peer: pr.id, Args: r.Head.Args},
		Body: []ddatalog.PAtom{prev},
		Neqs: tail,
	})
	return reqs
}

// Result of a dQSQ run.
type Result struct {
	Answers [][]term.ID
	Store   *term.Store
	Stats   ddatalog.Stats
	// Engine gives access to the per-peer databases for materialization
	// measurements (Theorem 4).
	Engine *ddatalog.Engine
}

// Run rewrites prog for q and evaluates the rewriting on the asynchronous
// distributed engine. The evaluation is the paper's dQSQ: subqueries
// propagate as in-relation tuples, answers stream back asynchronously, and
// the network quiesces at the fixpoint.
func Run(prog *ddatalog.Program, q ddatalog.PAtom, budget datalog.Budget, timeout time.Duration) (*Result, error) {
	return RunWith(prog, q, budget, timeout, nil)
}

package ddatalog

import (
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/rel"
	"repro/internal/term"
	"repro/internal/wire"
)

// This file adds dynamic rule installation to the engine: rules may arrive
// while the network is running, either from an activation hook (a peer
// extending its own program lazily) or as wire.Install messages from
// another peer. It is the substrate for online dQSQ (the paper's Remark 2:
// "the dQSQ computation, and the generation of results, may start even
// before the rewriting is complete").

// ActivationHook is consulted the first time a relation is activated at a
// peer. It returns rules to add to the running program; rules hosted at
// the activating peer are installed immediately, rules hosted elsewhere
// are sent to their hosts. The returned rules must be built over the
// engine's store, which the hook may intern into; the engine copies the
// rules out of the returned slice before it calls the hook again, and keeps
// the atoms and constraints they point at, which must not change
// afterwards.
type ActivationHook func(peer dist.PeerID, relName rel.Name) []PRule

// SetActivationHook installs the hook. Must be called before Run.
func (e *Engine) SetActivationHook(h ActivationHook) {
	e.hook = h
}

// runHook invokes the engine hook once per (peer, relation), routing the
// returned rules: local ones are installed now, remote ones shipped.
func (ps *peerState) runHook(ctx *dist.Context, relName rel.Name, rs *relState) {
	if ps.eng.hook == nil || rs.hooked {
		return
	}
	rs.hooked = true

	// Installing a rule may activate further relations and so re-enter the
	// hook, which is free to reuse the slice it returned.
	var local, remote []PRule
	for _, r := range ps.eng.hook(ps.id, relName) {
		if r.Head.Peer == ps.id {
			local = append(local, r)
		} else {
			remote = append(remote, r)
		}
	}
	for _, r := range local {
		ps.installRule(ctx, r)
	}
	for _, r := range remote {
		ctx.Send(r.Head.Peer, ps.eng.installMsg(r))
	}
}

// externRule encodes a rule for the wire.
func externRule(s *term.Store, r PRule) wire.Rule {
	conv := func(a PAtom) wire.Atom {
		return wire.Atom{Rel: a.Rel, Peer: string(a.Peer), Args: s.ExternalizeTuple(a.Args)}
	}
	out := wire.Rule{Head: conv(r.Head), Body: make([]wire.Atom, 0, len(r.Body))}
	for _, a := range r.Body {
		out.Body = append(out.Body, conv(a))
	}
	if len(r.Neqs) > 0 {
		xs := make([]term.ID, len(r.Neqs))
		ys := make([]term.ID, len(r.Neqs))
		for i, n := range r.Neqs {
			xs[i], ys[i] = n.X, n.Y
		}
		out.NeqX = s.ExternalizeTuple(xs)
		out.NeqY = s.ExternalizeTuple(ys)
	}
	return out
}

// internRule decodes a wire rule into s.
func internRule(s *term.Store, w wire.Rule) PRule {
	conv := func(a wire.Atom) PAtom {
		return PAtom{Rel: a.Rel, Peer: dist.PeerID(a.Peer), Args: s.InternalizeTuple(a.Args)}
	}
	out := PRule{Head: conv(w.Head), Body: make([]PAtom, 0, len(w.Body))}
	for _, a := range w.Body {
		out.Body = append(out.Body, conv(a))
	}
	xs := s.InternalizeTuple(w.NeqX)
	ys := s.InternalizeTuple(w.NeqY)
	for i := range xs {
		out.Neqs = append(out.Neqs, datalog.Neq{X: xs[i], Y: ys[i]})
	}
	return out
}

// installRule registers a rule that arrived at runtime. If the head's
// relation is already active, the rule's body relations are activated and
// the rule evaluated over current data; otherwise activation will pick it
// up when the relation is requested.
func (ps *peerState) installRule(ctx *dist.Context, r PRule) {
	ps.installed++
	if ps.eng.traceOn {
		ps.eng.tracer.Instant(string(ps.id), "install "+string(r.Head.Qualified()))
	}
	ri := ps.host(r)
	if ps.rels[ps.rule(ri).head].active {
		for _, a := range r.Body {
			ps.activateBody(ctx, a)
		}
		ps.join(ri, -1, nil)
	}
}

package ddatalog

import (
	"slices"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/term"
)

// This file copies a quiescent engine. What a session over a rewritten
// program sets up before its first fact arrives — rules hosted and compiled,
// relations activated and subscribed to, base facts replicated — depends on
// the program alone, so it is built once, by a query that primes the engine
// (see dqsq.OnlineSession.Prime), and every session starts from a clone: the
// store, relation arenas and activation state copied, the hosted rules
// shared.

// Clone returns an engine in e's state that evaluates independently of it,
// under its own fact budget (MaxTermDepth stays e's: it has shaped what e
// derived). store is the clone's program store: a clone of e's. The counters
// carry over — the facts e derived count against budget and in Stats, as if
// the clone had derived them — while the tracer, activation hook and net
// factory are the defaults of a new engine. e must be quiescent and must not
// run again: its clones keep reading it, and its lengths are where their
// snapshots start (see EncodeSnapshot). It may be cloned from many goroutines
// at once.
func (e *Engine) Clone(store *term.Store, budget datalog.Budget) *Engine {
	if budget.MaxFacts == 0 {
		budget.MaxFacts = datalog.DefaultBudget.MaxFacts
	}
	budget.MaxTermDepth = e.budget.MaxTermDepth
	c := &Engine{
		store:          store,
		budget:         budget,
		peers:          make(map[dist.PeerID]*peerState, len(e.peers)),
		order:          e.order,
		progPeers:      e.progPeers,
		tracer:         obs.Nop,
		lastDerived:    e.lastDerived,
		lastReplicated: e.lastReplicated,
		lastInstalled:  e.lastInstalled,
		colDB:          e.colDB.Clone(store),
		derived:        e.derived,
		origin:         e,
	}
	for id, ps := range e.peers {
		c.peers[id] = ps.clone(c)
	}
	return c
}

// clone copies the peer for engine e. The rules are shared. The relation
// states are cut from one allocation; the slices inside them only ever grow,
// so they are shared up to their length.
func (ps *peerState) clone(e *Engine) *peerState {
	c := newPeerState(e, ps.id, ps.db.Clone(e.store))
	c.k.Probes, c.k.Attempts = ps.k.Probes, ps.k.Attempts
	c.shared = ps.rules
	if len(ps.shared) > 0 { // ps is a clone itself
		c.shared = slices.Concat(ps.shared, ps.rules)
	}
	c.names = ps.names.Clone()
	c.rels = make([]*relState, len(ps.rels))
	block := make([]relState, len(ps.rels))
	for i, rs := range ps.rels {
		block[i] = *rs
		rs := &block[i]
		rs.subs, rs.defs, rs.occs = slices.Clip(rs.subs), slices.Clip(rs.defs), slices.Clip(rs.occs)
		c.rels[i] = rs
	}
	// Queued tuples are views of arenas the clone shares.
	c.pending = make([]pendingFact, len(ps.pending))
	for i, pf := range ps.pending {
		c.pending[i] = pendingFact{rel: c.rels[pf.rel.slot], args: pf.args}
	}
	c.derived, c.replicated, c.installed = ps.derived, ps.replicated, ps.installed
	return c
}

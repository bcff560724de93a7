package ddatalog

import (
	"errors"
	"sort"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// This file serializes engine state for the checkpoint/restore subsystem
// (internal/snapshot). The encoding preserves everything the evaluation's
// determinism depends on: the engine's term store, which the caller
// serializes, is replayed cell-by-cell so interned IDs survive verbatim,
// relations keep their insertion order and each peer's numbering of them,
// rules keep their installation order (the occurrence lists are rebuilt by
// replaying them, exactly as construction and installRule built them), and
// the subscriber lists keep their registration order so fact fan-out after
// a restore sends the same messages in the same order as an uninterrupted
// run. Transient state (variable bindings, the per-run trace mirrors) is
// deliberately dropped and rebuilt fresh.

// ErrNotQuiescent is returned when a snapshot is requested from an engine
// whose budget has tripped — such state is not worth restoring.
var ErrNotQuiescent = errors.New("ddatalog: cannot snapshot an aborted engine")

// EncodePAtomSnapshot writes a located atom whose args are interned in
// the store the surrounding snapshot serializes.
func EncodePAtomSnapshot(w *snapshot.Writer, a PAtom) {
	w.String(string(a.Rel))
	w.String(string(a.Peer))
	w.Uvarint(uint64(len(a.Args)))
	for _, t := range a.Args {
		w.Uvarint(uint64(t))
	}
}

// DecodePAtomSnapshot reads an atom, validating every term ID against
// storeLen.
func DecodePAtomSnapshot(r *snapshot.Reader, storeLen int) PAtom {
	a := PAtom{Rel: rel.Name(r.String()), Peer: dist.PeerID(r.String())}
	n := r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Uvarint()
		if id >= uint64(storeLen) {
			r.Failf("atom arg %d outside store of %d terms", id, storeLen)
			return a
		}
		a.Args = append(a.Args, term.ID(id))
	}
	return a
}

// EncodePRuleSnapshot writes a located rule.
func EncodePRuleSnapshot(w *snapshot.Writer, ru PRule) {
	EncodePAtomSnapshot(w, ru.Head)
	w.Uvarint(uint64(len(ru.Body)))
	for _, a := range ru.Body {
		EncodePAtomSnapshot(w, a)
	}
	w.Uvarint(uint64(len(ru.Neqs)))
	for _, n := range ru.Neqs {
		w.Uvarint(uint64(n.X))
		w.Uvarint(uint64(n.Y))
	}
}

// DecodePRuleSnapshot reads a rule, validating IDs against storeLen.
func DecodePRuleSnapshot(r *snapshot.Reader, storeLen int) PRule {
	ru := PRule{Head: DecodePAtomSnapshot(r, storeLen)}
	n := r.Count(3)
	for i := 0; i < n && r.Err() == nil; i++ {
		ru.Body = append(ru.Body, DecodePAtomSnapshot(r, storeLen))
	}
	n = r.Count(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		x, y := r.Uvarint(), r.Uvarint()
		if x >= uint64(storeLen) || y >= uint64(storeLen) {
			r.Failf("neq term outside store of %d terms", storeLen)
			return ru
		}
		ru.Neqs = append(ru.Neqs, datalog.Neq{X: term.ID(x), Y: term.ID(y)})
	}
	return ru
}

// EncodeSnapshot writes the program's rules, facts and declared peers.
// The term store they refer into is serialized separately by the caller —
// programs share stores with sessions.
func (p *Program) EncodeSnapshot(w *snapshot.Writer) {
	w.Uvarint(uint64(len(p.Rules)))
	for _, ru := range p.Rules {
		EncodePRuleSnapshot(w, ru)
	}
	w.Uvarint(uint64(len(p.Facts)))
	for _, f := range p.Facts {
		EncodePAtomSnapshot(w, f)
	}
	w.Uvarint(uint64(len(p.declared)))
	for _, id := range p.declared {
		w.String(string(id))
	}
}

// DecodeProgramSnapshot rebuilds a program over store.
func DecodeProgramSnapshot(r *snapshot.Reader, store *term.Store) (*Program, error) {
	p := NewProgram(store)
	n := r.Count(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Rules = append(p.Rules, DecodePRuleSnapshot(r, store.Len()))
	}
	n = r.Count(3)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := DecodePAtomSnapshot(r, store.Len())
		for _, t := range f.Args {
			if r.Err() == nil && !store.IsGround(t) {
				r.Failf("non-ground fact %s", string(f.Rel))
			}
		}
		p.Facts = append(p.Facts, f)
	}
	n = r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.declared = append(p.declared, dist.PeerID(r.String()))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return p, nil
}

// What a peer snapshot keeps of a relation's protocol state, as bits.
const (
	snapActive = 1 << iota
	snapRequested
	snapHooked
)

// EncodeSnapshot writes the engine's warm state into w: budget, counters,
// the collector, and every hosted peer's relations, rules and protocol
// maps. The term store all of them refer into is the program's, which the
// caller serializes. Queued-but-unprocessed deltas (pending) are included
// so a checkpoint between handler turns loses nothing. It refuses to encode
// an engine whose budget has tripped.
func (e *Engine) EncodeSnapshot(w *snapshot.Writer) error {
	if e.aborted {
		return ErrNotQuiescent
	}
	w.Uvarint(uint64(e.budget.MaxFacts))
	w.Uvarint(uint64(e.budget.MaxIters))
	w.Uvarint(uint64(e.budget.MaxTermDepth))
	w.Int(int64(e.derived))
	w.Uvarint(uint64(e.lastDerived))
	w.Uvarint(uint64(e.lastReplicated))
	w.Uvarint(uint64(e.lastInstalled))

	// All program peers, hosted here or not, in program order (the order
	// only matters for reconstruction determinism, so sort it).
	progPeers := make([]string, 0, len(e.progPeers))
	for id := range e.progPeers {
		progPeers = append(progPeers, string(id))
	}
	sort.Strings(progPeers)
	w.Uvarint(uint64(len(progPeers)))
	for _, id := range progPeers {
		w.String(id)
	}

	e.colDB.EncodeSnapshot(w)

	w.Uvarint(uint64(len(e.order)))
	for _, id := range e.order {
		ps := e.peers[id]
		w.String(string(id))
		ps.db.EncodeSnapshot(w)
		w.Uvarint(uint64(ps.numRules()))
		for ri := 0; ri < ps.numRules(); ri++ {
			EncodePRuleSnapshot(w, ps.rule(ri).PRule)
		}
		// The relations in the peer's numbering, which the restored peer
		// takes over: name, arity + 1, protocol bits, subscribers.
		w.Uvarint(uint64(len(ps.rels)))
		for _, rs := range ps.rels {
			w.String(string(rs.q))
			w.Uvarint(uint64(rs.arity + 1))
			var bits byte
			if rs.active {
				bits |= snapActive
			}
			if rs.requested {
				bits |= snapRequested
			}
			if rs.hooked {
				bits |= snapHooked
			}
			w.Byte(bits)
			w.Uvarint(uint64(len(rs.subs)))
			for _, s := range rs.subs { // registration order matters
				w.String(string(s))
			}
		}
		w.Uvarint(uint64(len(ps.pending)))
		for _, pf := range ps.pending {
			w.Uvarint(uint64(pf.rel.slot))
			w.Uvarint(uint64(len(pf.args)))
			for _, t := range pf.args {
				w.Uvarint(uint64(t))
			}
		}
		w.Uvarint(uint64(ps.derived))
		w.Uvarint(uint64(ps.replicated))
		w.Uvarint(uint64(ps.installed))
	}
	return nil
}

// DecodeEngineSnapshot rebuilds an engine from r over store, the restored
// store of the program it evaluated. The restored engine has no tracer, hook
// or net factory installed — callers re-attach those, as they did after
// NewEngine. Of the program, the store and the peer set survive; the rule
// list lives on in the per-peer copies.
func DecodeEngineSnapshot(r *snapshot.Reader, store *term.Store) (*Engine, error) {
	e := &Engine{
		store:     store,
		peers:     make(map[dist.PeerID]*peerState),
		progPeers: make(map[dist.PeerID]bool),
		tracer:    obs.Nop,
	}
	e.budget.MaxFacts = int(r.Uvarint())
	e.budget.MaxIters = int(r.Uvarint())
	e.budget.MaxTermDepth = int(r.Uvarint())
	e.derived = int(r.Int())
	e.lastDerived = int(r.Uvarint())
	e.lastReplicated = int(r.Uvarint())
	e.lastInstalled = int(r.Uvarint())

	n := r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := dist.PeerID(r.String())
		if e.progPeers[id] {
			r.Failf("duplicate program peer %q", id)
			break
		}
		e.progPeers[id] = true
	}

	var err error
	if e.colDB, err = rel.DecodeDBSnapshot(r, store); err != nil {
		return nil, err
	}

	nPeers := r.Count(2)
	for i := 0; i < nPeers && r.Err() == nil; i++ {
		id := dist.PeerID(r.String())
		if r.Err() != nil {
			break
		}
		if _, dup := e.peers[id]; dup {
			r.Failf("duplicate hosted peer %q", id)
			break
		}
		db, err := rel.DecodeDBSnapshot(r, store)
		if err != nil {
			return nil, err
		}
		ps := newPeerState(e, id, db)
		var rules []PRule
		nRules := r.Count(3)
		for j := 0; j < nRules && r.Err() == nil; j++ {
			rules = append(rules, DecodePRuleSnapshot(r, store.Len()))
		}
		nRels := r.Count(4)
		for j := 0; j < nRels && r.Err() == nil; j++ {
			name := rel.Name(r.String())
			ar, bits := r.Uvarint(), r.Byte()
			if _, dup := ps.names.Lookup(name); r.Err() == nil && (dup || ar > 64) {
				r.Failf("relation %s: listed twice, or arity %d", name, int(ar)-1)
				break
			}
			rs := ps.rel(name)
			rs.arity = int(ar) - 1
			rs.active, rs.requested, rs.hooked = bits&snapActive != 0, bits&snapRequested != 0, bits&snapHooked != 0
			m := r.Count(1)
			for k := 0; k < m && r.Err() == nil; k++ {
				rs.subs = append(rs.subs, dist.PeerID(r.String()))
			}
		}
		nPend := r.Count(2)
		for j := 0; j < nPend && r.Err() == nil; j++ {
			slot := r.Uvarint()
			if r.Err() != nil || slot >= uint64(len(ps.rels)) {
				r.Failf("pending fact of relation %d of %d", slot, len(ps.rels))
				break
			}
			pf := pendingFact{rel: ps.rels[slot]}
			m := r.Count(1)
			for k := 0; k < m && r.Err() == nil; k++ {
				id := r.Uvarint()
				if id >= uint64(store.Len()) {
					r.Failf("pending fact term outside store")
					break
				}
				pf.args = append(pf.args, term.ID(id))
			}
			ps.pending = append(ps.pending, pf)
		}
		ps.derived = int(r.Uvarint())
		ps.replicated = int(r.Uvarint())
		ps.installed = int(r.Uvarint())
		if r.Err() != nil {
			break
		}

		// Rebuild the derived indices by replaying the rules in order —
		// the same host calls construction and installRule performed —
		// after cross-checking arities (host's noteArity panics on
		// inconsistency; corrupt input must error instead).
		for _, ru := range rules {
			bad := ps.checkArity(r, ru.Head)
			for _, a := range ru.Body {
				bad = bad || ps.checkArity(r, a)
			}
			if bad {
				break
			}
			ps.host(ru)
		}
		for _, name := range ps.db.Names() {
			i, ok := ps.names.Lookup(name)
			if stored := ps.db.Lookup(name).Arity(); ok && ps.rels[i].arity >= 0 && stored != ps.rels[i].arity {
				r.Failf("relation %s stored with arity %d, declared %d", name, stored, ps.rels[i].arity)
			}
		}
		for _, pf := range ps.pending {
			if pf.rel.arity >= 0 && len(pf.args) != pf.rel.arity {
				r.Failf("pending fact arity mismatch for %s", pf.rel.q)
			}
		}
		if r.Err() != nil {
			break
		}
		e.peers[id] = ps
		e.order = append(e.order, id)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return e, nil
}

// checkArity validates one atom's arity against the restored arity map,
// reporting corruption through the reader instead of panicking.
func (ps *peerState) checkArity(r *snapshot.Reader, a PAtom) bool {
	q, n := a.Qualified(), len(a.Args)
	if i, ok := ps.names.Lookup(q); !ok || ps.rels[i].arity != n {
		r.Failf("rule uses %s with arity %d, snapshot declares otherwise", q, n)
		return true
	}
	return false
}

package ddatalog

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/rel"
	"repro/internal/snapshot"
)

// This file checkpoints a clone (see Clone) as what it added to the engine
// it was cloned from. That origin is frozen, so its lengths — the store's,
// each database's relation count and each relation's — mark where the
// clone's own state starts: a snapshot holds the terms and tuples past the
// mark plus the counters, and restoring is cloning the origin again and
// appending them. Rules, relation states and subscriptions are read off the
// origin rather than written, so a clone holding any of its own is refused,
// and Fingerprint tells origins apart, so a snapshot is never appended to
// another one. Transient state (variable bindings, the per-run trace
// counters) is dropped and rebuilt fresh.

// ErrNotQuiescent is returned when a snapshot is requested from an engine
// whose budget has tripped — such state is not worth restoring.
var ErrNotQuiescent = errors.New("ddatalog: cannot snapshot an aborted engine")

// Budget returns the engine's budget, defaults applied.
func (e *Engine) Budget() datalog.Budget { return e.budget }

// Fingerprint digests what a snapshot of a clone of e takes as given: the
// terms e has interned, the rules its peers host, in order, and the tuples
// of every relation, which fix its mark.
func (e *Engine) Fingerprint() [sha256.Size]byte {
	var w snapshot.Writer
	e.store.EncodeTail(&w, 0)
	atom := func(a PAtom) {
		w.String(string(a.Qualified()))
		w.Uvarint(uint64(len(a.Args)))
		for _, t := range a.Args {
			w.Uvarint(uint64(t))
		}
	}
	none := rel.NewDB(e.store)
	e.colDB.EncodeTail(&w, none)
	for _, id := range e.order {
		ps := e.peers[id]
		w.String(string(id))
		ps.db.EncodeTail(&w, none)
		w.Uvarint(uint64(ps.numRules()))
		for ri := 0; ri < ps.numRules(); ri++ {
			r := ps.rule(ri)
			atom(r.Head)
			w.Uvarint(uint64(len(r.Body)))
			for _, a := range r.Body {
				atom(a)
			}
			w.Uvarint(uint64(len(r.Neqs)))
			for _, n := range r.Neqs {
				w.Uvarint(uint64(n.X))
				w.Uvarint(uint64(n.Y))
			}
		}
	}
	return sha256.Sum256(w.Body())
}

// EncodeSnapshot writes what e, a clone, holds past its origin: the terms
// interned since, the tuples the collector and each hosted peer stored
// since, and the counters. It refuses an engine whose budget has tripped,
// and one holding what the snapshot does not carry: a rule of its own, a
// relation its origin had not numbered, one whose arity, activation or
// subscribers moved, or queued delta joins.
func (e *Engine) EncodeSnapshot(w *snapshot.Writer) error {
	o := e.origin
	if o == nil {
		return errors.New("ddatalog: only a clone can be snapshotted")
	}
	if e.aborted {
		return ErrNotQuiescent
	}
	for _, id := range e.order {
		ps, ops := e.peers[id], o.peers[id]
		if len(ps.rules) > 0 || len(ps.pending) > 0 || len(ps.rels) != len(ops.rels) {
			return fmt.Errorf("ddatalog: cannot snapshot peer %s: it holds rules, relations or delta joins its origin does not", id)
		}
		for i, rs := range ps.rels {
			if was := ops.rels[i]; rs.arity != was.arity || rs.active != was.active || rs.requested != was.requested ||
				rs.hooked != was.hooked || len(rs.subs) != len(was.subs) {
				return fmt.Errorf("ddatalog: cannot snapshot peer %s: relation %s moved past its origin's state", id, rs.q)
			}
		}
	}
	e.store.EncodeTail(w, o.store.Len())
	e.colDB.EncodeTail(w, o.colDB)
	for _, id := range e.order {
		e.peers[id].db.EncodeTail(w, o.peers[id].db)
	}
	for _, n := range []int{e.derived, e.lastDerived, e.lastReplicated, e.lastInstalled} {
		w.Uvarint(uint64(n))
	}
	for _, id := range e.order {
		ps := e.peers[id]
		for _, n := range []int{ps.derived, ps.replicated, ps.installed, ps.k.Probes, ps.k.Attempts} {
			w.Uvarint(uint64(n))
		}
	}
	return nil
}

// DecodeSnapshot appends what EncodeSnapshot wrote to e, a clone of the
// snapshotted engine's origin that has not run. It checks every term and
// tuple it appends and that a relation it creates at a peer has the arity
// the peer declares.
func (e *Engine) DecodeSnapshot(r *snapshot.Reader) error {
	if err := e.store.DecodeTail(r); err != nil {
		return err
	}
	if _, err := e.colDB.DecodeTail(r); err != nil {
		return err
	}
	for _, id := range e.order {
		ps := e.peers[id]
		added, err := ps.db.DecodeTail(r)
		if err != nil {
			return err
		}
		for _, name := range added {
			if i, ok := ps.names.Lookup(name); !ok || ps.rels[i].arity != ps.db.Lookup(name).Arity() {
				r.Failf("relation %s stored at peer %s with arity %d, which the peer does not declare", name, id, ps.db.Lookup(name).Arity())
				return r.Err()
			}
		}
	}
	for _, n := range []*int{&e.derived, &e.lastDerived, &e.lastReplicated, &e.lastInstalled} {
		*n = int(r.Uvarint())
	}
	for _, id := range e.order {
		ps := e.peers[id]
		for _, n := range []*int{&ps.derived, &ps.replicated, &ps.installed, &ps.k.Probes, &ps.k.Attempts} {
			*n = int(r.Uvarint())
		}
	}
	return r.Err()
}

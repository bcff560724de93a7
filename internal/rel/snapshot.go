package rel

import (
	"repro/internal/snapshot"
	"repro/internal/term"
)

// EncodeSnapshot writes the relation's arity and tuples (in insertion
// order) into w. The arena keeps insertion order, so the byte format is
// unchanged from the slice-of-tuples representation. The dedup set and the
// lazily built indexes are derived state and are rebuilt on demand after
// decode. The writer is grown up front by the exact encoded size of the
// arena, not a per-column worst case.
func (r *Relation) EncodeSnapshot(w *snapshot.Writer) {
	w.Uvarint(uint64(r.arity))
	w.Uvarint(uint64(r.n))
	total := 0
	for _, id := range r.flat {
		total += snapshot.UvarintLen(uint64(id))
	}
	w.Reserve(total)
	for _, id := range r.flat {
		w.Uvarint(uint64(id))
	}
}

// DecodeRelationSnapshot rebuilds a relation from r. Every term ID is
// validated against storeLen, the size of the term store the tuples refer
// into; duplicate tuples are rejected (an append-only relation never
// contains them, so their presence means corruption).
func DecodeRelationSnapshot(rd *snapshot.Reader, storeLen int) (*Relation, error) {
	arity := rd.Uvarint()
	if rd.Err() == nil && arity >= 64 {
		rd.Failf("relation arity %d", arity)
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	rel := New(int(arity))
	min := int(arity)
	if min < 1 {
		min = 1
	}
	n := rd.Count(min)
	tup := make([]term.ID, arity)
	for i := 0; i < n; i++ {
		for j := range tup {
			id := rd.Uvarint()
			if rd.Err() != nil {
				return nil, rd.Err()
			}
			if id >= uint64(storeLen) {
				rd.Failf("tuple term %d outside store of %d terms", id, storeLen)
				return nil, rd.Err()
			}
			tup[j] = term.ID(id)
		}
		if !rel.Insert(tup) {
			rd.Failf("duplicate tuple %d in relation", i)
			return nil, rd.Err()
		}
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return rel, nil
}

// EncodeSnapshot writes the database's relations in creation order. The
// shared term store is snapshotted separately by the caller — a DB does
// not own its store.
func (db *DB) EncodeSnapshot(w *snapshot.Writer) {
	w.Uvarint(uint64(len(db.rels)))
	for i, r := range db.rels {
		w.String(string(db.names.Name(i)))
		r.EncodeSnapshot(w)
	}
}

// DecodeDBSnapshot rebuilds a database over store from rd, restoring the
// relations in their original creation order (Names() and Dump() are
// order-sensitive).
func DecodeDBSnapshot(rd *snapshot.Reader, store *term.Store) (*DB, error) {
	db := NewDB(store)
	n := rd.Count(3) // name length + arity + tuple count minimum
	for i := 0; i < n; i++ {
		name := Name(rd.String())
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if db.Lookup(name) != nil {
			rd.Failf("duplicate relation %q", name)
			return nil, rd.Err()
		}
		r, err := DecodeRelationSnapshot(rd, store.Len())
		if err != nil {
			return nil, err
		}
		db.add(name, r)
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	return db, nil
}

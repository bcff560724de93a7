package rel

import (
	"repro/internal/snapshot"
	"repro/internal/term"
)

// encodeTail writes the tuples of r from position from on, in insertion
// order. The dedup set and the indexes are derived state, rebuilt by the
// inserts that decode them.
func (r *Relation) encodeTail(w *snapshot.Writer, from int) {
	w.Uvarint(uint64(r.n - from))
	for _, id := range r.flat[from*r.arity:] {
		w.Uvarint(uint64(id))
	}
}

// decodeTail appends the tuples encodeTail wrote. Every term ID is checked
// against storeLen, the length of the store the tuples refer into, and a
// duplicate tuple is refused: an append-only relation never holds one, so
// its presence means corruption.
func (r *Relation) decodeTail(rd *snapshot.Reader, storeLen int) {
	tup := make([]term.ID, r.arity)
	for n := rd.Count(max(r.arity, 1)); n > 0 && rd.Err() == nil; n-- {
		for j := range tup {
			id := rd.Uvarint()
			if id >= uint64(storeLen) {
				rd.Failf("tuple term %d outside store of %d terms", id, storeLen)
			}
			tup[j] = term.ID(id)
		}
		if rd.Err() == nil && !r.Insert(tup) {
			rd.Failf("duplicate tuple in relation")
		}
	}
}

// EncodeTail writes what db holds past mark, the database db was cloned
// from, which has not grown since: the tuples past the length of each of
// mark's relations, then the relations created since — name, arity and
// tuples — in creation order.
func (db *DB) EncodeTail(w *snapshot.Writer, mark *DB) {
	for i, r := range mark.rels {
		db.rels[i].encodeTail(w, r.n)
	}
	w.Uvarint(uint64(len(db.rels) - len(mark.rels)))
	for i := len(mark.rels); i < len(db.rels); i++ {
		w.String(string(db.names.Name(i)))
		w.Uvarint(uint64(db.rels[i].arity))
		db.rels[i].encodeTail(w, 0)
	}
}

// DecodeTail appends to db, a clone of the mark EncodeTail was given that
// has not grown since, what EncodeTail wrote, and returns the names of the
// relations it created. Term IDs are checked against db's store, whose own
// tail must have been decoded first.
func (db *DB) DecodeTail(rd *snapshot.Reader) ([]Name, error) {
	storeLen := db.Store.Len()
	for _, r := range db.rels {
		r.decodeTail(rd, storeLen)
	}
	var added []Name
	for n := rd.Count(3); n > 0 && rd.Err() == nil; n-- { // name length + arity + tuple count
		name, arity := Name(rd.String()), rd.Uvarint()
		if rd.Err() == nil && (db.Lookup(name) != nil || arity >= 64) {
			rd.Failf("relation %q: present already, or arity %d", name, arity)
		}
		if rd.Err() != nil {
			break
		}
		db.add(name, New(int(arity))).decodeTail(rd, storeLen)
		added = append(added, name)
	}
	return added, rd.Err()
}

package term

import "repro/internal/snapshot"

// EncodeTail writes the cells interned from ID from on, in ID order, plus
// the fresh-variable counter. IDs are dense and assigned in insertion
// order, so replaying the cells into a store of length from (a clone of the
// store that was that long) reproduces the same ID for every term, and IDs
// persisted elsewhere in the snapshot stay valid without a remap table.
func (s *Store) EncodeTail(w *snapshot.Writer, from int) {
	w.Uvarint(uint64(len(s.cells) - from))
	for _, c := range s.cells[from:] {
		w.Byte(byte(c.kind))
		w.String(c.name)
		if c.kind == Comp {
			w.Uvarint(uint64(len(c.args)))
			for _, a := range c.args {
				w.Uvarint(uint64(a))
			}
		}
	}
	w.Uvarint(uint64(s.fresh))
}

// DecodeTail re-interns the cells EncodeTail wrote onto s. It validates
// what the interning functions would otherwise panic on — argument
// references must point backward, compounds must have at least one argument
// — and additionally checks that re-interning cell i yields ID i: a cell s
// already holds would silently shift all later IDs, so it is rejected here
// rather than surfacing as garbled terms downstream.
func (s *Store) DecodeTail(r *snapshot.Reader) error {
	n := r.Count(2) // kind byte + name length byte minimum
	var args []ID
	for i := len(s.cells); r.Err() == nil && n > 0; i, n = i+1, n-1 {
		kind := Kind(r.Byte())
		name := r.String()
		if r.Err() != nil {
			break
		}
		var id ID
		switch kind {
		case Const:
			id = s.Constant(name)
		case Var:
			id = s.Variable(name)
		case Comp:
			args = args[:0]
			for j := r.Count(1); j > 0 && r.Err() == nil; j-- {
				if a := r.Uvarint(); a < uint64(i) {
					args = append(args, ID(a))
				} else {
					r.Failf("forward term reference %d in cell %d", a, i)
				}
			}
			if r.Err() == nil && len(args) == 0 {
				r.Failf("zero-ary compound %q", name)
			}
			if r.Err() != nil {
				return r.Err()
			}
			id = s.Compound(name, args...)
		default:
			r.Failf("unknown term kind %d", kind)
			return r.Err()
		}
		if id != ID(i) {
			r.Failf("duplicate cell %d re-interned as %d", i, id)
		}
	}
	s.fresh = int(r.Uvarint())
	return r.Err()
}

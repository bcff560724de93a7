package term

import (
	"testing"

	"repro/internal/snapshot"
)

// TestStoreTailReplays: the tail of a store past a length, decoded onto a
// clone of the store at that length, re-interns every cell under its ID
// and carries the fresh-variable counter on. A tail whose compound points
// forward, or that holds a cell the store already has, is refused.
func TestStoreTailReplays(t *testing.T) {
	s := NewStore()
	a := s.Constant("a")
	mark := s.Clone()
	f := s.Compound("f", a, s.Variable("X"))
	s.FreshVar("v")
	var w snapshot.Writer
	s.EncodeTail(&w, mark.Len())
	if err := mark.DecodeTail(snapshot.NewReader(w.Body())); err != nil {
		t.Fatal(err)
	}
	if mark.Len() != s.Len() || mark.String(f) != s.String(f) {
		t.Fatalf("replayed %d cells, %s; want %d, %s", mark.Len(), mark.String(f), s.Len(), s.String(f))
	}
	if g, w := mark.FreshVar("v"), s.FreshVar("v"); g != w || mark.String(g) != s.String(w) {
		t.Fatalf("fresh variable %s after the replay, %s on the original", mark.String(g), s.String(w))
	}

	bad := map[string]func(w *snapshot.Writer){
		"forward reference": func(w *snapshot.Writer) {
			w.Byte(byte(Comp))
			w.String("g")
			w.Uvarint(1)
			w.Uvarint(1) // the cell's own ID
		},
		"cell held already": func(w *snapshot.Writer) {
			w.Byte(byte(Const))
			w.String("a")
		},
	}
	for name, cell := range bad {
		onto := NewStore()
		onto.Constant("a")
		var w snapshot.Writer
		w.Uvarint(1)
		cell(&w)
		w.Uvarint(0)
		if err := onto.DecodeTail(snapshot.NewReader(w.Body())); err == nil {
			t.Fatalf("%s: replayed", name)
		}
	}
}

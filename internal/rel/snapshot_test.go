package rel

import (
	"testing"

	"repro/internal/snapshot"
	"repro/internal/term"
)

// TestDBTailReplays: what a clone stored past its origin — tuples of the
// origin's relations and relations of its own — decoded onto another clone
// of the origin gives the same database and names the relations it
// created. A duplicate tuple, a term outside the store and a relation the
// database holds already are refused.
func TestDBTailReplays(t *testing.T) {
	s := term.NewStore()
	a, b := s.Constant("a"), s.Constant("b")
	origin := NewDB(s)
	origin.Rel("edge", 2).Insert([]term.ID{a, b})

	live := origin.Clone(s)
	live.Rel("edge", 2).Insert([]term.ID{b, a})
	live.Rel("node", 1).Insert([]term.ID{a})
	var w snapshot.Writer
	live.EncodeTail(&w, origin)

	back := origin.Clone(s)
	added, err := back.DecodeTail(snapshot.NewReader(w.Body()))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := back.Dump(), live.Dump(); g != w || len(added) != 1 || added[0] != "node" {
		t.Fatalf("replayed\n%s\ncreating %v; want\n%s\ncreating [node]", g, added, w)
	}

	bad := map[string]func(w *snapshot.Writer){
		"duplicate tuple": func(w *snapshot.Writer) {
			w.Uvarint(1)
			w.Uvarint(uint64(a))
			w.Uvarint(uint64(b))
			w.Uvarint(0)
		},
		"term outside the store": func(w *snapshot.Writer) {
			w.Uvarint(1)
			w.Uvarint(uint64(s.Len()))
			w.Uvarint(uint64(a))
			w.Uvarint(0)
		},
		"relation present already": func(w *snapshot.Writer) {
			w.Uvarint(0)
			w.Uvarint(1)
			w.String("edge")
			w.Uvarint(2)
			w.Uvarint(0)
		},
	}
	for name, tail := range bad {
		var w snapshot.Writer
		tail(&w)
		if _, err := origin.Clone(s).DecodeTail(snapshot.NewReader(w.Body())); err == nil {
			t.Fatalf("%s: replayed", name)
		}
	}
}

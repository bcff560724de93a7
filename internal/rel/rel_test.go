package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func tup(s *term.Store, syms ...string) []term.ID {
	out := make([]term.ID, len(syms))
	for i, sym := range syms {
		out[i] = s.Constant(sym)
	}
	return out
}

func TestInsertDedup(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	if !r.Insert(tup(s, "a", "b")) {
		t.Fatal("first insert reported duplicate")
	}
	if r.Insert(tup(s, "a", "b")) {
		t.Fatal("duplicate insert reported new")
	}
	if !r.Insert(tup(s, "b", "a")) {
		t.Fatal("reversed tuple rejected")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(tup(s, "a", "b")) || r.Contains(tup(s, "a", "z")) {
		t.Fatal("Contains wrong")
	}
}

func TestInsertCopies(t *testing.T) {
	s := term.NewStore()
	r := New(1)
	buf := tup(s, "a")
	r.Insert(buf)
	buf[0] = s.Constant("b")
	if !r.Contains(tup(s, "a")) {
		t.Fatal("relation aliased caller's buffer")
	}
}

func TestZeroArity(t *testing.T) {
	r := New(0)
	if !r.Insert(nil) {
		t.Fatal("nullary insert failed")
	}
	if r.Insert([]term.ID{}) {
		t.Fatal("nullary fact inserted twice")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	s := term.NewStore()
	New(2).Insert(tup(s, "a"))
}

func TestScanByMask(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	r.Insert(tup(s, "a", "1"))
	r.Insert(tup(s, "a", "2"))
	r.Insert(tup(s, "b", "1"))

	var got []string
	key := []term.ID{s.Constant("a"), 0}
	r.Scan(1, key, 0, r.Len(), func(pos int, tuple []term.ID) bool {
		got = append(got, s.String(tuple[1]))
		return true
	})
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("Scan mask=1 got %v", got)
	}

	// Second column bound.
	got = nil
	key = []term.ID{0, s.Constant("1")}
	r.Scan(2, key, 0, r.Len(), func(pos int, tuple []term.ID) bool {
		got = append(got, s.String(tuple[0]))
		return true
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Scan mask=2 got %v", got)
	}
}

func TestScanDeltaWindow(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	r.Insert(tup(s, "a", "1"))
	r.Insert(tup(s, "a", "2"))
	lo := r.Len()
	r.Insert(tup(s, "a", "3"))

	var got []string
	key := []term.ID{s.Constant("a"), 0}
	r.Scan(1, key, lo, r.Len(), func(pos int, tuple []term.ID) bool {
		got = append(got, s.String(tuple[1]))
		return true
	})
	if len(got) != 1 || got[0] != "3" {
		t.Fatalf("delta scan got %v, want [3]", got)
	}
}

func TestScanIndexCatchesUpAfterBuild(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	r.Insert(tup(s, "a", "1"))
	// Build the index early...
	n := 0
	r.Scan(1, tup(s, "a", "1"), 0, r.Len(), func(int, []term.ID) bool { n++; return true })
	if n != 1 {
		t.Fatalf("first scan saw %d", n)
	}
	// ...then insert more and make sure the index absorbs them.
	r.Insert(tup(s, "b", "1"))
	r.Insert(tup(s, "a", "2"))
	n = 0
	r.Scan(1, tup(s, "a", "1"), 0, r.Len(), func(int, []term.ID) bool { n++; return true })
	if n != 2 {
		t.Fatalf("second scan saw %d, want 2", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := term.NewStore()
	r := New(1)
	for _, c := range []string{"a", "b", "c"} {
		r.Insert(tup(s, c))
	}
	n := 0
	r.Scan(0, nil, 0, r.Len(), func(int, []term.ID) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop saw %d", n)
	}
}

func TestDBRelAndDump(t *testing.T) {
	s := term.NewStore()
	db := NewDB(s)
	edge := db.Rel("edge", 2)
	edge.Insert(tup(s, "b", "c"))
	edge.Insert(tup(s, "a", "b"))
	db.Rel("node", 1).Insert(tup(s, "a"))

	if db.Rel("edge", 2) != edge {
		t.Fatal("Rel did not return existing relation")
	}
	if db.FactCount() != 3 {
		t.Fatalf("FactCount = %d", db.FactCount())
	}
	want := "edge(a,b)\nedge(b,c)\nnode(a)\n"
	if got := db.Dump(); got != want {
		t.Fatalf("Dump:\n%s\nwant:\n%s", got, want)
	}
	if db.Lookup("nope") != nil {
		t.Fatal("Lookup invented a relation")
	}
}

func TestDBRelArityConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity conflict")
		}
	}()
	db := NewDB(term.NewStore())
	db.Rel("r", 1)
	db.Rel("r", 2)
}

// Property: Scan with a full-column mask finds exactly the inserted tuple
// multiset (deduped), regardless of insertion order.
func TestQuickScanFindsAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := term.NewStore()
		r := New(2)
		inserted := map[string]bool{}
		for i := 0; i < 50; i++ {
			a := string(rune('a' + rng.Intn(5)))
			b := string(rune('a' + rng.Intn(5)))
			r.Insert(tup(s, a, b))
			inserted[a+","+b] = true
		}
		if r.Len() != len(inserted) {
			return false
		}
		// Every inserted tuple is findable with the first column bound.
		for k := range inserted {
			parts := strings.SplitN(k, ",", 2)
			found := false
			r.Scan(1, tup(s, parts[0], parts[1]), 0, r.Len(), func(_ int, tuple []term.ID) bool {
				if s.String(tuple[1]) == parts[1] {
					found = true
					return false
				}
				return true
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := term.NewStore()
	ids := make([]term.ID, 1000)
	for i := range ids {
		ids[i] = s.Constant(string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := New(2)
	for i := 0; i < b.N; i++ {
		r.Insert([]term.ID{ids[i%1000], ids[(i*7)%1000]})
	}
}

func BenchmarkIndexedScan(b *testing.B) {
	s := term.NewStore()
	r := New(2)
	for i := 0; i < 10000; i++ {
		r.Insert(tup(s, string(rune('a'+i%26)), string(rune('a'+(i/26)%26))))
	}
	key := tup(s, "a", "a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Scan(1, key, 0, r.Len(), func(int, []term.ID) bool { n++; return true })
	}
}

// TestCloneIsIndependent: a cloned database answers scans and dedups like
// its origin, by index too; inserts on either side — into shared arenas,
// chained into copied indexes — stay on that side; relation numbering
// continues, not restarts.
func TestCloneIsIndependent(t *testing.T) {
	s := term.NewStore()
	ids := make([]term.ID, 40)
	for i := range ids {
		ids[i] = s.Constant(fmt.Sprint("c", i))
	}
	db := NewDB(s)
	r := db.Rel("r", 2)
	for i := 0; i < 30; i++ {
		r.Insert([]term.ID{ids[i%3], ids[i]})
	}
	db.Rel("empty", 1)
	count := func(r *Relation, key term.ID) (n int) {
		r.Scan(1, []term.ID{key, 0}, 0, r.Len(), func(int, []term.ID) bool { n++; return true })
		return n
	}
	if count(r, ids[0]) != 10 { // builds the index on column 0 before cloning
		t.Fatal("setup")
	}

	cs := s.Clone()
	c := db.Clone(cs)
	if got := c.Names(); len(got) != 2 || got[0] != "r" || got[1] != "empty" {
		t.Fatalf("clone names %v", got)
	}
	cr := c.Lookup("r")
	if cr == r || cr.Len() != 30 || count(cr, ids[0]) != 10 || !cr.Contains([]term.ID{ids[1], ids[1]}) {
		t.Fatal("clone does not hold its origin's tuples")
	}
	if cr.Insert([]term.ID{ids[0], ids[0]}) {
		t.Fatal("clone re-inserted a tuple its origin had")
	}
	for i := 30; i < 40; i++ {
		cr.Insert([]term.ID{ids[0], ids[i]})
	}
	r.Insert([]term.ID{ids[1], ids[39]})
	if count(cr, ids[0]) != 20 || count(cr, ids[1]) != 10 || cr.Len() != 40 {
		t.Fatalf("clone after its inserts: %d and %d tuples by index, %d in all; want 20, 10, 40", count(cr, ids[0]), count(cr, ids[1]), cr.Len())
	}
	if count(r, ids[0]) != 10 || count(r, ids[1]) != 11 || r.Len() != 31 {
		t.Fatalf("origin after the clone's inserts: %d and %d tuples by index, %d in all; want 10, 11, 31", count(r, ids[0]), count(r, ids[1]), r.Len())
	}
	c.Rel("new", 1)
	if db.Lookup("new") != nil || len(c.Names()) != 3 || c.Lookup("empty") == db.Lookup("empty") {
		t.Fatal("relations created in the clone must be the clone's alone")
	}
	cc := c.Clone(cs.Clone()) // a clone of a clone keeps the lot
	if got := cc.Names(); len(got) != 3 || cc.Lookup("new") == nil || cc.Lookup("r").Len() != 40 {
		t.Fatalf("clone of a clone: names %v", got)
	}
}

package rel

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/term"
)

// modelRel is the trivially-correct reference the arena Relation is
// checked against: a set keyed by the printed tuple plus an
// insertion-order log.
type modelRel struct {
	pos  map[string]int
	tups [][]term.ID
}

func modelKey(tuple []term.ID) string { return fmt.Sprint(tuple) }

func (m *modelRel) insert(tuple []term.ID) (int, bool) {
	k := modelKey(tuple)
	if p, ok := m.pos[k]; ok {
		return p, false
	}
	p := len(m.tups)
	m.pos[k] = p
	m.tups = append(m.tups, append([]term.ID(nil), tuple...))
	return p, true
}

// scan mirrors Relation.Scan: positions in [lo,hi) whose mask-selected
// columns equal key's.
func (m *modelRel) scan(mask uint64, key []term.ID, lo, hi int) []int {
	if hi > len(m.tups) {
		hi = len(m.tups)
	}
	var out []int
	for p := lo; p < hi; p++ {
		ok := true
		for rest := mask; rest != 0; rest &= rest - 1 {
			c := bits.TrailingZeros64(rest)
			if m.tups[p][c] != key[c] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// TestArenaMatchesModel drives a long random op sequence — inserts (with
// deliberate duplicates), Contains probes, masked Scans over random delta
// windows — through the arena Relation and the map model in lockstep.
func TestArenaMatchesModel(t *testing.T) {
	const arity = 3
	s := term.NewStore()
	syms := make([]term.ID, 7)
	for i := range syms {
		syms[i] = s.Constant(fmt.Sprintf("c%d", i))
	}
	rng := rand.New(rand.NewSource(42))
	randTuple := func() []term.ID {
		tu := make([]term.ID, arity)
		for i := range tu {
			tu[i] = syms[rng.Intn(len(syms))]
		}
		return tu
	}

	r := New(arity)
	m := &modelRel{pos: make(map[string]int)}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // insert (the small alphabet makes duplicates common)
			tu := randTuple()
			gotPos, gotNew := r.InsertPos(tu)
			wantPos, wantNew := m.insert(tu)
			if gotPos != wantPos || gotNew != wantNew {
				t.Fatalf("step %d: InsertPos(%v) = (%d,%v), want (%d,%v)", step, tu, gotPos, gotNew, wantPos, wantNew)
			}
			if got := r.At(gotPos); modelKey(got) != modelKey(tu) {
				t.Fatalf("step %d: At(%d) = %v, want %v", step, gotPos, got, tu)
			}
		case 2: // membership
			tu := randTuple()
			_, want := m.pos[modelKey(tu)]
			if got := r.Contains(tu); got != want {
				t.Fatalf("step %d: Contains(%v) = %v, want %v", step, tu, got, want)
			}
		case 3: // masked scan over a random window (delta semantics)
			mask := uint64(rng.Intn(1 << arity))
			key := randTuple()
			lo := rng.Intn(r.Len() + 1)
			if rng.Intn(2) == 0 {
				lo = 0 // the indexed path: a chain is entered at its head only
			}
			hi := lo + rng.Intn(r.Len()-lo+1)
			var got []int
			r.Scan(mask, key, lo, hi, func(pos int, tuple []term.ID) bool {
				if modelKey(tuple) != modelKey(m.tups[pos]) {
					t.Fatalf("step %d: Scan pos %d tuple %v, want %v", step, pos, tuple, m.tups[pos])
				}
				got = append(got, pos)
				return true
			})
			want := m.scan(mask, key, lo, hi)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: Scan(mask=%b, key=%v, [%d,%d)) = %v, want %v", step, mask, key, lo, hi, got, want)
			}
		}
		if r.Len() != len(m.tups) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(m.tups))
		}
	}

	all := r.All()
	if len(all) != len(m.tups) {
		t.Fatalf("All: %d tuples, want %d", len(all), len(m.tups))
	}
	for i := range all {
		if modelKey(all[i]) != modelKey(m.tups[i]) {
			t.Fatalf("All[%d] = %v, want %v", i, all[i], m.tups[i])
		}
	}
}

// TestScanSeesItsStartingState pins what joins rely on when their
// continuation derives into the relation being scanned: an indexed scan
// visits the tuples present when it started, in position order, however
// the callback grows the relation and its index meanwhile.
func TestScanSeesItsStartingState(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	for i := 0; i < 3*scanLimit; i++ {
		r.Insert(tup(s, fmt.Sprintf("a%d", i%2), fmt.Sprintf("b%d", i)))
	}
	key := tup(s, "a1", "")
	var got []int
	r.Scan(1, key, 0, r.Len(), func(pos int, _ []term.ID) bool {
		got = append(got, pos)
		r.Insert(tup(s, "a1", fmt.Sprintf("new%d", pos)))
		inner := 0
		r.Scan(1, key, 0, r.Len(), func(int, []term.ID) bool { inner++; return true })
		if want := 3*scanLimit/2 + len(got); inner != want {
			t.Fatalf("nested scan at pos %d saw %d tuples, want %d", pos, inner, want)
		}
		return true
	})
	if len(got) != 3*scanLimit/2 || got[0] != 1 || got[len(got)-1] != 3*scanLimit-1 {
		t.Fatalf("outer scan visited %v, want the %d odd positions below %d", got, 3*scanLimit/2, 3*scanLimit)
	}
}

// TestContainsZeroAlloc pins the hot-path contract: probing a warm
// relation allocates nothing.
func TestContainsZeroAlloc(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	for i := 0; i < 256; i++ {
		r.Insert(tup(s, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%16)))
	}
	hit := tup(s, "a7", "b7")
	miss := tup(s, "a7", "b9")
	if n := testing.AllocsPerRun(200, func() {
		if !r.Contains(hit) || r.Contains(miss) {
			t.Fatal("Contains wrong")
		}
	}); n != 0 {
		t.Fatalf("Contains allocates %.1f per probe, want 0", n)
	}
}

// TestScanZeroAlloc pins the other hot-path contract: an indexed Scan
// over a warm (already-built, fully-caught-up) index allocates nothing.
func TestScanZeroAlloc(t *testing.T) {
	s := term.NewStore()
	r := New(2)
	for i := 0; i < 256; i++ {
		r.Insert(tup(s, fmt.Sprintf("a%d", i%8), fmt.Sprintf("b%d", i)))
	}
	key := tup(s, "a3", "")
	count := 0
	visit := func(pos int, tuple []term.ID) bool { count++; return true }
	r.Scan(1, key, 0, r.Len(), visit) // builds and catches up the column-0 index
	if n := testing.AllocsPerRun(200, func() {
		count = 0
		r.Scan(1, key, 0, r.Len(), visit)
		if count != 32 {
			t.Fatalf("Scan matched %d tuples, want 32", count)
		}
	}); n != 0 {
		t.Fatalf("warm indexed Scan allocates %.1f per call, want 0", n)
	}
}

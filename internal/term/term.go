// Package term implements the term algebra underlying dDatalog: constants,
// variables and compound terms built from function symbols (the paper's
// Skolem functions f, g, h that name unfolding nodes).
//
// Terms are hash-consed: each structurally distinct term is stored exactly
// once in a Store and is identified by a dense ID. Tuples, atoms and
// substitutions all manipulate IDs, so equality is integer comparison and
// joins hash machine words rather than strings.
package term

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// ID identifies a term within its Store. IDs are dense, starting at 0, in
// insertion order. The zero Store has no terms, so any ID must come from
// the Store it is used with.
type ID int32

// None is the invalid ID. It is returned by lookups that find nothing and
// is never a valid index into a Store.
const None ID = -1

// Kind discriminates the three term shapes.
type Kind uint8

// The three kinds of terms.
const (
	Const Kind = iota // an uninterpreted constant, e.g. p1, "1", c7
	Var               // a variable, e.g. X, Y
	Comp              // a compound term f(t1, ..., tn) with n >= 1
)

func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Var:
		return "var"
	case Comp:
		return "comp"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// cell is the interned representation of one term.
type cell struct {
	kind   Kind
	name   string // constant symbol, variable name, or functor
	args   []ID   // nil unless kind == Comp
	ground bool   // no variable occurs anywhere inside
	depth  int32  // 0 for constants and variables, 1+max(args) for compounds
}

// Store hash-conses terms. It is not safe for concurrent mutation: an
// engine has one Store, which its peers share because their handlers take
// turns, and processes exchange terms in a portable wire form (see Extern).
type Store struct {
	cells   []cell
	consts  map[string]ID
	vars    map[string]ID
	compTab idTable // hash-cons table for compound terms
	fresh   int     // counter for FreshVar
}

// NewStore returns an empty term store.
func NewStore() *Store {
	return &Store{
		consts: make(map[string]ID),
		vars:   make(map[string]ID),
	}
}

// Clone returns a store that holds the same terms under the same IDs and
// grows independently of s. The cells interned so far are shared, not
// copied — a cell never changes once interned, and the shared slice's
// capacity is clipped so the clone's first new term moves it to an array of
// its own — so s may be cloned from many goroutines at once as long as none
// of them interns into it any more.
func (s *Store) Clone() *Store {
	return &Store{
		cells:   slices.Clip(s.cells),
		consts:  maps.Clone(s.consts),
		vars:    maps.Clone(s.vars),
		compTab: idTable{slots: slices.Clone(s.compTab.slots), n: s.compTab.n},
		fresh:   s.fresh,
	}
}

// Len reports the number of distinct terms interned so far.
func (s *Store) Len() int { return len(s.cells) }

// Constant interns the constant with the given symbol.
func (s *Store) Constant(symbol string) ID {
	if id, ok := s.consts[symbol]; ok {
		return id
	}
	id := ID(len(s.cells))
	s.cells = append(s.cells, cell{kind: Const, name: symbol, ground: true})
	s.consts[symbol] = id
	return id
}

// Variable interns the variable with the given name.
func (s *Store) Variable(name string) ID {
	if id, ok := s.vars[name]; ok {
		return id
	}
	id := ID(len(s.cells))
	s.cells = append(s.cells, cell{kind: Var, name: name})
	s.vars[name] = id
	return id
}

// FreshVar interns a variable guaranteed not to clash with any variable
// interned so far. The prefix is cosmetic.
func (s *Store) FreshVar(prefix string) ID {
	for {
		s.fresh++
		name := fmt.Sprintf("%s_%d", prefix, s.fresh)
		if _, ok := s.vars[name]; !ok {
			return s.Variable(name)
		}
	}
}

// idTable is an open-addressing (linear probing, power-of-two sized) hash
// set of interned compound IDs keyed by (functor, args). Hashing runs over
// the argument IDs directly, so interning a compound on the join hot path
// never materializes a string key.
type idTable struct {
	slots []ID // interned IDs; None marks an empty slot
	n     int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString is FNV-1a over the bytes of s.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashIDs folds args into seed with FNV-1a and finalizes with a 64-bit
// avalanche so nearby IDs spread across the table.
func hashIDs(seed uint64, args []ID) uint64 {
	h := seed
	for _, a := range args {
		h ^= uint64(uint32(a))
		h *= fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func eqIDs(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compound interns the term functor(args...). It panics if args is empty:
// zero-ary function symbols are constants.
func (s *Store) Compound(functor string, args ...ID) ID {
	return s.Intern(functor, args)
}

// Intern interns functor(args...) without taking ownership of args: the
// slice is copied only when the term is new. It is the allocation-free form
// of Compound used on hot paths.
func (s *Store) Intern(functor string, args []ID) ID {
	if len(args) == 0 {
		panic("term: Compound with no arguments; use Constant")
	}
	if len(s.compTab.slots) == 0 {
		s.compTab.slots = make([]ID, 16)
		for i := range s.compTab.slots {
			s.compTab.slots[i] = None
		}
	}
	h := hashIDs(hashString(functor), args)
	mask := uint64(len(s.compTab.slots) - 1)
	i := h & mask
	for {
		id := s.compTab.slots[i]
		if id == None {
			break
		}
		c := &s.cells[id]
		if c.name == functor && eqIDs(c.args, args) {
			return id
		}
		i = (i + 1) & mask
	}
	ground := true
	depth := int32(0)
	for _, a := range args {
		c := &s.cells[a]
		ground = ground && c.ground
		if c.depth+1 > depth {
			depth = c.depth + 1
		}
	}
	cp := make([]ID, len(args))
	copy(cp, args)
	id := ID(len(s.cells))
	s.cells = append(s.cells, cell{kind: Comp, name: functor, args: cp, ground: ground, depth: depth})
	s.compTab.slots[i] = id
	s.compTab.n++
	if s.compTab.n*4 >= len(s.compTab.slots)*3 {
		s.growCompTab()
	}
	return id
}

// growCompTab doubles the hash-cons table and reinserts every compound.
func (s *Store) growCompTab() {
	old := s.compTab.slots
	slots := make([]ID, 2*len(old))
	for i := range slots {
		slots[i] = None
	}
	mask := uint64(len(slots) - 1)
	for _, id := range old {
		if id == None {
			continue
		}
		c := &s.cells[id]
		j := hashIDs(hashString(c.name), c.args) & mask
		for slots[j] != None {
			j = (j + 1) & mask
		}
		slots[j] = id
	}
	s.compTab.slots = slots
}

// Kind reports the kind of t.
func (s *Store) Kind(t ID) Kind { return s.cells[t].kind }

// Name returns the constant symbol, variable name or functor of t.
func (s *Store) Name(t ID) string { return s.cells[t].name }

// Args returns the argument list of a compound term, or nil for constants
// and variables. The returned slice must not be modified.
func (s *Store) Args(t ID) []ID { return s.cells[t].args }

// IsGround reports whether no variable occurs in t.
func (s *Store) IsGround(t ID) bool { return s.cells[t].ground }

// Depth returns the nesting depth of t: 0 for constants and variables,
// 1 + max over arguments for compounds. Used to bound Skolem growth.
func (s *Store) Depth(t ID) int { return int(s.cells[t].depth) }

// LookupConstant returns the ID of an already-interned constant, or None.
func (s *Store) LookupConstant(symbol string) ID {
	if id, ok := s.consts[symbol]; ok {
		return id
	}
	return None
}

// Vars appends to dst the set of distinct variables occurring in t, in
// first-occurrence order, and returns the extended slice.
func (s *Store) Vars(dst []ID, t ID) []ID {
	switch c := &s.cells[t]; c.kind {
	case Var:
		for _, v := range dst {
			if v == t {
				return dst
			}
		}
		return append(dst, t)
	case Comp:
		if c.ground {
			return dst
		}
		for _, a := range c.args {
			dst = s.Vars(dst, a)
		}
	}
	return dst
}

// String renders t in standard Datalog syntax. Variables print as their
// name; constants likewise; compounds as functor(arg, ...).
func (s *Store) String(t ID) string {
	var b strings.Builder
	s.writeTerm(&b, t)
	return b.String()
}

func (s *Store) writeTerm(b *strings.Builder, t ID) {
	c := &s.cells[t]
	b.WriteString(c.name)
	if c.kind == Comp {
		b.WriteByte('(')
		for i, a := range c.args {
			if i > 0 {
				b.WriteByte(',')
			}
			s.writeTerm(b, a)
		}
		b.WriteByte(')')
	}
}

// Compare orders two terms structurally: constants < variables < compounds,
// then by name, then lexicographically by arguments. It induces a total
// order suitable for canonical printing of relations.
func (s *Store) Compare(a, b ID) int {
	if a == b {
		return 0
	}
	ca, cb := &s.cells[a], &s.cells[b]
	if ca.kind != cb.kind {
		return int(ca.kind) - int(cb.kind)
	}
	if ca.name != cb.name {
		if ca.name < cb.name {
			return -1
		}
		return 1
	}
	if len(ca.args) != len(cb.args) {
		return len(ca.args) - len(cb.args)
	}
	for i := range ca.args {
		if c := s.Compare(ca.args[i], cb.args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// SortIDs sorts ids in the canonical structural order of the store.
func (s *Store) SortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return s.Compare(ids[i], ids[j]) < 0 })
}

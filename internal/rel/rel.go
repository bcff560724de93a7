// Package rel implements the storage layer shared by every Datalog
// evaluator in this repository: append-only relations of ground tuples
// with hash indexes built lazily per binding pattern.
//
// Relations are append-only (Datalog is monotone), so a "delta" for
// semi-naive evaluation is just a watermark pair [lo,hi) of positions: an
// index chains the positions of a key in ascending order, so a scan stops
// at hi, and a window that starts past 0 is walked in the arena itself.
//
// Tuples live in a columnar arena: one flat []term.ID buffer where tuple i
// occupies the slice [i*arity, (i+1)*arity). The full-tuple dedup set and
// the per-mask indexes are open-addressing tables hashed over the term IDs
// of the (masked) columns, so the probe path — Contains, Scan, ensureIndex
// — never materializes a string key and never allocates.
package rel

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/term"
)

// Name identifies a relation. Distributed code composes names like
// "trans@p1" or adorned names like "R#bf"; the storage layer is agnostic.
type Name string

// Relation is a set of ground tuples of a fixed arity. It is append-only;
// Insert ignores duplicates. Not safe for concurrent use — peers own their
// relations.
type Relation struct {
	arity int
	flat  []term.ID // arena; tuple i occupies flat[i*arity:(i+1)*arity]
	n     int       // number of tuples
	seen  table     // full-tuple dedup: slots hold position+1
	idx   []maskIndex
}

// table is an open-addressing (linear probing, power-of-two sized) hash
// table. Slot values are payload+1 so zero marks an empty slot.
type table struct {
	slots []int32
	n     int
}

// index is the per-mask hash index: slots map a masked-column hash to a
// key number, and the tuples whose masked columns equal that key are
// chained in position order through next, from first[key] to last[key].
// A chain costs four bytes a tuple and eight a key and no allocation of
// its own; a position slice per key cost several times that, which showed
// once delta joins probed the large supplementary relations by index.
type index struct {
	slots []int32
	first []int32 // per key; first[k] also stands for the key when comparing
	last  []int32 // per key
	next  []int32 // per absorbed tuple: the next position of its key, 0 if none (a successor is never 0)
}

// maskIndex pairs a binding mask with its index. Relations see only a
// handful of masks, so a linear scan beats a map on the probe path.
type maskIndex struct {
	mask uint64
	ix   *index
}

// New returns an empty relation of the given arity. Arity 0 is allowed and
// models propositional facts; arity must be < 64 so binding masks fit a
// word.
func New(arity int) *Relation {
	if arity < 0 || arity >= 64 {
		panic(fmt.Sprintf("rel: unsupported arity %d", arity))
	}
	return &Relation{arity: arity}
}

// Arity reports the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of distinct tuples.
func (r *Relation) Len() int { return r.n }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix finalizes a hash with a 64-bit avalanche so nearby term IDs spread
// across the table.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashTuple hashes every column of a tuple (FNV-1a over the IDs).
func hashTuple(tuple []term.ID) uint64 {
	h := uint64(fnvOffset)
	for _, t := range tuple {
		h ^= uint64(uint32(t))
		h *= fnvPrime
	}
	return mix(h)
}

// hashCols hashes the columns selected by mask.
func hashCols(tuple []term.ID, mask uint64) uint64 {
	h := uint64(fnvOffset)
	for m := mask; m != 0; m &= m - 1 {
		h ^= uint64(uint32(tuple[bits.TrailingZeros64(m)]))
		h *= fnvPrime
	}
	return mix(h)
}

func eqTuple(a, b []term.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eqCols reports whether a and b agree on the columns selected by mask.
func eqCols(a, b []term.ID, mask uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// row returns the arena view of the tuple at pos. The capped slice keeps an
// appending caller from stomping the next tuple.
func (r *Relation) row(pos int) []term.ID {
	lo, hi := pos*r.arity, (pos+1)*r.arity
	return r.flat[lo:hi:hi]
}

// fullMask is the mask selecting every column of the relation.
func (r *Relation) fullMask() uint64 {
	return (uint64(1) << uint(r.arity)) - 1
}

// Insert adds a ground tuple, returning true if it was new. The tuple is
// copied into the arena. It panics on arity mismatch.
func (r *Relation) Insert(tuple []term.ID) bool {
	_, added := r.InsertPos(tuple)
	return added
}

// InsertPos is Insert returning also the tuple's position: the existing
// position on a duplicate, the newly assigned one otherwise. Callers that
// need a stable view of the stored tuple combine it with At.
func (r *Relation) InsertPos(tuple []term.ID) (int, bool) {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("rel: arity mismatch: inserting %d-tuple into %d-ary relation", len(tuple), r.arity))
	}
	if len(r.seen.slots) == 0 {
		r.seen.slots = make([]int32, 16)
	}
	m := uint64(len(r.seen.slots) - 1)
	i := hashTuple(tuple) & m
	for {
		s := r.seen.slots[i]
		if s == 0 {
			break
		}
		if pos := int(s - 1); eqTuple(r.row(pos), tuple) {
			return pos, false
		}
		i = (i + 1) & m
	}
	pos := r.n
	r.flat = append(r.flat, tuple...)
	r.n++
	r.seen.slots[i] = int32(pos + 1)
	r.seen.n++
	if r.seen.n*4 >= len(r.seen.slots)*3 {
		r.growSeen()
	}
	return pos, true
}

// growSeen doubles the dedup table and reinserts every tuple position.
func (r *Relation) growSeen() {
	slots := make([]int32, 2*len(r.seen.slots))
	m := uint64(len(slots) - 1)
	for _, s := range r.seen.slots {
		if s == 0 {
			continue
		}
		i := hashTuple(r.row(int(s-1))) & m
		for slots[i] != 0 {
			i = (i + 1) & m
		}
		slots[i] = s
	}
	r.seen.slots = slots
}

// Contains reports whether the ground tuple is present.
func (r *Relation) Contains(tuple []term.ID) bool {
	if len(tuple) != r.arity || len(r.seen.slots) == 0 {
		return false
	}
	m := uint64(len(r.seen.slots) - 1)
	i := hashTuple(tuple) & m
	for {
		s := r.seen.slots[i]
		if s == 0 {
			return false
		}
		if eqTuple(r.row(int(s-1)), tuple) {
			return true
		}
		i = (i + 1) & m
	}
}

// At returns the tuple at position pos (insertion order). The returned
// slice is a view into the arena and must not be modified; it stays valid
// across later Inserts.
func (r *Relation) At(pos int) []term.ID { return r.row(pos) }

// ensureIndex brings the index for mask up to date with all tuples.
func (r *Relation) ensureIndex(mask uint64) *index {
	var ix *index
	for i := range r.idx {
		if r.idx[i].mask == mask {
			ix = r.idx[i].ix
			break
		}
	}
	if ix == nil {
		ix = &index{slots: make([]int32, 16)}
		r.idx = append(r.idx, maskIndex{mask: mask, ix: ix})
	}
	for pos := len(ix.next); pos < r.n; pos++ {
		r.indexInsert(ix, mask, pos)
	}
	return ix
}

// indexInsert files tuple position pos, the next one ix has not absorbed,
// under its masked-column key.
func (r *Relation) indexInsert(ix *index, mask uint64, pos int) {
	row := r.row(pos)
	ix.next = append(ix.next, 0)
	m := uint64(len(ix.slots) - 1)
	i := hashCols(row, mask) & m
	for {
		s := ix.slots[i]
		if s == 0 {
			break
		}
		k := s - 1
		if eqCols(r.row(int(ix.first[k])), row, mask) {
			ix.next[ix.last[k]] = int32(pos)
			ix.last[k] = int32(pos)
			return
		}
		i = (i + 1) & m
	}
	ix.first = append(ix.first, int32(pos))
	ix.last = append(ix.last, int32(pos))
	ix.slots[i] = int32(len(ix.first))
	if len(ix.first)*4 >= len(ix.slots)*3 {
		r.growIndex(ix, mask)
	}
}

// growIndex doubles an index's slot table and reinserts every key.
func (r *Relation) growIndex(ix *index, mask uint64) {
	slots := make([]int32, 2*len(ix.slots))
	m := uint64(len(slots) - 1)
	for k, pos := range ix.first {
		i := hashCols(r.row(int(pos)), mask) & m
		for slots[i] != 0 {
			i = (i + 1) & m
		}
		slots[i] = int32(k + 1)
	}
	ix.slots = slots
}

// lookup returns the number of the key equal to key's masked columns, or
// -1.
func (ix *index) lookup(r *Relation, mask uint64, key []term.ID) int {
	m := uint64(len(ix.slots) - 1)
	i := hashCols(key, mask) & m
	for {
		s := ix.slots[i]
		if s == 0 {
			return -1
		}
		if eqCols(r.row(int(ix.first[s-1])), key, mask) {
			return int(s - 1)
		}
		i = (i + 1) & m
	}
}

// scanLimit is the relation size up to which comparing every tuple beats
// building and probing an index; most relations of a rewritten program
// never outgrow it.
const scanLimit = 8

// Scan calls f for each tuple position in [lo,hi) whose columns selected by
// mask equal the corresponding entries of key (a full-width tuple; columns
// outside mask are ignored). Iteration stops early if f returns false.
// A zero mask scans the whole window. So does a window that starts past 0,
// comparing as it goes: such a window is a semi-naive delta, walked once,
// and an index chain cannot be entered in the middle.
func (r *Relation) Scan(mask uint64, key []term.ID, lo, hi int, f func(pos int, tuple []term.ID) bool) {
	if hi > r.n {
		hi = r.n
	}
	if lo >= hi {
		return
	}
	if mask == 0 || lo > 0 || r.n <= scanLimit {
		for pos := lo; pos < hi; pos++ {
			if row := r.row(pos); eqCols(row, key, mask) && !f(pos, row) {
				return
			}
		}
		return
	}
	ix := r.ensureIndex(mask)
	k := ix.lookup(r, mask, key)
	if k < 0 {
		return
	}
	// f may insert into r and scan it again: the chain may grow behind pos,
	// beyond hi.
	for pos := int(ix.first[k]); pos < hi; pos = int(ix.next[pos]) {
		if !f(pos, r.row(pos)) || ix.next[pos] == 0 {
			return
		}
	}
}

// All returns the tuples in insertion order as views into the arena.
// Neither the slice nor its tuples may be modified.
func (r *Relation) All() [][]term.ID {
	out := make([][]term.ID, r.n)
	for i := range out {
		out[i] = r.row(i)
	}
	return out
}

// Clone returns a relation holding the same tuples at the same positions
// that grows independently of r. The arena and the per-key first positions
// only ever grow, so they are shared up to their length (capacity clipped:
// the clone's first insert moves them); the hash tables and index chains,
// which are written in place, are copied. r may be cloned from many
// goroutines at once as long as nothing inserts into it or scans it (a scan
// may extend an index) any more.
func (r *Relation) Clone() *Relation {
	c := new(Relation)
	r.cloneInto(c)
	return c
}

func (r *Relation) cloneInto(c *Relation) {
	*c = Relation{arity: r.arity, flat: slices.Clip(r.flat), n: r.n}
	c.seen = table{slots: slices.Clone(r.seen.slots), n: r.seen.n}
	if len(r.idx) > 0 {
		c.idx = make([]maskIndex, len(r.idx))
		for i, mi := range r.idx {
			c.idx[i] = maskIndex{mask: mi.mask, ix: &index{
				slots: slices.Clone(mi.ix.slots),
				first: slices.Clip(mi.ix.first),
				last:  slices.Clone(mi.ix.last),
				next:  slices.Clone(mi.ix.next),
			}}
		}
	}
}

// Names numbers relation names densely, in first-mention order. A clone
// shares the numbering it starts from as a read-only base and records only
// the names added since, so cloning costs nothing per name: a rewritten
// program mentions thousands of relations, a session adds a handful.
type Names struct {
	base map[Name]int32 // shared with the origin of a clone; never written
	own  map[Name]int32
	list []Name
}

// Len reports how many names are numbered.
func (t *Names) Len() int { return len(t.list) }

// Name returns the name numbered i.
func (t *Names) Name(i int) Name { return t.list[i] }

// Lookup returns the number of name.
func (t *Names) Lookup(name Name) (int, bool) {
	i, ok := t.own[name]
	if !ok {
		i, ok = t.base[name]
	}
	return int(i), ok
}

// Add numbers name with the next free number. The caller has looked it up
// and not found it.
func (t *Names) Add(name Name) int {
	if t.own == nil {
		t.own = make(map[Name]int32)
	}
	i := len(t.list)
	t.own[name] = int32(i)
	t.list = append(t.list, name)
	return i
}

// Clone returns a numbering that agrees with t and grows independently of
// it. t must not be added to afterwards.
func (t *Names) Clone() Names {
	c := Names{base: t.own, list: slices.Clip(t.list)}
	if t.base != nil { // t is a clone itself: its base stays the base
		c.base, c.own = t.base, maps.Clone(t.own)
	}
	return c
}

// DB is a named collection of relations sharing one term store.
type DB struct {
	Store *term.Store
	names Names       // creation order, for deterministic dumps
	rels  []*Relation // by number
}

// NewDB returns an empty database over the given store.
func NewDB(store *term.Store) *DB {
	return &DB{Store: store}
}

// Clone returns a database over store — a clone of db's store — with a
// clone of every relation under the same name, in the same creation order.
// The relations are cut from one allocation. db may be cloned from many
// goroutines at once as long as nothing writes to it any more (see
// Relation.Clone).
func (db *DB) Clone(store *term.Store) *DB {
	c := &DB{Store: store, names: db.names.Clone(), rels: make([]*Relation, len(db.rels))}
	block := make([]Relation, len(db.rels))
	for i, r := range db.rels {
		r.cloneInto(&block[i])
		c.rels[i] = &block[i]
	}
	return c
}

// Rel returns the relation called name, creating it with the given arity on
// first use. It panics if the name exists with a different arity.
func (db *DB) Rel(name Name, arity int) *Relation {
	if i, ok := db.names.Lookup(name); ok {
		r := db.rels[i]
		if r.arity != arity {
			panic(fmt.Sprintf("rel: %s has arity %d, requested %d", name, r.arity, arity))
		}
		return r
	}
	return db.add(name, New(arity))
}

func (db *DB) add(name Name, r *Relation) *Relation {
	db.names.Add(name)
	db.rels = append(db.rels, r)
	return r
}

// Lookup returns the relation called name, or nil.
func (db *DB) Lookup(name Name) *Relation {
	if i, ok := db.names.Lookup(name); ok {
		return db.rels[i]
	}
	return nil
}

// Names returns the relation names in creation order.
func (db *DB) Names() []Name {
	return slices.Clone(db.names.list)
}

// Each visits every relation with its name, in creation order. Unlike
// Names it allocates nothing.
func (db *DB) Each(visit func(Name, *Relation)) {
	for i, r := range db.rels {
		visit(db.names.list[i], r)
	}
}

// FactCount returns the total number of tuples across all relations — the
// materialization metric used throughout the experiments.
func (db *DB) FactCount() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Dump renders the database deterministically, one fact per line, sorted by
// relation name then tuple order, for golden tests and CLI output.
func (db *DB) Dump() string {
	names := db.Names()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	var b strings.Builder
	for _, n := range names {
		r := db.Lookup(n)
		lines := make([]string, 0, r.Len())
		for _, tup := range r.All() {
			lines = append(lines, formatFact(db.Store, n, tup))
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func formatFact(s *term.Store, n Name, tuple []term.ID) string {
	var b strings.Builder
	b.WriteString(string(n))
	b.WriteByte('(')
	for i, t := range tuple {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String(t))
	}
	b.WriteByte(')')
	return b.String()
}

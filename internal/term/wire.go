package term

import (
	"fmt"
	"strings"
)

// Extern is the store-independent form of a tuple of terms, used to ship
// facts and rules between processes (the peers of one engine share its Store
// and exchange IDs). It preserves the sharing of the hash-consed
// representation: nodes are listed once, in an order where arguments precede
// their users, so encoding and decoding are linear in the DAG size even for
// terms whose tree expansion is exponential (deep Skolem terms of the
// unfolding programs).
type Extern struct {
	Nodes []ExternNode
	Roots []int32 // indexes into Nodes, one per tuple column
}

// ExternNode is one shared term node.
type ExternNode struct {
	Kind Kind
	Name string
	Args []int32 // indexes of earlier nodes; nil unless Kind == Comp
}

// externInline is how many nodes an encoding indexes within its own stack
// frame; a fact tuple's DAG is rarely larger. The store carries no encoding
// scratch: it is externalized from by whoever holds it (its peer, an
// activation hook, the session building its messages).
const externInline = 128

// externSlot is one entry of the open-addressing table, always at most
// half full, from the terms already listed to their node numbers.
type externSlot struct {
	id   ID
	node int32 // number + 1, so the zero slot is empty
}

func externHash(t ID, size int) int {
	return int(uint32(t)*2654435761>>7) & (size - 1)
}

// externNode returns the node number tab holds for t, or -1.
func externNode(tab []externSlot, t ID) int32 {
	for i := externHash(t, len(tab)); ; i = (i + 1) & (len(tab) - 1) {
		if sl := tab[i]; sl.node == 0 {
			return -1
		} else if sl.id == t {
			return sl.node - 1
		}
	}
}

func externPut(tab []externSlot, t ID, node int32) {
	i := externHash(t, len(tab))
	for tab[i].node != 0 {
		i = (i + 1) & (len(tab) - 1)
	}
	tab[i] = externSlot{t, node + 1}
}

// externOrder appends to ids the nodes of t not yet listed, arguments
// before their users, and indexes them in tab, which moves to the heap and
// doubles whenever it would get more than half full.
func (s *Store) externOrder(ids []ID, tab []externSlot, t ID) ([]ID, []externSlot) {
	if externNode(tab, t) >= 0 {
		return ids, tab
	}
	for _, a := range s.cells[t].args {
		ids, tab = s.externOrder(ids, tab, a)
	}
	if 2*len(ids) >= len(tab) {
		tab = make([]externSlot, 2*len(tab))
		for i, id := range ids {
			externPut(tab, id, int32(i))
		}
	}
	externPut(tab, t, int32(len(ids)))
	return append(ids, t), tab
}

// ExternalizeTuple encodes a tuple of terms. The result is two
// allocations whatever the tuple: the nodes, and one array that Roots and
// every node's Args are cut from.
func (s *Store) ExternalizeTuple(tuple []ID) Extern {
	if len(tuple) == 0 {
		return Extern{}
	}
	var idbuf [externInline]ID
	var tabbuf [2 * externInline]externSlot
	ids, tab := idbuf[:0], tabbuf[:]
	for _, t := range tuple {
		ids, tab = s.externOrder(ids, tab, t)
	}
	nrefs := len(tuple)
	for _, t := range ids {
		nrefs += len(s.cells[t].args)
	}
	refs := make([]int32, nrefs)
	cut := func(n int) []int32 {
		out := refs[:n:n]
		refs = refs[n:]
		return out
	}
	e := Extern{Nodes: make([]ExternNode, len(ids)), Roots: cut(len(tuple))}
	for i, t := range tuple {
		e.Roots[i] = externNode(tab, t)
	}
	for i, t := range ids {
		c := &s.cells[t]
		n := &e.Nodes[i]
		n.Kind, n.Name = c.kind, c.name
		if c.kind == Comp {
			n.Args = cut(len(c.args))
			for j, a := range c.args {
				n.Args[j] = externNode(tab, a)
			}
		}
	}
	return e
}

// WalkExtern visits what ExternalizeTuple(tuple) would hold without building
// it: node is called once per node, in listing order, with the term it
// encodes, and ref once per reference — each argument of the node just
// listed, then each root — with the number of the node referred to. Nothing
// is allocated for a DAG of at most externInline nodes. It is what a codec
// needs to size an encoding.
func (s *Store) WalkExtern(tuple []ID, node func(t ID), ref func(n int32)) {
	var idbuf [externInline]ID
	var tabbuf [2 * externInline]externSlot
	ids, tab := idbuf[:0], tabbuf[:]
	for _, t := range tuple {
		ids, tab = s.externOrder(ids, tab, t)
	}
	for _, t := range ids {
		node(t)
		for _, a := range s.cells[t].args {
			ref(externNode(tab, a))
		}
	}
	for _, t := range tuple {
		ref(externNode(tab, t))
	}
}

// Externalize encodes a single term.
func (s *Store) Externalize(t ID) Extern {
	return s.ExternalizeTuple([]ID{t})
}

// InternalizeTuple interns the encoded tuple into s and returns the local
// IDs of its columns.
func (s *Store) InternalizeTuple(e Extern) []ID {
	ids := make([]ID, len(e.Nodes))
	for i, n := range e.Nodes {
		switch n.Kind {
		case Const:
			ids[i] = s.Constant(n.Name)
		case Var:
			ids[i] = s.Variable(n.Name)
		case Comp:
			args := make([]ID, len(n.Args))
			for j, a := range n.Args {
				if a >= int32(i) {
					panic(fmt.Sprintf("term: extern node %d references later node %d", i, a))
				}
				args[j] = ids[a]
			}
			ids[i] = s.Compound(n.Name, args...)
		default:
			panic(fmt.Sprintf("term: bad extern kind %v", n.Kind))
		}
	}
	out := make([]ID, len(e.Roots))
	for i, r := range e.Roots {
		out[i] = ids[r]
	}
	return out
}

// Internalize interns a single encoded term.
func (s *Store) Internalize(e Extern) ID {
	ids := s.InternalizeTuple(e)
	if len(ids) != 1 {
		panic(fmt.Sprintf("term: Internalize on %d-root extern", len(ids)))
	}
	return ids[0]
}

// String renders the first root in Datalog syntax (tree-expanded; intended
// for small terms and debugging).
func (e Extern) String() string {
	if len(e.Roots) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	e.write(&b, e.Roots[0])
	return b.String()
}

func (e Extern) write(b *strings.Builder, i int32) {
	n := e.Nodes[i]
	b.WriteString(n.Name)
	if n.Kind == Comp {
		b.WriteByte('(')
		for j, a := range n.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			e.write(b, a)
		}
		b.WriteByte(')')
	}
}

package term

// Bindings is a substitution from variables to terms with an undo trail, so
// join loops can bind, descend and backtrack without reallocating. A
// variable is bound at most once; bindings never form chains because Bind
// resolves its value argument first.
//
// Bindings live in a dense slice indexed by variable ID rather than a map:
// the join hot path does a lookup, a bind and an undo per probed tuple, and
// flat-array access keeps all three allocation-free.
type Bindings struct {
	s     *Store
	vals  []ID // vals[v] = bound term of variable v, or None if unbound
	trail []ID
	rbuf  []ID // scratch stack for Resolve's rebuilt argument lists
}

// NewBindings returns an empty substitution over the given store.
func NewBindings(s *Store) *Bindings {
	return &Bindings{s: s}
}

// Len reports the number of bound variables.
func (b *Bindings) Len() int { return len(b.trail) }

// Mark returns an opaque position in the trail; passing it to Undo removes
// every binding made since.
func (b *Bindings) Mark() int { return len(b.trail) }

// Undo removes all bindings recorded after mark.
func (b *Bindings) Undo(mark int) {
	for len(b.trail) > mark {
		v := b.trail[len(b.trail)-1]
		b.trail = b.trail[:len(b.trail)-1]
		b.vals[v] = None
	}
}

// Reset removes every binding.
func (b *Bindings) Reset() {
	b.Undo(0)
}

// Lookup returns the binding of variable v, or None if unbound.
func (b *Bindings) Lookup(v ID) ID { return b.lookup(v) }

func (b *Bindings) lookup(v ID) ID {
	if int(v) < len(b.vals) {
		return b.vals[v]
	}
	return None
}

// set records v := t on the trail, growing vals on demand. Growth targets
// the store size so a warm Bindings stops growing once every variable in
// play has an ID below len(vals).
func (b *Bindings) set(v, t ID) {
	if int(v) >= len(b.vals) {
		n := b.s.Len()
		if n <= int(v) {
			n = int(v) + 1
		}
		for len(b.vals) < n {
			b.vals = append(b.vals, None)
		}
	}
	b.vals[v] = t
	b.trail = append(b.trail, v)
}

// Bind records v := t (t is resolved through the current bindings first).
// It panics if v is not a variable or is already bound; callers check with
// Lookup or use Match/Unify.
func (b *Bindings) Bind(v, t ID) {
	if b.s.Kind(v) != Var {
		panic("term: Bind on non-variable " + b.s.String(v))
	}
	if b.lookup(v) != None {
		panic("term: Bind on already-bound variable " + b.s.String(v))
	}
	b.set(v, b.Resolve(t))
}

// Resolve applies the substitution to t, rebuilding compound terms as
// needed. Unbound variables stay put.
func (b *Bindings) Resolve(t ID) ID {
	s := b.s
	c := &s.cells[t]
	switch c.kind {
	case Const:
		return t
	case Var:
		if u := b.lookup(t); u != None {
			return u
		}
		return t
	default:
		if c.ground {
			return t
		}
		// Interning below may grow s.cells; copy the fields we need first.
		name, args := c.name, c.args
		mark := len(b.rbuf)
		changed := false
		for _, a := range args {
			ra := b.Resolve(a)
			changed = changed || ra != a
			b.rbuf = append(b.rbuf, ra)
		}
		if !changed {
			b.rbuf = b.rbuf[:mark]
			return t
		}
		id := s.Intern(name, b.rbuf[mark:])
		b.rbuf = b.rbuf[:mark]
		return id
	}
}

// Match attempts one-way matching of pattern against a ground term: only
// variables of the pattern may be bound. On failure the bindings are
// restored to their state at entry. The ground argument must be ground.
func (b *Bindings) Match(pattern, ground ID) bool {
	mark := b.Mark()
	if b.match(pattern, ground) {
		return true
	}
	b.Undo(mark)
	return false
}

func (b *Bindings) match(pattern, ground ID) bool {
	s := b.s
	pc := &s.cells[pattern]
	switch pc.kind {
	case Const:
		return pattern == ground
	case Var:
		if t := b.lookup(pattern); t != None {
			return t == ground
		}
		b.set(pattern, ground)
		return true
	default:
		if pc.ground {
			return pattern == ground
		}
		gc := &s.cells[ground]
		if gc.kind != Comp || gc.name != pc.name || len(gc.args) != len(pc.args) {
			return false
		}
		for i := range pc.args {
			if !b.match(pc.args[i], gc.args[i]) {
				return false
			}
		}
		return true
	}
}

// Unify attempts full unification of a and b under the current bindings,
// with occurs-check. On failure the bindings are restored.
func (b *Bindings) Unify(x, y ID) bool {
	mark := b.Mark()
	if b.unify(x, y, mark) {
		return true
	}
	b.Undo(mark)
	return false
}

// unify binds variables from trail position mark on.
func (b *Bindings) unify(x, y ID, mark int) bool {
	x, y = b.walk(x), b.walk(y)
	if x == y {
		return true
	}
	s := b.s
	xc, yc := &s.cells[x], &s.cells[y]
	switch {
	case xc.kind == Var:
		t := b.Resolve(y)
		if b.occurs(x, t) {
			return false
		}
		// x may occur in the value of a variable this unification bound
		// earlier (Z := f(x), now x := a). Resolve follows one binding, not
		// chains, so substitute there: while no value mentions a bound
		// variable, t above is fully resolved and the occurs check exact.
		b.set(x, t)
		for _, v := range b.trail[mark : len(b.trail)-1] {
			b.vals[v] = b.Resolve(b.vals[v])
		}
		return true
	case yc.kind == Var:
		return b.unify(y, x, mark)
	case xc.kind == Comp && yc.kind == Comp:
		if xc.name != yc.name || len(xc.args) != len(yc.args) {
			return false
		}
		for i := range xc.args {
			if !b.unify(xc.args[i], yc.args[i], mark) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// walk follows a variable to its binding, if any.
func (b *Bindings) walk(t ID) ID {
	for b.s.Kind(t) == Var {
		u := b.lookup(t)
		if u == None {
			return t
		}
		t = u
	}
	return t
}

// occurs reports whether variable v occurs in t (after resolution).
func (b *Bindings) occurs(v, t ID) bool {
	c := &b.s.cells[t]
	switch c.kind {
	case Var:
		return t == v
	case Comp:
		if c.ground {
			return false
		}
		for _, a := range c.args {
			if b.occurs(v, a) {
				return true
			}
		}
	}
	return false
}

package ddatalog

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/term"
	"repro/internal/wire"
)

// The messages exchanged by the naive distributed evaluation (Section
// 3.2) are the wire package's payload types — wire.Activate (a peer
// activates a remote relation and thereby subscribes to its tuple
// stream), wire.Facts (the owner streams every current and future tuple
// back), wire.Inject (an incremental base-fact append), and wire.Install
// (runtime rule installation) — so the same evaluation runs unchanged
// whether its peers share a process or are spread across peerd nodes.
//
// Between two peers hosted by one engine the last three carry term IDs of
// the store the engine's peers share, not the wire form: the sender's arena
// view of the tuple, the rule as it stands. They report the size of the wire
// payload they stand for (dist.Local), so the byte counters do not depend on
// where a program's peers run: a fact's, sent by the thousand, from a walk of
// the store; a rule's or an injected fact's from the encoder.

type facts struct {
	qual  rel.Name
	tuple []term.ID
	size  int
}

type inject struct {
	rel   rel.Name
	tuple []term.ID
	size  int
}

type install struct {
	rule PRule
	size int
}

func (m facts) Wire() (string, int)   { return "wire.Facts", m.size }
func (m inject) Wire() (string, int)  { return "wire.Inject", m.size }
func (m install) Wire() (string, int) { return "wire.Install", m.size }

// Stats summarizes a distributed run.
type Stats struct {
	Net        dist.Stats
	Derived    int // tuples materialized at their owner peer
	Replicated int // remote tuples copied into subscriber replicas
	Truncated  bool
	Reason     string
}

// Engine evaluates a distributed program naively. Create with NewEngine,
// evaluate with Run, then inspect per-peer databases with PeerDB.
//
// An engine is re-entrant: Run (and RunDelta, which also injects new
// facts and rules) may be called repeatedly, each call evaluating on a
// fresh network while keeping every peer's materialized state warm. This
// is the substrate for incremental diagnosis sessions: round k+1 only
// derives what round k did not already materialize. Calls must not
// overlap; after a run fails (budget, timeout), the warm state is safe to
// read but further runs are best-effort.
//
// An engine has one term store, the program's: the hosted peers' relations,
// the collector's answers, and what RunDelta and the hook are handed are all
// interned in it. Handlers run one at a time (see dist), so nothing in an
// engine is locked.
type Engine struct {
	store     *term.Store
	budget    datalog.Budget
	peers     map[dist.PeerID]*peerState
	order     []dist.PeerID
	progPeers map[dist.PeerID]bool // all program peers, hosted here or not
	// netFactory builds the per-round network; nil means dist.NewNetwork
	// (single process). A cluster driver installs its round constructor.
	netFactory func() dist.Net
	collects   bool // the round under way hosts the answer collector (a cluster member's does not)
	derived    int  // global fact counter for the budget
	aborted    bool // set when the budget trips; stops in-handler work
	hook       ActivationHook
	tracer     obs.Tracer // never nil; obs.Nop by default
	traceOn    bool       // tracer.Enabled() snapshot, set per run
	// Cumulative figures after the previous run, so each RunDelta can
	// emit the run's own delta as counter events.
	lastDerived    int
	lastReplicated int
	lastInstalled  int
	// The collector persists across runs so that answers accumulated in
	// earlier rounds remain extractable in later ones.
	colDB *rel.DB
	// origin is the engine this one was cloned from, nil if none.
	origin *Engine
}

// peerState is the private state of one peer: only its own handler turns
// touch it.
type peerState struct {
	eng *Engine
	id  dist.PeerID
	db  *rel.DB
	// k matches every rule body evaluated at this peer; its continuation is
	// ps.emit, which needs the handler turn in progress (ctx) to send and the
	// head relation of the rule being joined.
	k       datalog.Kernel
	ctx     *dist.Context
	joining *relState
	// The hosted rules are shared followed by rules: a cloned engine reads
	// the rules its origin had in place — a hosted rule never changes — and
	// numbers its own after them.
	shared []hostedRule
	rules  []hostedRule
	// names numbers the qualified relation names the peer has met; rels holds
	// each one's state under its number, which is also the relation's slot in
	// k and in the peer's compiled rules.
	names      rel.Names
	rels       []*relState
	pending    []pendingFact // derived facts awaiting their delta joins
	derived    int
	replicated int
	installed  int // rules installed at runtime (hook or wire.Install)
}

// relState is what a peer keeps per qualified relation, local or remote.
// Rules and queued facts point at it, so the per-fact path never hashes a
// relation name.
type relState struct {
	q           rel.Name
	slot        int           // its number in peerState.rels
	arity       int           // -1 until a rule, fact or message fixes it
	active      bool          // local relation activated
	requested   bool          // remote relation already activated
	hooked      bool          // activation hook already ran
	derived     int           // facts derived into it while tracing, and how many of
	reported    int           // them earlier runs' trace counters have covered
	derivedName string        // "derived <q>", the counter they are traced as, built once
	subs        []dist.PeerID // subscribers, in registration order
	defs        []int         // hosted rules deriving into it
	occs        []ruleAt      // occurrences in hosted rule bodies
}

// hostedRule is one rule of a peer's program: the located form it arrived
// in (activation routing, Fingerprint), the kernel's compiled form over
// qualified relation names, so the join never rebuilds a "rel@peer" name
// or re-hashes one, and the number of its head relation. All three are
// immutable, and relations are numbered alike in an engine and its clones,
// so the clones share one copy.
type hostedRule struct {
	PRule
	c    *datalog.CompiledRule
	head int
}

// newPeerState returns the state of peer id of e, whose relations db holds.
func newPeerState(e *Engine, id dist.PeerID, db *rel.DB) *peerState {
	ps := &peerState{eng: e, id: id, db: db}
	ps.k = datalog.Kernel{DB: db, Bnd: term.NewBindings(e.store), MaxTermDepth: e.budget.MaxTermDepth, Emit: ps.emit}
	return ps
}

// rel returns the state of qualified relation q, creating it on first
// mention.
func (ps *peerState) rel(q rel.Name) *relState {
	if i, ok := ps.names.Lookup(q); ok {
		return ps.rels[i]
	}
	rs := &relState{q: q, slot: ps.names.Add(q), arity: -1}
	ps.rels = append(ps.rels, rs)
	return rs
}

// relOfArity is rel for a mention that fixes the arity.
func (ps *peerState) relOfArity(q rel.Name, n int) *relState {
	rs := ps.rel(q)
	if rs.arity >= 0 && rs.arity != n {
		panic(fmt.Sprintf("ddatalog: relation %s used with arities %d and %d", q, rs.arity, n))
	}
	rs.arity = n
	return rs
}

// table returns the stored relation of rs, creating it in the peer's
// database on first use.
func (ps *peerState) table(rs *relState) *rel.Relation {
	return ps.k.Rel(rs.slot, rs.q, rs.arity)
}

// host appends r to the peer's program, indexing it under its head and body
// relations, and returns its rule index. A peer hosts thousands of rules per
// net, so the atoms handed to the compiler stay on the stack (dQSQ bodies
// have at most three); the compiled rule shares r's argument and constraint
// slices, and every atom keeps the relation's one name string, not its own
// copy.
func (ps *peerState) host(r PRule) int {
	ri := ps.numRules()
	slotted := func(a PAtom) (*relState, datalog.CompiledAtom) {
		rs := ps.relOfArity(a.Qualified(), len(a.Args))
		return rs, datalog.CompiledAtom{Atom: datalog.Atom{Rel: rs.q, Args: a.Args}, Slot: rs.slot}
	}
	head, chead := slotted(r.Head)
	head.defs = append(head.defs, ri)
	var buf [4]datalog.CompiledAtom
	body := buf[:0]
	for ai, a := range r.Body {
		rs, ca := slotted(a)
		rs.occs = append(rs.occs, ruleAt{rule: ri, atom: ai})
		body = append(body, ca)
	}
	c := datalog.CompileSlotted(ps.eng.store, chead, body, r.Neqs)
	ps.rules = append(ps.rules, hostedRule{r, c, head.slot})
	return ri
}

func (ps *peerState) numRules() int { return len(ps.shared) + len(ps.rules) }

// rule returns hosted rule ri.
func (ps *peerState) rule(ri int) *hostedRule {
	if ri < len(ps.shared) {
		return &ps.shared[ri]
	}
	return &ps.rules[ri-len(ps.shared)]
}

// join evaluates hosted rule ri starting from body atom entry (see
// datalog.Kernel.Join).
func (ps *peerState) join(ri, entry int, pinned []term.ID) {
	r := ps.rule(ri)
	ps.joining = ps.rels[r.head]
	ps.k.Join(r.c, nil, entry, pinned)
}

// pendingFact is a newly materialized fact whose delta joins have not run
// yet. Derivations are queued rather than evaluated recursively so that a
// rule never re-enters the join machinery (and its variable bindings)
// while a previous instantiation is still on the stack.
type pendingFact struct {
	rel  *relState
	args []term.ID
}

type ruleAt struct {
	rule int // see peerState.rule
	atom int // body position
}

// NewEngine prepares a naive distributed evaluation of prog under budget,
// hosting every peer of the program.
func NewEngine(prog *Program, budget datalog.Budget) (*Engine, error) {
	return NewEngineHosted(prog, budget, nil)
}

// NewEngineHosted prepares an evaluation that hosts only the given subset
// of the program's peers — one member node of a multi-process cluster.
// Every node of the cluster builds the engine from the identical program
// (the program construction is deterministic, so shipping the system
// description and rebuilding locally yields the same rules everywhere)
// and hosts a disjoint subset; messages between peers on different nodes
// travel through the cluster's routed network. nil hosted means all
// peers. In a cluster the fact budget is enforced per node: each node
// aborts when its own share of materialized facts exceeds MaxFacts, and
// the abort propagates cluster-wide through the coordinator.
func NewEngineHosted(prog *Program, budget datalog.Budget, hosted []dist.PeerID) (*Engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if budget.MaxFacts == 0 {
		budget.MaxFacts = datalog.DefaultBudget.MaxFacts
	}
	e := &Engine{
		store:     prog.Store,
		budget:    budget,
		peers:     make(map[dist.PeerID]*peerState),
		progPeers: make(map[dist.PeerID]bool),
		tracer:    obs.Nop,
		colDB:     rel.NewDB(prog.Store),
	}
	hostHere := func(id dist.PeerID) bool { return true }
	if hosted != nil {
		set := make(map[dist.PeerID]bool, len(hosted))
		for _, id := range hosted {
			set[id] = true
		}
		hostHere = func(id dist.PeerID) bool { return set[id] }
	}
	for _, id := range prog.Peers() {
		e.progPeers[id] = true
		if !hostHere(id) {
			continue
		}
		e.peers[id] = newPeerState(e, id, rel.NewDB(e.store))
		e.order = append(e.order, id)
	}

	// Hand rules and facts to their hosts. Those of peers hosted elsewhere
	// are simply skipped: their node does the same and keeps its own share.
	for _, r := range prog.Rules {
		if ps := e.peers[r.Head.Peer]; ps != nil {
			ps.host(r)
		}
	}
	for _, f := range prog.Facts {
		if ps := e.peers[f.Peer]; ps != nil {
			ps.table(ps.relOfArity(f.Qualified(), len(f.Args))).Insert(f.Args)
		}
	}
	return e, nil
}

// hosts reports whether messages to id stay inside this engine.
func (e *Engine) hosts(id dist.PeerID) bool {
	return e.peers[id] != nil || id == collectorID && e.collects
}

// installMsg is the payload that delivers rule r to its host, and injectMsg
// the one that delivers base fact f to its owner: in wire form only if the
// destination is hosted elsewhere.
func (e *Engine) installMsg(r PRule) any {
	w := wire.Install{Rule: externRule(e.store, r)}
	if e.hosts(r.Head.Peer) {
		size, _ := wire.PayloadSize(w)
		return install{r, size}
	}
	return w
}

func (e *Engine) injectMsg(f PAtom) any {
	w := wire.Inject{Rel: f.Rel, Tuple: e.store.ExternalizeTuple(f.Args)}
	if e.hosts(f.Peer) {
		size, _ := wire.PayloadSize(w)
		return inject{f.Rel, f.Args, size}
	}
	return w
}

// handle processes one network message for the peer. A message in wire form
// came from another process: its terms are interned here, on the goroutine
// the engine's handlers take turns on, and nowhere else.
func (ps *peerState) handle(ctx *dist.Context, m dist.Message) {
	ps.ctx = ctx
	store := ps.eng.store
	switch msg := m.Payload.(type) {
	case wire.Activate:
		ps.activateLocal(ctx, msg.Rel, m.From)
	case install:
		ps.installRule(ctx, msg.rule)
	case wire.Install:
		ps.installRule(ctx, internRule(store, msg.Rule))
	case facts:
		ps.replicate(msg.qual, msg.tuple)
	case wire.Facts:
		ps.replicate(msg.Qual, store.InternalizeTuple(msg.Tuple))
	case inject:
		ps.inject(ctx, msg.rel, msg.tuple)
	case wire.Inject:
		ps.inject(ctx, msg.Rel, store.InternalizeTuple(msg.Tuple))
	default:
		panic(fmt.Sprintf("ddatalog: unknown message %T", m.Payload))
	}
	ps.drain(ctx)
	ps.ctx = nil // or the run's network and its delivered messages outlive the run
}

// replicate stores a tuple of a relation this peer subscribed to and queues
// its delta joins.
func (ps *peerState) replicate(qual rel.Name, tuple []term.ID) {
	rs := ps.relOfArity(qual, len(tuple))
	relation := ps.table(rs)
	if pos, added := relation.InsertPos(tuple); added {
		ps.replicated++
		ps.pending = append(ps.pending, pendingFact{rel: rs, args: relation.At(pos)})
	}
}

// inject takes a base fact arriving at its owner mid-session (an
// incremental append): it is derived like a rule head, so it reaches
// subscribers and triggers delta joins.
func (ps *peerState) inject(ctx *dist.Context, r rel.Name, tuple []term.ID) {
	ps.derive(ctx, ps.relOfArity(Qualify(r, ps.id), len(tuple)), tuple)
}

// drain runs the delta joins of every pending fact until none remain.
// On a divergent program this loop is where facts pile up, so it is also
// where a budget abort must take effect: network aborts stop message
// delivery but cannot interrupt a handler. The queue is consumed by index
// and what an abort leaves is moved to its front, so its backing array is
// reused from turn to turn; the consumed entries are cleared because their
// tuple views would keep outgrown arenas alive.
func (ps *peerState) drain(ctx *dist.Context) {
	done := 0
	for ; done < len(ps.pending) && !ps.eng.aborted && !ctx.Stopped(); done++ {
		ps.deltaJoin(ps.pending[done])
	}
	left := copy(ps.pending, ps.pending[done:])
	clear(ps.pending[left:])
	ps.pending = ps.pending[:left]
}

// activateLocal activates relation r (owned by this peer) and subscribes
// subscriber (unless it is the pseudo-peer marker ""). Activation recurses
// into the body relations of every defining rule — remote ones via
// wire.Activate, local ones directly.
func (ps *peerState) activateLocal(ctx *dist.Context, r rel.Name, subscriber dist.PeerID) {
	rs := ps.rel(Qualify(r, ps.id))
	if subscriber != "" && subscriber != ps.id {
		if !slices.Contains(rs.subs, subscriber) {
			rs.subs = append(rs.subs, subscriber)
			// Stream everything known so far.
			if relation := ps.db.Lookup(rs.q); relation != nil {
				newcomer := rs.subs[len(rs.subs)-1:]
				relation.Scan(0, nil, 0, relation.Len(), func(_ int, tuple []term.ID) bool {
					ps.stream(ctx, rs, tuple, newcomer)
					return true
				})
			}
		}
	}
	if rs.active {
		return
	}
	// The rules hosted so far are evaluated below; those the hook or a
	// nested activation installs from here on, by installRule.
	defs := rs.defs
	rs.active = true
	ps.runHook(ctx, r, rs)
	if rs.arity >= 0 {
		ps.table(rs) // ensure the relation exists even if empty
	}
	for _, ri := range defs {
		for _, a := range ps.rule(ri).Body {
			ps.activateBody(ctx, a)
		}
		// Initial full evaluation of the newly activated rule.
		ps.join(ri, -1, nil)
	}
}

func (ps *peerState) activateBody(ctx *dist.Context, a PAtom) {
	if a.Peer == ps.id {
		ps.activateLocal(ctx, a.Rel, "")
		return
	}
	if rs := ps.rel(a.Qualified()); !rs.requested {
		rs.requested = true
		ctx.Send(a.Peer, wire.Activate{Rel: a.Rel})
	}
}

// deltaJoin re-evaluates every hosted rule that uses f's relation in its
// body, starting from that occurrence matched to the new tuple; the other
// atoms probe their local replicas.
func (ps *peerState) deltaJoin(f pendingFact) {
	for _, occ := range f.rel.occs {
		if ps.rels[ps.rule(occ.rule).head].active {
			ps.join(occ.rule, occ.atom, f.args)
		}
	}
}

// emit is the kernel's continuation: it materializes the head of a
// satisfied rule body and propagates it. head is the kernel's reusable
// buffer; derive copies it into the relation's arena before anything
// retains it.
func (ps *peerState) emit(_ *datalog.CompiledRule, head []term.ID) bool {
	ps.derive(ps.ctx, ps.joining, head)
	return true
}

// derive inserts a locally owned fact, forwards it to subscribers and
// queues its local delta joins. The args slice may be a reusable buffer:
// every retained reference (pending queue, subscriber streams) uses the
// relation's own arena view instead.
func (ps *peerState) derive(ctx *dist.Context, rs *relState, args []term.ID) {
	relation := ps.table(rs)
	pos, added := relation.InsertPos(args)
	if !added {
		return
	}
	stored := relation.At(pos)
	ps.derived++
	if ps.eng.traceOn {
		rs.derived++
	}
	ps.eng.derived++
	if ps.eng.derived > ps.eng.budget.MaxFacts {
		ps.eng.aborted = true
		ctx.Abort(fmt.Errorf("%w: more than %d facts", datalog.ErrBudget, ps.eng.budget.MaxFacts))
		return
	}
	ps.stream(ctx, rs, stored, rs.subs)
	ps.pending = append(ps.pending, pendingFact{rel: rs, args: stored})
}

// stream sends a stored tuple of rs to each of subs: as it stands to those
// this engine hosts, in wire form to the others. Either form is built, and
// sized, once however many receive it.
func (ps *peerState) stream(ctx *dist.Context, rs *relState, tuple []term.ID, subs []dist.PeerID) {
	var local, remote any
	for _, sub := range subs {
		if ps.eng.hosts(sub) {
			if local == nil {
				local = facts{rs.q, tuple, wire.FactsSize(ps.eng.store, rs.q, tuple)}
			}
			ctx.Send(sub, local)
		} else {
			if remote == nil {
				remote = wire.Facts{Qual: rs.q, Arity: len(tuple), Tuple: ps.eng.store.ExternalizeTuple(tuple)}
			}
			ctx.Send(sub, remote)
		}
	}
}

// collectorID is the synthetic peer that receives the query's answers.
const collectorID dist.PeerID = "§collector"

// Result of a distributed run.
type Result struct {
	// Answers are the query-variable bindings, deduplicated, in
	// first-occurrence order of the query's variables, interned in Store.
	Answers [][]term.ID
	// Store interns the answers (the engine's store).
	Store *term.Store
	Stats Stats
}

// SetTracer installs the engine's tracer (obs.Nop when t is nil). It is
// threaded into each run's network, so every RunDelta gets per-peer spans
// and message-hop flow events for free; the engine adds its own counters
// (facts derived, facts replicated, rules installed, per-head-relation
// detail) at the end of each run. Must not be called during a run.
func (e *Engine) SetTracer(t obs.Tracer) {
	e.tracer = obs.Or(t)
}

// SetNetFactory installs the constructor for each run's network. A
// cluster driver uses this to evaluate over routed member nodes instead
// of the default in-process dist.NewNetwork. Must not be called during a
// run.
func (e *Engine) SetNetFactory(f func() dist.Net) {
	e.netFactory = f
}

// RunMember participates in one evaluation round as a cluster member: it
// registers the hosted peers on the member-side network and blocks until
// the driver stops the round (or the timeout trips). The driver seeds the
// round; members only react. Returns the node's local network stats.
func (e *Engine) RunMember(net dist.Net, timeout time.Duration) (dist.Stats, error) {
	e.collects = false
	e.traceOn = e.tracer.Enabled()
	net.SetTracer(e.tracer)
	for _, id := range e.order {
		ps := e.peers[id]
		net.AddPeer(id, ps.handle)
	}
	stats, err := net.Run(nil, timeout)
	if e.traceOn {
		// Emit this round's materialization as deltas, mirroring the
		// driver's finishRun, so a member's /metrics carries the same
		// cumulative engine series as the driver's.
		derived, replicated := e.Totals()
		if d := derived - e.lastDerived; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_facts_derived_total", int64(d))
		}
		if d := replicated - e.lastReplicated; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_facts_replicated_total", int64(d))
		}
		e.lastDerived, e.lastReplicated = derived, replicated
	}
	return stats, err
}

// Totals reports the cumulative materialization counters of the hosted
// peers — a member node's contribution to the cluster-wide Derived and
// Replicated stats. Must not be called during a run.
func (e *Engine) Totals() (derived, replicated int) {
	for _, id := range e.order {
		ps := e.peers[id]
		derived += ps.derived
		replicated += ps.replicated
	}
	return derived, replicated
}

// JoinCounts reports the hosted peers' cumulative kernel counters: stored
// tuples their joins probed and body matches those found (see
// datalog.Kernel). Must not be called during a run.
func (e *Engine) JoinCounts() (probes, attempts int) {
	for _, id := range e.order {
		k := &e.peers[id].k
		probes += k.Probes
		attempts += k.Attempts
	}
	return probes, attempts
}

// finishRun emits the run's engine counters (as per-run deltas, so a
// metrics sink accumulates them into cumulative totals) and rolls the
// cumulative snapshots forward.
func (e *Engine) finishRun(res *Result) {
	installed := 0
	for _, id := range e.order {
		installed += e.peers[id].installed
	}
	if e.traceOn {
		e.tracer.Counter("ddatalog", "ddatalog_facts_derived_total", int64(res.Stats.Derived-e.lastDerived))
		e.tracer.Counter("ddatalog", "ddatalog_facts_replicated_total", int64(res.Stats.Replicated-e.lastReplicated))
		if d := installed - e.lastInstalled; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_rules_installed_total", int64(d))
		}
		// Per-head-relation derivation counts: display-only names (the
		// space keeps them out of /metrics — unbounded cardinality).
		for _, id := range e.order {
			for _, rs := range e.peers[id].rels {
				if d := rs.derived - rs.reported; d > 0 {
					if rs.derivedName == "" {
						rs.derivedName = "derived " + string(rs.q)
					}
					e.tracer.Counter("ddatalog", rs.derivedName, int64(d))
					rs.reported = rs.derived
				}
			}
		}
	}
	e.lastDerived = res.Stats.Derived
	e.lastReplicated = res.Stats.Replicated
	e.lastInstalled = installed
}

// Run evaluates the program for the located query atom q: the collector
// activates q's relation at q's peer, the network runs to quiescence, and
// the tuples matching the query pattern are extracted. A zero timeout
// means one minute.
func (e *Engine) Run(q PAtom, timeout time.Duration) (*Result, error) {
	return e.RunDelta(q, nil, nil, timeout)
}

// RunDelta re-enters evaluation: it injects new base facts (delivered to
// their owner peers, forwarded to subscribers, delta-joined) and new rules
// (installed at their host peers), then evaluates q on a fresh network
// over the warm per-peer state of earlier runs. Facts and rules must be
// built over the engine's program store. Stats are cumulative across
// runs: Derived and Replicated count everything materialized since
// NewEngine, which is what incremental sessions report.
func (e *Engine) RunDelta(q PAtom, facts []PAtom, rules []PRule, timeout time.Duration) (*Result, error) {
	if !e.progPeers[q.Peer] {
		return nil, fmt.Errorf("ddatalog: query peer %q not in program", q.Peer)
	}
	if e.tracer.Enabled() {
		sp := e.tracer.Begin("ddatalog", fmt.Sprintf("run %s", q.Qualified()))
		defer sp.End()
	}
	initial := make([]dist.Message, 0, len(facts)+len(rules)+1)
	for _, r := range rules {
		if !e.progPeers[r.Head.Peer] {
			return nil, fmt.Errorf("ddatalog: rule host %q not in program", r.Head.Peer)
		}
		initial = append(initial, dist.Message{From: collectorID, To: r.Head.Peer, Payload: e.installMsg(r)})
	}
	for _, f := range facts {
		if !e.progPeers[f.Peer] {
			return nil, fmt.Errorf("ddatalog: fact owner %q not in program", f.Peer)
		}
		initial = append(initial, dist.Message{From: collectorID, To: f.Peer, Payload: e.injectMsg(f)})
	}
	initial = append(initial, dist.Message{From: collectorID, To: q.Peer, Payload: wire.Activate{Rel: q.Rel}})

	res, err := e.round(initial, timeout)
	if err != nil {
		return res, err
	}
	// Extract answers by matching the query pattern against the collected
	// relation.
	res.Answers = datalog.Answers(e.colDB, e.store, datalog.Atom{Rel: q.Qualified(), Args: q.Args})
	return res, nil
}

// round delivers initial on a fresh network over the hosted peers and the
// answer collector, runs it to quiescence and reports the engine's
// cumulative stats.
func (e *Engine) round(initial []dist.Message, timeout time.Duration) (*Result, error) {
	e.collects = true
	e.traceOn = e.tracer.Enabled()
	var net dist.Net
	if e.netFactory != nil {
		net = e.netFactory()
	} else {
		net = dist.NewNetwork()
	}
	net.SetTracer(e.tracer)
	for _, id := range e.order {
		ps := e.peers[id]
		net.AddPeer(id, ps.handle)
	}
	net.AddPeer(collectorID, func(ctx *dist.Context, m dist.Message) {
		switch msg := m.Payload.(type) {
		case facts:
			e.colDB.Rel(msg.qual, len(msg.tuple)).Insert(msg.tuple)
		case wire.Facts:
			e.colDB.Rel(msg.Qual, msg.Arity).Insert(e.store.InternalizeTuple(msg.Tuple))
		}
	})

	netStats, err := net.Run(initial, timeout)

	res := &Result{Store: e.store}
	res.Stats.Net = netStats
	for _, id := range e.order {
		ps := e.peers[id]
		res.Stats.Derived += ps.derived
		res.Stats.Replicated += ps.replicated
	}
	// In a cluster, the member nodes' shares of the materialization
	// arrive with their end-of-round reports.
	if ce, ok := net.(interface{ ClusterExtras() map[string]uint64 }); ok {
		extras := ce.ClusterExtras()
		res.Stats.Derived += int(extras["derived"])
		res.Stats.Replicated += int(extras["replicated"])
	}
	e.finishRun(res)
	if err != nil {
		res.Stats.Truncated = true
		res.Stats.Reason = err.Error()
	}
	return res, err
}

// PeerDB exposes a peer's database after Run has returned — used by tests
// and by the materialization metrics. It must not be called concurrently
// with Run.
func (e *Engine) PeerDB(id dist.PeerID) *rel.DB {
	ps := e.peers[id]
	if ps == nil {
		return nil
	}
	return ps.db
}

// Peers returns the program's peer IDs in first-mention order.
func (e *Engine) Peers() []dist.PeerID {
	out := make([]dist.PeerID, len(e.order))
	copy(out, e.order)
	return out
}

// PeerStore exposes the term store a hosted peer's tuples are interned in —
// the engine's — after Run has returned.
func (e *Engine) PeerStore(id dist.PeerID) *term.Store {
	if e.peers[id] == nil {
		return nil
	}
	return e.store
}

// Rules exposes the compiled form of the rules a peer hosts, in hosting
// order, after Run has returned. The rules themselves are immutable.
func (e *Engine) Rules(id dist.PeerID) []*datalog.CompiledRule {
	ps := e.peers[id]
	if ps == nil {
		return nil
	}
	out := make([]*datalog.CompiledRule, ps.numRules())
	for ri := range out {
		out[ri] = ps.rule(ri).c
	}
	return out
}

// Run is the one-call convenience wrapper: build an engine and evaluate q.
func Run(prog *Program, q PAtom, budget datalog.Budget, timeout time.Duration) (*Result, *Engine, error) {
	if err := prog.CheckQuery(q); err != nil {
		return nil, nil, err
	}
	e, err := NewEngine(prog, budget)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(q, timeout)
	return res, e, err
}

package dqsq

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/adorn"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/term"
)

// This file implements online dQSQ — the paper's Remark 2: "The dQSQ
// computation, and the generation of results, may start even before the
// rewriting is complete. This property is especially important in the
// context of the Web where the number of sites transitively involved in a
// computation may be too large to explore exhaustively."
//
// Instead of rewriting the whole program up front, the network starts
// with the extensional facts only. The first time an adorned relation
// R#ad is activated at its peer — i.e. the first time a subquery actually
// reaches that peer — the peer rewrites its own rules for that adornment,
// installs the local portions into its running program, and ships the
// delegated portions to their hosts as rule-install messages. Evaluation
// and rewriting interleave freely; quiescence detection is unchanged.

// TraceEntry records one lazy rewriting step.
type TraceEntry struct {
	Peer dist.PeerID
	Key  adorn.Key
}

// OnlineTrace is the order in which peers performed their rewritings. Like
// the session it belongs to, it is read between queries, not during one.
type OnlineTrace struct {
	Entries []TraceEntry
}

func (tr *OnlineTrace) add(peer dist.PeerID, key adorn.Key) {
	tr.Entries = append(tr.Entries, TraceEntry{Peer: peer, Key: key})
}

// Snapshot returns a copy of the entries recorded so far.
func (tr *OnlineTrace) Snapshot() []TraceEntry {
	return append([]TraceEntry(nil), tr.Entries...)
}

// splitAdorned splits an adorned answer-relation name "R#bf" into the base
// relation and adornment. Supplementary and input relations return false:
// only answer-relation activations trigger rewriting.
func splitAdorned(name rel.Name) (rel.Name, adorn.Adornment, bool) {
	s := string(name)
	if strings.HasPrefix(s, "sup.") || strings.HasPrefix(s, "in-") {
		return "", "", false
	}
	i := strings.LastIndex(s, "#")
	if i < 0 {
		return "", "", false
	}
	return rel.Name(s[:i]), adorn.Adornment(s[i+1:]), true
}

// OnlineSession is a long-lived online dQSQ evaluation: the per-peer lazy
// rewriters and the distributed engine stay warm between queries, so a
// supervisor can extend the program — new extensional facts (alarms), new
// rules — and re-query, paying only for the frontier the extension opens
// up. This is the paper's Remark 2 machinery turned into a service
// substrate: "the dQSQ computation, and the generation of results, may
// start even before the rewriting is complete" — here it also continues
// after the first answers have been served.
//
// What a session holds splits three ways. Per program: the rules, the base
// facts and — because both Figure 5's rewriting and the engine's activation
// follow rule bodies, never data — the whole rewritten, compiled program a
// query shape reaches; Prime builds that once and Clone hands it out, so
// the sessions of one program share it read-only. Per session: the term
// store, relation arenas, activation and subscription state, counters. Per
// query: the facts derived, and the rewriting of rules extended in since or
// of a binding pattern no earlier query opened.
//
// Sessions are not safe for concurrent use; callers serialize Extend and
// Query (internal/serve wraps one mutex per session).
type OnlineSession struct {
	prog      *ddatalog.Program
	eng       *ddatalog.Engine
	trace     *OnlineTrace
	tracer    obs.Tracer // never nil; obs.Nop by default
	rewriters map[dist.PeerID]*peerRewriter
	pending   []ddatalog.PAtom // base-fact appends queued for the next Query
	origin    *OnlineSession   // the session this one was cloned from, nil if none
}

// NewOnlineSession prepares a session over prog: the engine starts with
// the extensional facts only; every rule arrives at runtime through the
// lazy-rewriting activation hook. The budget is the session's lifetime
// fact budget — once exhausted, every later Query fails.
func NewOnlineSession(prog *ddatalog.Program, budget datalog.Budget) (*OnlineSession, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := prog.Store

	base := ddatalog.NewProgram(s)
	base.Facts = append(base.Facts, prog.Facts...)
	for _, id := range prog.Peers() {
		base.AddPeer(id) // rules arrive at runtime; every peer must exist
	}

	// Per-peer rewriters over the original program, exactly as in the
	// static path; the network replaces the static request driver.
	rewriters := make(map[dist.PeerID]*peerRewriter)
	for _, id := range prog.Peers() {
		rewriters[id] = &peerRewriter{
			id:       id,
			place:    PlaceAtData,
			store:    s,
			hasRules: make(map[rel.Name]bool),
			facts:    make(map[rel.Name][][]term.ID),
			done:     make(map[adorn.Key]bool),
			out:      ddatalog.NewProgram(s), // per-call buffer, drained by the hook
		}
	}
	for _, r := range prog.Rules {
		pr := rewriters[r.Head.Peer]
		pr.rules = append(pr.rules, r)
		pr.hasRules[r.Head.Rel] = true
	}
	for _, f := range prog.Facts {
		pr := rewriters[f.Peer]
		pr.facts[f.Rel] = append(pr.facts[f.Rel], f.Args)
	}

	sess := &OnlineSession{prog: prog, rewriters: rewriters, trace: &OnlineTrace{}, tracer: obs.Nop}
	eng, err := ddatalog.NewEngine(base, budget)
	if err != nil {
		return nil, err
	}
	sess.eng = eng
	sess.installHook()
	return sess, nil
}

// installHook installs the lazy-rewriting activation hook on the session's
// engine: at construction and on every clone, since the hook is a closure
// over the session it serves.
func (sess *OnlineSession) installHook() {
	sess.eng.SetActivationHook(func(peer dist.PeerID, relName rel.Name) []ddatalog.PRule {
		baseRel, adr, ok := splitAdorned(relName)
		if !ok {
			return nil
		}
		pr := sess.rewriters[peer]
		if pr == nil {
			return nil
		}
		key := adorn.Key{Rel: baseRel, Ad: adr}
		if pr.done[key] {
			return nil
		}
		// The engine copies the rules out before the hook runs again, so one
		// buffer serves every call.
		pr.out.Rules = pr.out.Rules[:0]
		pr.handle(key) // follow-up requests are ignored: activation drives them
		rules := pr.out.Rules
		if len(rules) > 0 {
			sess.trace.add(peer, key)
			sess.tracer.Counter("dqsq", "dqsq_subqueries_total", 1)
			if sess.tracer.Enabled() {
				sess.tracer.Instant(string(peer), "subquery "+string(key.Rel)+"#"+string(key.Ad))
			}
		}
		return rules
	})
}

// Prime opens q, an atom over a relation with rules and no argument bound,
// as the session's standing query: its input relation is seeded and the
// session evaluated, which rewrites, installs and activates, transitively
// at every peer, the rules q's all-free adornment reaches, and derives what
// the base facts already imply. From then on every Query of q's relation
// reads that adornment, whatever constants it carries (see Query): facts
// extended in later flow as deltas through rules already in place, and a
// query rewrites nothing. A primed session is what Clone is for.
func (s *OnlineSession) Prime(q ddatalog.PAtom, timeout time.Duration) error {
	pr, ok := s.rewriters[q.Peer]
	if !ok {
		return errUnknownPeer(q.Peer)
	}
	free := adorn.AllFree(len(q.Args))
	if !pr.hasRules[q.Rel] || adorn.Compute(s.prog.Store, adorn.VarSet{}, q.Args) != free {
		return fmt.Errorf("dqsq: standing query %s@%s must be intensional with every argument free", q.Rel, q.Peer)
	}
	_, err := s.Query(q, timeout)
	return err
}

// Clone returns a session in s's state that evolves independently of it,
// under its own lifetime fact budget (see ddatalog.Engine.Clone: what s
// derived counts against it, and the trace and counters continue from
// s's). Rules, compiled rules and base facts are shared with s; the store,
// relations and activation state are copied. s must not be extended or
// queried afterwards — its clones keep reading it — and may be cloned from
// many goroutines at once.
func (s *OnlineSession) Clone(budget datalog.Budget) *OnlineSession {
	store := s.prog.Store.Clone()
	c := &OnlineSession{
		prog:      s.prog.Clone(store),
		eng:       s.eng.Clone(store, budget),
		trace:     &OnlineTrace{Entries: slices.Clip(s.trace.Entries)},
		tracer:    obs.Nop,
		rewriters: make(map[dist.PeerID]*peerRewriter, len(s.rewriters)),
		pending:   slices.Clip(s.pending),
		origin:    s,
	}
	for id, pr := range s.rewriters {
		c.rewriters[id] = &peerRewriter{
			id:       pr.id,
			place:    pr.place,
			store:    store,
			rules:    slices.Clip(pr.rules),
			hasRules: maps.Clone(pr.hasRules),
			facts:    pr.facts, // base facts only: never written after construction
			done:     maps.Clone(pr.done),
			keys:     slices.Clip(pr.keys),
			out:      ddatalog.NewProgram(store),
		}
	}
	c.installHook()
	return c
}

// Extend grows the running program: facts are extensional appends
// (delivered to their owners on the next Query), rules join their host
// peer's rewriter and are rewritten lazily when their head relation is
// first activated. A rule whose head relation has already been queried
// under some adornment is not re-rewritten for it — extend with fresh
// (e.g. versioned) head relations instead. Terms must come from the
// session program's store. Not safe concurrently with Query.
func (s *OnlineSession) Extend(facts []ddatalog.PAtom, rules []ddatalog.PRule) error {
	for _, r := range rules {
		pr, ok := s.rewriters[r.Head.Peer]
		if !ok {
			return errUnknownPeer(r.Head.Peer)
		}
		pr.rules = append(pr.rules, r)
		pr.hasRules[r.Head.Rel] = true
	}
	for _, f := range facts {
		if _, ok := s.rewriters[f.Peer]; !ok {
			return errUnknownPeer(f.Peer)
		}
		s.pending = append(s.pending, f)
	}
	return nil
}

// Query evaluates the located atom q over the warm session state,
// injecting any facts queued by Extend first. Repeated queries (same or
// different atoms) reuse everything already materialized; Stats are
// cumulative over the session's lifetime. A query of a relation the session
// already evaluates with every argument free — a standing query, see Prime —
// reads that adornment, its constants selecting the answers by index probe,
// instead of opening a subquery under the binding pattern they would give.
func (s *OnlineSession) Query(q ddatalog.PAtom, timeout time.Duration) (*Result, error) {
	st := s.prog.Store
	injects := s.pending
	s.pending = nil

	qr, ok := s.rewriters[q.Peer]
	if !ok {
		return nil, errUnknownPeer(q.Peer)
	}
	queryAtom := q
	if qr.hasRules[q.Rel] {
		// Intensional query: seed the in-relation and ask for the adorned
		// answers (re-seeding an already-known in-fact deduplicates away).
		ad := adorn.AllFree(len(q.Args))
		if !qr.done[adorn.Key{Rel: q.Rel, Ad: ad}] {
			ad = adorn.Compute(st, adorn.VarSet{}, q.Args)
		}
		injects = append(injects, ddatalog.PAtom{
			Rel: adorn.InputName(q.Rel, ad), Peer: q.Peer,
			Args: adorn.BoundArgs(ad, q.Args),
		})
		queryAtom = ddatalog.PAtom{Rel: adorn.Name(q.Rel, ad), Peer: q.Peer, Args: q.Args}
	}
	res, err := s.eng.RunDelta(queryAtom, injects, nil, timeout)
	if res == nil {
		return nil, err
	}
	emitSupStats(s.tracer, s.eng)
	return &Result{Answers: res.Answers, Store: res.Store, Stats: res.Stats, Engine: s.eng}, err
}

// Trace returns the session's lazy-rewriting trace.
func (s *OnlineSession) Trace() *OnlineTrace { return s.trace }

// Engine exposes the warm engine for materialization metrics.
func (s *OnlineSession) Engine() *ddatalog.Engine { return s.eng }

// Program exposes the program the session was opened on, whose store the
// session interns in. Extensions do not grow it.
func (s *OnlineSession) Program() *ddatalog.Program { return s.prog }

// RunOnline evaluates prog for q with lazy per-peer rewriting. It returns
// the same answers as Run (Theorem 1 extends: the installed program is
// identical, only its arrival order differs) plus the rewriting trace.
func RunOnline(prog *ddatalog.Program, q ddatalog.PAtom, budget datalog.Budget, timeout time.Duration) (*Result, *OnlineTrace, error) {
	if err := prog.CheckQuery(q); err != nil {
		return nil, nil, err
	}
	sess, err := NewOnlineSession(prog, budget)
	if err != nil {
		return nil, nil, err
	}
	res, err := sess.Query(q, timeout)
	if res == nil {
		return nil, sess.trace, err
	}
	return res, sess.trace, err
}

func errUnknownPeer(p dist.PeerID) error {
	return &unknownPeerError{peer: p}
}

type unknownPeerError struct{ peer dist.PeerID }

func (e *unknownPeerError) Error() string {
	return "dqsq: query peer \"" + string(e.peer) + "\" not in program"
}

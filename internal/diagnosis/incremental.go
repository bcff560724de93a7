package diagnosis

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/obs"
	"repro/internal/petri"
)

// This file implements the online supervisor: the paper's setting is
// inherently incremental — "the supervisor ... receives alarms one at a
// time" (Section 2) — and Remark 2 observes that dQSQ evaluation may
// interleave with rewriting. OnlineDiagnoser turns that into a long-lived
// handle: alarms are appended one (or a few) at a time, and each append
// extends the already-materialized unfolding prefix instead of re-running
// the whole diagnosis.
//
// The incremental encoding differs from BuildDiagnosisProgram in two ways:
//
//   - The k-ary configPrefixes index ranges over EVERY net peer (sorted),
//     not just the peers that happen to emit in the sequence — the arity
//     must not change as alarms arrive. Peers that never emit keep their
//     index column pinned at position 0 by an inert extension rule.
//
//   - The completion query stands: q(z, i_1…i_k) :- configPrefixes(z, w,
//     y, i_1…i_k), cut(z, m) is asked once, with every argument free, when
//     the net's template is built. An append only injects its
//     alarmSeq facts: semi-naive deltas extend the configurations whose
//     index reached the alarm's position, and nothing is rewritten or
//     installed. The diagnoses after n alarms are the standing answers
//     whose index columns hold the final positions of the n-alarm prefix,
//     read by index probe.
//
// What is built when:
//
//   - Per net, once per process (template.go): Prog(N,M), the supervisor's
//     rules and the standing query, their dQSQ rewriting, the compiled
//     rules and join plans hosted at every peer, and the activation,
//     subscription and alarm-free derivations they leave. The first session
//     of a net pays for it; it is immutable afterwards and shared.
//   - Per session (NewOnlineDiagnoser): a clone — its own term store,
//     relation arenas, activation flags and counters, starting from the
//     template's; the rules are the template's own.
//   - Per append: the alarm facts and whatever they derive over the warm
//     prefix.
type OnlineDiagnoser struct {
	pn     *petri.PetriNet // original net (diagnosis names are reported on it)
	tmpl   *template       // the template sess is a clone of
	sess   *dqsq.OnlineSession
	counts map[petri.Peer]int
	seq    alarm.Seq
	last   *Report
	broken error      // first evaluation failure; poisons every later Append
	tracer obs.Tracer // never nil; obs.Nop by default
	// built is the open span of the net's template build, if this create was
	// the one that ran it; SetTracer ends it.
	built obs.Span
}

// ErrPoisoned wraps every Append after an evaluation failure: once a
// query has timed out (or the engine otherwise failed mid-evaluation),
// the queued alarm facts may have been partially injected into the warm
// distributed state, so no later answer over this session is trustworthy.
// Callers open a fresh diagnoser and replay the sequence.
var ErrPoisoned = errors.New("diagnosis: online session poisoned by earlier failure")

// indexPeers returns every peer of the net, sorted — the fixed k-ary
// index order of the incremental supervisor program.
func indexPeers(pn *petri.PetriNet) []petri.Peer {
	peers := append([]petri.Peer(nil), pn.Net.Peers()...)
	slices.Sort(peers)
	return peers
}

// hasPeer reports whether peer is one of the net's.
func (d *OnlineDiagnoser) hasPeer(peer petri.Peer) bool {
	_, ok := slices.BinarySearch(d.tmpl.peers, peer)
	return ok
}

// NewOnlineDiagnoser opens a session on pn: a clone of the net's template
// (see template.go), which the first session of a net builds and the
// process-wide program cache keeps for the later ones. The budget bounds
// the session's lifetime fact count; once exhausted, every later Append
// fails with datalog.ErrBudget.
func NewOnlineDiagnoser(pn *petri.PetriNet, budget datalog.Budget) (*OnlineDiagnoser, error) {
	t, built, err := cachedTemplate(pn, budget.MaxTermDepth)
	if err != nil {
		return nil, err
	}
	d := t.session(pn, budget)
	d.built = built
	return d, nil
}

// SetTracer installs the diagnoser's tracer (obs.Nop when t is nil) and
// threads it through the warm dQSQ session and its engine: each Append
// gets a span on the "diagnosis" track, the unfolding-node count is
// sampled as a gauge after every evaluation, and the session contributes
// its subquery/engine/network events. Call before the first Append.
func (d *OnlineDiagnoser) SetTracer(t obs.Tracer) {
	d.tracer = obs.Or(t)
	d.sess.SetTracer(d.tracer)
	if !d.built.Start.IsZero() && d.tracer.Enabled() {
		// This create built its net's template, before it had a tracer to
		// report to: say where its time went now.
		d.tracer.End(d.built)
		d.built = obs.Span{}
	}
}

// SetParallelism does nothing: evaluation is sequential. It is kept until
// bench/ stops calling it.
func (d *OnlineDiagnoser) SetParallelism(int) {}

// Session exposes the warm dQSQ session (materialization totals, engine
// inspection). The caller must not run queries on it concurrently with
// Append.
func (d *OnlineDiagnoser) Session() *dqsq.OnlineSession { return d.sess }

// Seq returns the alarms appended so far.
func (d *OnlineDiagnoser) Seq() alarm.Seq {
	return append(alarm.Seq(nil), d.seq...)
}

// Report returns the report of the last Append (nil before the first).
func (d *OnlineDiagnoser) Report() *Report { return d.last }

// Poisoned returns the evaluation failure that poisoned the session, or
// nil while the session is healthy.
func (d *OnlineDiagnoser) Poisoned() error { return d.broken }

// Append extends the observed sequence and returns the diagnosis of the
// full sequence so far. The report's materialization metrics (TransFacts,
// PlaceFacts, Derived) are cumulative over the session — the substance of
// incrementality is that they grow by the new frontier only. A zero
// timeout means one minute.
//
// Append is transactional on the diagnoser's durable state: counts and seq
// commit only after the query succeeds, so a failed append never leaves Seq
// claiming alarms the evaluation did not cover. The warm engine itself
// cannot be rolled back — a timed-out query may have partially injected the
// new alarm facts — so an evaluation failure poisons the session: every
// later Append fails with ErrPoisoned.
func (d *OnlineDiagnoser) Append(batch []alarm.Obs, timeout time.Duration) (*Report, error) {
	if d.broken != nil {
		return nil, fmt.Errorf("%w: %v", ErrPoisoned, d.broken)
	}
	s := d.sess.Program().Store
	counts := make(map[petri.Peer]int, len(d.counts))
	for p, n := range d.counts {
		counts[p] = n
	}
	var facts []ddatalog.PAtom
	for _, o := range batch {
		if !d.hasPeer(o.Peer) {
			return nil, fmt.Errorf("diagnosis: alarm from unknown peer %q", o.Peer)
		}
		i := counts[o.Peer]
		facts = append(facts, ddatalog.At(RelAlarmSeq, SupervisorPeer,
			s.Constant(idxConst(o.Peer, i)),
			s.Constant(string(o.Alarm)),
			s.Constant(string(o.Peer)),
			s.Constant(idxConst(o.Peer, i+1)),
		))
		counts[o.Peer] = i + 1
	}
	if err := d.sess.Extend(facts, nil); err != nil {
		d.broken = err
		return nil, err
	}

	start := time.Now()
	var sp obs.Span
	if d.tracer.Enabled() {
		sp = d.tracer.Begin("diagnosis", fmt.Sprintf("append (%d alarms)", len(batch)))
	}
	res, err := d.sess.Query(answers(s, d.tmpl.peers, counts), timeout)
	sp.End()
	if err != nil {
		d.broken = err
		return nil, err
	}
	d.counts = counts
	d.seq = append(d.seq, batch...)
	rep := &Report{
		Engine:    EngineDQSQ,
		Diagnoses: ExtractDiagnoses(res.Store, res.Answers, true),
		Derived:   res.Stats.Derived,
		Truncated: res.Stats.Truncated,
		Elapsed:   time.Since(start),
	}
	if d.last != nil {
		rep.Messages = d.last.Messages
	}
	rep.Messages += res.Stats.Net.MessagesSent
	rep.TransFacts, rep.PlaceFacts = countNodes(res.Engine)
	d.tracer.Gauge("diagnosis", "diagnosis_unfolding_nodes", int64(rep.TransFacts+rep.PlaceFacts))
	d.last = rep
	return rep, nil
}

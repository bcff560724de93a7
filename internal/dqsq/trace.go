package dqsq

import (
	"strings"
	"time"

	"repro/internal/adorn"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
)

// This file threads an obs.Tracer through both dQSQ paths. Subqueries —
// the adorned-relation requests that drive the rewriting — become one
// instant event each on the requested peer's track plus the
// dqsq_subqueries_total counter; supplementary-relation sizes are sampled
// after each evaluation as gauges (dqsq_sup_tuples globally, a
// display-only per-peer breakdown in the trace).

// RunWith is Run with a tracer: the rewriting gets its own span, the
// static subquery set is replayed as trace events, the engine and its
// network are instrumented, and supplementary sizes are sampled after the
// run. A nil tracer behaves exactly like Run.
func RunWith(prog *ddatalog.Program, q ddatalog.PAtom, budget datalog.Budget, timeout time.Duration, tr obs.Tracer) (*Result, error) {
	tr = obs.Or(tr)
	var sp obs.Span
	if tr.Enabled() {
		sp = tr.Begin("dqsq", "rewrite "+string(q.Rel))
	}
	rw, err := Rewrite(prog, q)
	sp.End()
	if err != nil {
		return nil, err
	}
	emitSubqueries(tr, rw.KeysByPeer)
	eng, err := ddatalog.NewEngine(rw.Program, budget)
	if err != nil {
		return nil, err
	}
	eng.SetTracer(tr)
	res, err := eng.Run(rw.Query, timeout)
	if res == nil {
		return nil, err
	}
	emitSupStats(tr, eng)
	return &Result{Answers: res.Answers, Store: res.Store, Stats: res.Stats, Engine: eng}, err
}

// SetTracer installs the session tracer (obs.Nop when t is nil): the
// engine and every per-query network inherit it, lazy rewritings emit
// subquery events, and Query samples supplementary sizes. Must be called
// before the first Query; activation hooks read it unsynchronized.
func (s *OnlineSession) SetTracer(t obs.Tracer) {
	s.tracer = obs.Or(t)
	s.eng.SetTracer(s.tracer)
}

// emitSubqueries replays a static rewriting's subquery set as events.
func emitSubqueries(tr obs.Tracer, keys map[dist.PeerID][]adorn.Key) {
	total := 0
	for peer, ks := range keys {
		total += len(ks)
		if tr.Enabled() {
			for _, k := range ks {
				tr.Instant(string(peer), "subquery "+string(k.Rel)+"#"+string(k.Ad))
			}
		}
	}
	if total > 0 {
		tr.Counter("dqsq", "dqsq_subqueries_total", int64(total))
	}
}

// emitSupStats samples the size of every supplementary relation
// materialized so far: the global dqsq_sup_tuples gauge, plus a
// display-only per-peer breakdown (space in the name keeps it out of
// /metrics). Must only run between evaluations — it reads peer databases.
func emitSupStats(tr obs.Tracer, eng *ddatalog.Engine) {
	if !tr.Enabled() {
		return
	}
	total := 0
	for _, id := range eng.Peers() {
		n := 0
		eng.PeerDB(id).Each(func(name rel.Name, r *rel.Relation) {
			if strings.HasPrefix(string(name), "sup.") {
				n += r.Len()
			}
		})
		if n > 0 {
			tr.Gauge(string(id), "sup tuples", int64(n))
		}
		total += n
	}
	tr.Gauge("dqsq", "dqsq_sup_tuples", int64(total))
}

package core

import (
	"time"

	"repro/internal/alarm"
	"repro/internal/diagnosis"
)

// ErrPoisoned wraps every Append on a DQSQ handle after an evaluation
// failure (e.g. a timeout): the warm engine state is ambiguous, so the
// handle refuses to serve further answers. See diagnosis.ErrPoisoned.
var ErrPoisoned = diagnosis.ErrPoisoned

// Incremental is a long-lived diagnosis handle: alarms are appended as
// the supervisor observes them, and after every append the handle holds
// the diagnosis of the whole sequence so far.
//
// For the DQSQ engine the handle is genuinely incremental: it keeps a
// warm online dQSQ session (the paper's Remark 2 machinery), so append
// k+1 extends the already-materialized unfolding prefix instead of
// re-running from scratch. The session is a clone of its net's rewritten,
// compiled program, which the first handle on a net builds and the
// process keeps (see diagnosis.NewOnlineDiagnoser). The other engines
// re-evaluate the accumulated sequence on each append, but reuse the
// parsed, safety-checked net and keep the previous report for delta
// inspection.
//
// An Incremental is not safe for concurrent use; callers serialize
// access (internal/serve wraps one mutex per session).
type Incremental struct {
	sys    *System
	engine Engine
	opt    Options
	online *diagnosis.OnlineDiagnoser // DQSQ only
	seq    alarm.Seq
	last   *Report
	broken error // poisoned-at-checkpoint marker on restored DQSQ handles
}

// NewIncremental opens an incremental diagnosis handle on the system.
// opt.Budget bounds the session's lifetime for the DQSQ engine (each
// append shares one warm evaluation) and each re-evaluation for the
// other engines.
func (s *System) NewIncremental(engine Engine, opt Options) (*Incremental, error) {
	inc := &Incremental{sys: s, engine: engine, opt: opt}
	if engine == DQSQ {
		d, err := diagnosis.NewOnlineDiagnoser(s.PN, opt.Budget)
		if err != nil {
			return nil, err
		}
		// The other engines pick opt.Tracer up per-Diagnose; the warm
		// session needs it installed once, up front.
		d.SetTracer(opt.Tracer)
		inc.online = d
	}
	return inc, nil
}

// ProgramCacheStats reports the process-wide per-net program cache behind
// DQSQ handles: creates that found their net's rewritten, compiled program
// cached, creates that had to build it, and the programs held now.
func ProgramCacheStats() (hits, misses uint64, entries int) {
	return diagnosis.ProgramCacheStats()
}

// Engine returns the handle's engine.
func (inc *Incremental) Engine() Engine { return inc.engine }

// System returns the system the handle diagnoses (restored handles carry
// the net re-parsed from the snapshot's embedded text).
func (inc *Incremental) System() *System { return inc.sys }

// Seq returns the alarms appended so far.
func (inc *Incremental) Seq() alarm.Seq {
	if inc.online != nil {
		return inc.online.Seq()
	}
	return append(alarm.Seq(nil), inc.seq...)
}

// Report returns the report of the last Append (nil before the first).
func (inc *Incremental) Report() *Report {
	if inc.online != nil {
		return inc.online.Report()
	}
	return inc.last
}

// Derived returns the facts the DQSQ handle's warm session has derived
// so far, counted as its Report's Derived is: a fresh handle already holds
// its template's alarm-free derivations. It is 0 for the other engines,
// which re-evaluate from scratch.
func (inc *Incremental) Derived() (derived int) {
	if inc.online != nil {
		derived, _ = inc.online.Session().Engine().Totals()
	}
	return derived
}

// Append extends the observed sequence and returns the diagnosis of the
// full sequence so far. A zero timeout falls back to the handle's
// Options.Timeout.
func (inc *Incremental) Append(obs []alarm.Obs, timeout time.Duration) (*Report, error) {
	if inc.broken != nil {
		return nil, inc.broken
	}
	if timeout <= 0 {
		timeout = inc.opt.Timeout
	}
	if inc.online != nil {
		return inc.online.Append(obs, timeout)
	}
	seq := append(append(alarm.Seq(nil), inc.seq...), obs...)
	opt := inc.opt
	opt.Timeout = timeout
	rep, err := inc.sys.Diagnose(seq, inc.engine, opt)
	if err != nil {
		return nil, err
	}
	inc.seq = seq
	inc.last = rep
	return rep, nil
}

package core

import (
	"fmt"
	"time"

	"repro/internal/datalog"
	"repro/internal/diagnosis"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snapnames"
)

// Incremental handles checkpoint to a snapshot file and restore from
// one. Two forms exist:
//
//   - Full form (healthy DQSQ handles): the warm online-dQSQ session is
//     serialized as what it added past its net's template — the template's
//     fingerprint, then the terms, tuples and counters past it — plus the
//     diagnoser's sequence, counts and last report. Restore clones the
//     net's cached template (building it on the process's first restore of
//     the net) and appends the rest, and the handle continues exactly
//     where it stopped: identical diagnoses, derived counts and message
//     counts on every later append.
//
//   - Meta form (re-evaluating engines, or a poisoned DQSQ handle): only
//     the observed sequence and the last report are kept. Re-evaluating
//     engines lose nothing — they recompute from the sequence on each
//     append anyway. A poisoned DQSQ handle restores still poisoned: its
//     warm state was not trustworthy when it died, so the checkpoint
//     never pretends otherwise.
//
// The net itself travels as text (parser.FormatNet) inside the meta
// section; parsing and padding are deterministic, so the restored
// structures match the snapshot exactly.

// snapshotConsumer tags core.Incremental checkpoints (a serve session
// checkpoint embeds one), so a container written for anything else is
// rejected early.
const snapshotConsumer = "core.incremental"

// EncodeSnapshot writes the handle into f.
func (inc *Incremental) EncodeSnapshot(f *snapshot.File) error {
	full := inc.online != nil && inc.online.Poisoned() == nil
	w := f.Section(snapnames.Meta)
	w.String(snapshotConsumer)
	w.Uvarint(uint64(inc.engine))
	w.String(parser.FormatNet(inc.sys.PN))
	// Options, minus the tracer (runtime-only; re-attach with SetTracer).
	w.Uvarint(uint64(inc.opt.Budget.MaxFacts))
	w.Uvarint(uint64(inc.opt.Budget.MaxIters))
	w.Uvarint(uint64(inc.opt.Budget.MaxTermDepth))
	w.Int(int64(inc.opt.Timeout))
	w.Uvarint(uint64(inc.opt.MaxEvents))
	w.Uvarint(uint64(inc.opt.Direct.MaxSilent))
	w.Uvarint(uint64(inc.opt.Direct.MaxAlarms))
	w.Bool(full)
	if full {
		return inc.online.EncodeSnapshot(f)
	}
	rw := f.Section(snapnames.Report)
	var poison string
	if inc.online != nil {
		poison = inc.online.Poisoned().Error()
	} else if inc.broken != nil {
		poison = inc.broken.Error()
	}
	rw.String(poison)
	diagnosis.EncodeSeqSnapshot(rw, inc.Seq())
	diagnosis.EncodeReportSnapshot(rw, inc.Report())
	return nil
}

// DecodeIncremental restores a handle from a snapshot. The net is
// re-parsed and safety-checked from the embedded text; full-form
// snapshots then rebuild the warm dQSQ session, meta-form snapshots
// re-seat the sequence and last report.
func DecodeIncremental(o *snapshot.OpenFile) (*Incremental, error) {
	r, err := o.Section(snapnames.Meta)
	if err != nil {
		return nil, err
	}
	if c := r.String(); r.Err() == nil && c != snapshotConsumer {
		return nil, fmt.Errorf("%w: snapshot holds %q, not a %s checkpoint", snapshot.ErrCorrupt, c, snapshotConsumer)
	}
	eng := r.Uvarint()
	if r.Err() == nil && eng > uint64(diagnosis.EngineDQSQ) {
		r.Failf("unknown engine %d", eng)
	}
	netText := r.String()
	opt := Options{Budget: datalog.Budget{
		MaxFacts:     int(r.Uvarint()),
		MaxIters:     int(r.Uvarint()),
		MaxTermDepth: int(r.Uvarint()),
	}}
	opt.Timeout = time.Duration(r.Int())
	opt.MaxEvents = int(r.Uvarint())
	opt.Direct.MaxSilent = int(r.Uvarint())
	opt.Direct.MaxAlarms = int(r.Uvarint())
	full := r.Bool()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	sys, err := LoadNet(netText)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded net: %v", snapshot.ErrCorrupt, err)
	}
	inc := &Incremental{sys: sys, engine: Engine(eng), opt: opt}
	if full {
		if inc.engine != DQSQ {
			return nil, fmt.Errorf("%w: full-form snapshot for non-DQSQ engine %v", snapshot.ErrCorrupt, inc.engine)
		}
		d, err := diagnosis.DecodeOnlineDiagnoserSnapshot(o, sys.PN)
		if err != nil {
			return nil, err
		}
		inc.online = d
		return inc, nil
	}
	rr, err := o.Section(snapnames.Report)
	if err != nil {
		return nil, err
	}
	poison := rr.String()
	inc.seq = diagnosis.DecodeSeqSnapshot(rr)
	inc.last = diagnosis.DecodeReportSnapshot(rr)
	if err := rr.Finish(); err != nil {
		return nil, err
	}
	if poison != "" {
		inc.broken = fmt.Errorf("%w: %s (restored from checkpoint)", ErrPoisoned, poison)
	}
	return inc, nil
}

// SetTracer re-attaches an observer to a restored handle (tracers are
// runtime state and never serialized). Call before the first Append.
func (inc *Incremental) SetTracer(t obs.Tracer) {
	inc.opt.Tracer = t
	if inc.online != nil {
		inc.online.SetTracer(t)
	}
}

// SaveIncremental checkpoints inc to path (atomically: temp + fsync +
// rename) and reports the snapshot size in bytes.
func SaveIncremental(path string, inc *Incremental) (int, error) {
	f := snapshot.New()
	if err := inc.EncodeSnapshot(f); err != nil {
		return 0, err
	}
	return snapshot.WriteFile(path, f)
}

// LoadIncremental restores a handle checkpointed by SaveIncremental.
func LoadIncremental(path string) (*Incremental, error) {
	o, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeIncremental(o)
}

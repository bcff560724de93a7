package diagnosis

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/alarm"
	"repro/internal/dqsq"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snapnames"
)

// EncodeReportSnapshot writes one diagnosis report (or its absence).
func EncodeReportSnapshot(w *snapshot.Writer, rep *Report) {
	w.Bool(rep != nil)
	if rep == nil {
		return
	}
	w.Uvarint(uint64(rep.Engine))
	w.Uvarint(uint64(len(rep.Diagnoses)))
	for _, d := range rep.Diagnoses {
		w.Uvarint(uint64(len(d)))
		for _, t := range d {
			w.String(t)
		}
	}
	w.Uvarint(uint64(rep.TransFacts))
	w.Uvarint(uint64(rep.PlaceFacts))
	w.Uvarint(uint64(rep.Derived))
	w.Uvarint(uint64(rep.Messages))
	w.Int(int64(rep.Elapsed))
	w.Bool(rep.Truncated)
}

// DecodeReportSnapshot reads a report written by EncodeReportSnapshot.
func DecodeReportSnapshot(r *snapshot.Reader) *Report {
	if !r.Bool() {
		return nil
	}
	rep := &Report{}
	eng := r.Uvarint()
	if r.Err() == nil && eng > uint64(EngineDQSQ) {
		r.Failf("unknown engine %d", eng)
		return nil
	}
	rep.Engine = Engine(eng)
	n := r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		m := r.Count(1)
		diag := make([]string, 0, m)
		for j := 0; j < m && r.Err() == nil; j++ {
			diag = append(diag, r.String())
		}
		rep.Diagnoses = append(rep.Diagnoses, diag)
	}
	rep.TransFacts = int(r.Uvarint())
	rep.PlaceFacts = int(r.Uvarint())
	rep.Derived = int(r.Uvarint())
	rep.Messages = int(r.Uvarint())
	rep.Elapsed = time.Duration(r.Int())
	rep.Truncated = r.Bool()
	if r.Err() != nil {
		return nil
	}
	return rep
}

// EncodeSeqSnapshot writes an alarm sequence.
func EncodeSeqSnapshot(w *snapshot.Writer, seq alarm.Seq) {
	w.Uvarint(uint64(len(seq)))
	for _, o := range seq {
		w.String(string(o.Alarm))
		w.String(string(o.Peer))
	}
}

// DecodeSeqSnapshot reads an alarm sequence.
func DecodeSeqSnapshot(r *snapshot.Reader) alarm.Seq {
	n := r.Count(2)
	var seq alarm.Seq
	for i := 0; i < n && r.Err() == nil; i++ {
		seq = append(seq, alarm.Obs{Alarm: petri.Alarm(r.String()), Peer: petri.Peer(r.String())})
	}
	return seq
}

// EncodeSnapshot writes the diagnoser into f: the warm dQSQ session (term
// store, program, rewriters, engine) in its own sections, plus a
// diagnoser section with the per-peer alarm counts, the observed sequence
// and the last report. The Petri net itself is NOT serialized —
// the caller persists the net text alongside and passes the parsed net to
// DecodeOnlineDiagnoserSnapshot; net parsing and padding are
// deterministic, so the rebuilt structures match the original exactly.
//
// A poisoned diagnoser refuses to snapshot: its warm state may be
// desynchronized from its durable state, which is the very thing
// checkpoints must never persist.
func (d *OnlineDiagnoser) EncodeSnapshot(f *snapshot.File) error {
	if d.broken != nil {
		return fmt.Errorf("diagnosis: cannot snapshot poisoned session: %w", d.broken)
	}
	if err := d.sess.EncodeSnapshot(f); err != nil {
		return err
	}
	w := f.Section(snapnames.Diagnoser)
	peers := make([]string, 0, len(d.counts))
	for p := range d.counts {
		peers = append(peers, string(p))
	}
	sort.Strings(peers)
	w.Uvarint(uint64(len(peers)))
	for _, p := range peers {
		w.String(p)
		w.Uvarint(uint64(d.counts[petri.Peer(p)]))
	}
	EncodeSeqSnapshot(w, d.seq)
	EncodeReportSnapshot(w, d.last)
	return nil
}

// DecodeOnlineDiagnoserSnapshot restores a diagnoser from the sections
// EncodeSnapshot wrote, over the given (re-parsed) Petri net. The restored
// diagnoser continues exactly where the snapshot was taken: the next
// Append lets its alarms flow into the warm unfolding prefix, at the cost
// of decoding the snapshot — not of re-running the n appends that
// produced it.
func DecodeOnlineDiagnoserSnapshot(o *snapshot.OpenFile, pn *petri.PetriNet) (*OnlineDiagnoser, error) {
	padded, err := petri.Pad2(pn)
	if err != nil {
		return nil, err
	}
	sess, err := dqsq.DecodeOnlineSessionSnapshot(o)
	if err != nil {
		return nil, err
	}
	r, err := o.Section(snapnames.Diagnoser)
	if err != nil {
		return nil, err
	}
	d := &OnlineDiagnoser{
		pn:     pn,
		sess:   sess,
		prog:   sess.Program(),
		peers:  indexPeers(padded),
		counts: make(map[petri.Peer]int),
		tracer: obs.Nop,
	}
	n := r.Count(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		p := petri.Peer(r.String())
		c := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if !d.hasPeer(p) {
			r.Failf("alarm count for peer %q not in net", p)
			break
		}
		d.counts[p] = int(c)
	}
	d.seq = DecodeSeqSnapshot(r)
	d.last = DecodeReportSnapshot(r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	for _, ob := range d.seq {
		if !d.hasPeer(ob.Peer) {
			return nil, fmt.Errorf("%w: alarm from peer %q not in net", snapshot.ErrCorrupt, ob.Peer)
		}
	}
	return d, nil
}

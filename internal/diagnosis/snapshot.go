package diagnosis

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
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

// EncodeSnapshot writes the diagnoser into f: in the engine section, the
// fingerprint of its net's template, its budget and what the session added
// past the template (see dqsq.OnlineSession.EncodeSnapshot); in the
// diagnoser section, the per-peer alarm counts, the observed sequence and
// the last report. Neither the net nor the template is serialized: the
// caller persists the net text alongside and passes the parsed net to
// DecodeOnlineDiagnoserSnapshot, which finds the template again.
//
// A poisoned diagnoser refuses to snapshot: its warm state may be
// desynchronized from its durable state, which is the very thing
// checkpoints must never persist.
func (d *OnlineDiagnoser) EncodeSnapshot(f *snapshot.File) error {
	if d.broken != nil {
		return fmt.Errorf("diagnosis: cannot snapshot poisoned session: %w", d.broken)
	}
	w := f.Section(snapnames.Engine)
	w.Bytes(d.tmpl.fingerprint[:])
	b := d.sess.Engine().Budget()
	w.Uvarint(uint64(b.MaxTermDepth))
	w.Uvarint(uint64(b.MaxFacts))
	w.Uvarint(uint64(b.MaxIters))
	if err := d.sess.EncodeSnapshot(w); err != nil {
		return err
	}
	w = f.Section(snapnames.Diagnoser)
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
// EncodeSnapshot wrote, over the given (re-parsed) Petri net: it opens a
// session on the net's template, as NewOnlineDiagnoser does, and appends
// what the snapshot holds to it. The restored diagnoser continues exactly
// where the snapshot was taken, sharing the template's compiled rules. A
// snapshot of a session of another template — another build, another
// net — is refused with snapshot.ErrVersion.
func DecodeOnlineDiagnoserSnapshot(o *snapshot.OpenFile, pn *petri.PetriNet) (*OnlineDiagnoser, error) {
	r, err := o.Section(snapnames.Engine)
	if err != nil {
		return nil, err
	}
	fingerprint := r.Bytes()
	var budget datalog.Budget
	for _, n := range []*int{&budget.MaxTermDepth, &budget.MaxFacts, &budget.MaxIters} {
		*n = int(r.Uvarint())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	t, built, err := cachedTemplate(pn, budget.MaxTermDepth)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(fingerprint, t.fingerprint[:]) {
		return nil, fmt.Errorf("%w: session of template %x, the net's is %x", snapshot.ErrVersion, fingerprint, t.fingerprint[:])
	}
	d := t.session(pn, budget)
	d.built = built
	if err := d.sess.DecodeSnapshot(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}

	if r, err = o.Section(snapnames.Diagnoser); err != nil {
		return nil, err
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

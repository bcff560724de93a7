package dqsq

import (
	"errors"
	"fmt"

	"repro/internal/snapshot"
)

// EncodeSnapshot writes what s, a clone, holds past the session it was
// cloned from: its engine's tail (see ddatalog.Engine.EncodeSnapshot). The
// rewriters and the trace are the origin's, so it refuses a session that
// has moved them — extended with a rule, rewritten an adornment — or that
// holds extended facts no query has injected yet.
func (s *OnlineSession) EncodeSnapshot(w *snapshot.Writer) error {
	o := s.origin
	if o == nil {
		return errors.New("dqsq: only a clone can be snapshotted")
	}
	if len(s.pending) > 0 || len(s.trace.Entries) > len(o.trace.Entries) {
		return errors.New("dqsq: cannot snapshot a session with queued facts or rewritings of its own")
	}
	for id, pr := range s.rewriters {
		if len(pr.rules) > len(o.rewriters[id].rules) {
			return fmt.Errorf("dqsq: cannot snapshot a session extended with rules at %s", id)
		}
	}
	return s.eng.EncodeSnapshot(w)
}

// DecodeSnapshot appends what EncodeSnapshot wrote to s, a clone of the
// snapshotted session's origin that has not been queried.
func (s *OnlineSession) DecodeSnapshot(r *snapshot.Reader) error {
	return s.eng.DecodeSnapshot(r)
}

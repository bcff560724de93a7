package serve

// Replication adapters: the thin surface internal/repl needs to ship
// this server's durable state to a follower, and for a follower to
// apply the stream through the very same code paths boot recovery
// uses. A primary's Dump is every live session freshly encoded (the
// same .dsnp container the persister writes) plus the WAL position to
// stream from; a follower's Apply mirrors each record into its own log
// and runs applyWALRecord — so at every acked sequence the follower's
// store is exactly what the primary would recover to.

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/repl"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// ReplEnabled reports whether the server can take part in replication
// (it needs the write-ahead log, i.e. a DataDir).
func (s *Server) ReplEnabled() bool { return s.wal != nil }

// WALLog exposes the underlying log for repl.NewPrimary.
func (s *Server) WALLog() *wal.Log {
	if s.wal == nil {
		return nil
	}
	return s.wal.log
}

// ReplSource adapts the server for the shipping (primary) side.
func (s *Server) ReplSource() repl.Source { return replSource{s} }

// ReplApplier adapts the server for the applying (follower) side.
func (s *Server) ReplApplier() repl.Applier { return replApplier{s} }

type replSource struct{ s *Server }

// Dump encodes every live session and names the WAL sequence the
// follower must stream from. The resume point is captured BEFORE the
// sessions are encoded: session walSeq marks only ever grow, so every
// record a snapshot taken later does not cover is at or above the
// resume point — captured the other way around, a concurrent
// write-behind snapshot could compact records out from between the
// encoded state and the stream start, losing them silently.
func (r replSource) Dump() ([]repl.Snapshot, uint64, error) {
	s := r.s
	if s.wal == nil {
		return nil, 0, errors.New("serve: replication needs a WAL")
	}
	resume := s.wal.log.FirstSeq()
	if resume == 0 {
		resume = s.wal.log.LastSeq() + 1
	}
	var snaps []repl.Snapshot
	for _, sess := range s.store.Sessions() {
		f := snapshot.New()
		if _, err := sess.EncodeSnapshot(f); err != nil {
			if errors.Is(err, ErrClosed) {
				continue // evicted mid-dump; its delete intent rides the stream
			}
			return nil, 0, fmt.Errorf("serve: dump of session %s: %w", sess.ID, err)
		}
		snaps = append(snaps, repl.Snapshot{ID: sess.ID, Data: f.Bytes()})
	}
	return snaps, resume, nil
}

type replApplier struct{ s *Server }

// LastApplied reports the follower's local log position plus the CRC
// of the record there, which the primary verifies before resuming —
// the check that catches a divergent history (the follower applied a
// record a crashed primary lost before fsync).
func (r replApplier) LastApplied() (uint64, uint32) {
	l := r.s.wal.log
	last := l.LastSeq()
	if last == 0 {
		return 0, 0
	}
	var crc uint32
	err := l.ReadRange(last, last, func(_ uint64, payload []byte) error {
		crc = crc32.ChecksumIEEE(payload)
		return nil
	})
	if err != nil {
		// Right after a resync the position is known but the record is not
		// locally held (SkipTo left the log empty); CRC 0 makes the primary
		// choose a fresh ship, which is the safe answer.
		return last, 0
	}
	return last, crc
}

// Apply mirrors one shipped record into the local log — the follower's
// own durability, so its next boot recovers without a primary — and
// applies it through the shared boot-replay path. The local log
// assigns the same sequence the primary did (Resync positioned it and
// sequences are dense), which Apply asserts.
func (r replApplier) Apply(seq uint64, payload []byte) error {
	s := r.s
	got, err := s.wal.log.Append(payload)
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("serve: local wal assigned seq %d, stream says %d", got, seq)
	}
	sess, _ := s.applyWALRecord(seq, payload)
	if sess != nil && s.persist != nil {
		s.persist.markDirty(sess)
	}
	return nil
}

// Resync replaces the whole local state with a shipped dump: every
// live session (and its snapshot file) goes, the local log repositions
// at the primary's resume sequence, and the shipped sessions are
// adopted and scheduled for their own write-behind snapshots.
func (r replApplier) Resync(snaps []repl.Snapshot, resume uint64) error {
	s := r.s
	for _, sess := range s.store.Sessions() {
		s.store.Delete(sess.ID) // enqueues the file's removal too
	}
	s.wal.reset()
	if err := s.wal.log.SkipTo(resume); err != nil {
		return err
	}
	adopted := 0
	for _, sn := range snaps {
		sess, err := s.store.install(sn.ID, sn.Data)
		if errors.Is(err, ErrBadInput) {
			return fmt.Errorf("serve: shipped session %s: %w", sn.ID, err)
		}
		if err != nil {
			// Table or budget limits below the primary's: serve what fits
			// rather than wedging the stream (the same policy boot restore
			// applies to a too-large snapshot dir).
			s.log.Warn("repl: shipped session not adopted", "session", sn.ID, "err", err)
			continue
		}
		if s.persist != nil {
			s.persist.markDirty(sess)
		}
		adopted++
	}
	s.log.Info("repl: table replaced from snapshot ship", "sessions", adopted, "resume", resume)
	return nil
}

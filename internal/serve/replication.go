package serve

// Replication adapters: the thin surface internal/repl needs. A primary
// ships nothing but its write-ahead log; a follower mirrors each record
// into its own log and applies it as boot replay does — so at every acked sequence
// the follower's store is exactly what the primary would recover to.

import (
	"fmt"
	"hash/crc32"

	"repro/internal/repl"
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

// ReplApplier adapts the server for the applying (follower) side.
func (s *Server) ReplApplier() repl.Applier { return replApplier{s} }

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
		// Right after a wipe the position is known but the record is not
		// locally held (SkipTo left the log empty); CRC 0 makes the primary
		// restart the stream, which is the safe answer.
		return last, 0
	}
	return last, crc
}

// Apply mirrors one shipped record into the local log — the follower's
// own durability, so its next boot recovers without a primary — and
// applies it through the boot-replay path. The local log assigns the
// same sequence the primary did (Wipe positioned it and sequences are
// dense), which Apply asserts.
func (r replApplier) Apply(seq uint64, payload []byte) error {
	s := r.s
	s.wal.pubMu.RLock()
	defer s.wal.pubMu.RUnlock()
	got, err := s.wal.append(payload)
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("serve: local wal assigned seq %d, stream says %d", got, seq)
	}
	s.applyWALRecord(seq, payload)
	return nil
}

// Wipe drops every local session and positions the local log so the
// next applied record is next: the follower then rebuilds its table
// from the primary's records alone.
func (r replApplier) Wipe(next uint64) error {
	s := r.s
	for _, sess := range s.store.Sessions() {
		s.store.Delete(sess.ID)
	}
	if err := s.wal.log.SkipTo(next); err != nil {
		return err
	}
	s.log.Info("repl: local state wiped; streaming from the primary's first record", "next", next)
	return nil
}

package serve

// Write-ahead logging for the session server: the zero-loss half of the
// durability story. The write-behind persister (persist.go) coalesces
// appends into whole-session snapshots, which bounds recovery time but
// loses every append since the last flush on kill -9. With a WAL, every
// intent that gets an HTTP acknowledgement — session create, alarm
// append, session delete — is logged (and, under fsync=always, fsynced)
// first. Boot replays the log on top of the restored snapshots: because
// the online dQSQ evaluation is deterministic per append, the replayed
// sessions are byte-identical to uninterrupted ones.
//
// Compaction: each session snapshot records the WAL sequence it covers
// (Session.walSeq). The coordinator tracks, per session, the lowest
// logged sequence NOT yet covered by an on-disk snapshot, plus delete
// records awaiting their file removal; everything below the minimum is
// safe to drop, and the log is truncated whenever the persister lands a
// snapshot or applies a removal.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// WAL record kinds. The payloads are encoded with the snapshot
// primitives (snapshot.Writer / snapshot.NewReader).
const (
	walKindCreate = 1 // id, net text, engine, fact budget, created ns
	walKindAppend = 2 // id, alarms text
	walKindDelete = 3 // id
)

// walDirName is the log's directory inside Config.DataDir.
const walDirName = "wal"

// serverWAL couples the log with the coverage bookkeeping compaction
// needs. All mutations of the maps happen under mu, and records are
// appended under the same mu so a concurrent compaction can never
// truncate a record whose coverage entry is not registered yet.
type serverWAL struct {
	log *wal.Log

	mu         sync.Mutex
	pending    map[string]uint64 // lowest logged seq not covered by the session's snapshot
	lastLogged map[string]uint64 // highest logged seq per session
	deletes    map[string]uint64 // delete-record seq awaiting the snapshot file's removal
}

func newServerWAL(log *wal.Log) *serverWAL {
	return &serverWAL{
		log:        log,
		pending:    make(map[string]uint64),
		lastLogged: make(map[string]uint64),
		deletes:    make(map[string]uint64),
	}
}

// logRecord appends one record and registers it as uncovered.
func (w *serverWAL) logRecord(id string, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	seq, err := w.log.Append(payload)
	if err != nil {
		return 0, err
	}
	if _, ok := w.pending[id]; !ok {
		w.pending[id] = seq
	}
	w.lastLogged[id] = seq
	return seq, nil
}

// logCreate logs a session-create intent.
func (w *serverWAL) logCreate(id, netText, engine string, facts int, createdNS int64) (uint64, error) {
	sw := &snapshot.Writer{}
	sw.Byte(walKindCreate)
	sw.String(id)
	sw.String(netText)
	sw.String(engine)
	sw.Uvarint(uint64(facts))
	sw.Int(createdNS)
	return w.logRecord(id, sw.Body())
}

// logAppend logs one acknowledged alarm append.
func (w *serverWAL) logAppend(id, alarms string) (uint64, error) {
	sw := &snapshot.Writer{}
	sw.Byte(walKindAppend)
	sw.String(id)
	sw.String(alarms)
	return w.logRecord(id, sw.Body())
}

// logDelete logs a session-delete intent. The record must outlive the
// session's append records: it is what keeps a stale snapshot file from
// resurrecting the session if the crash lands between the HTTP 204 and
// the file's removal.
func (w *serverWAL) logDelete(id string) (uint64, error) {
	sw := &snapshot.Writer{}
	sw.Byte(walKindDelete)
	sw.String(id)
	w.mu.Lock()
	defer w.mu.Unlock()
	seq, err := w.log.Append(sw.Body())
	if err != nil {
		return 0, err
	}
	w.deletes[id] = seq
	delete(w.pending, id)
	delete(w.lastLogged, id)
	return seq, nil
}

// covered records that a snapshot covering WAL records up to seq landed
// on disk for the session, advancing the compaction floor.
func (w *serverWAL) covered(id string, seq uint64) {
	w.mu.Lock()
	if p, ok := w.pending[id]; ok && p <= seq {
		if w.lastLogged[id] <= seq {
			delete(w.pending, id)
		} else {
			// Records after seq exist; seq+1 is a safe (conservative)
			// lower bound for the first uncovered one.
			w.pending[id] = seq + 1
		}
	}
	w.mu.Unlock()
}

// removeApplied records that the session's snapshot file is gone
// (delete or eviction): nothing on disk can resurrect it, so all its
// records — including a pending delete intent — are compactable.
func (w *serverWAL) removeApplied(id string) {
	w.mu.Lock()
	delete(w.deletes, id)
	delete(w.pending, id)
	delete(w.lastLogged, id)
	w.mu.Unlock()
}

// compact truncates the log below the lowest uncovered record.
func (w *serverWAL) compact() {
	w.mu.Lock()
	defer w.mu.Unlock()
	safe := w.log.LastSeq()
	for _, p := range w.pending {
		if p-1 < safe {
			safe = p - 1
		}
	}
	for _, d := range w.deletes {
		if d-1 < safe {
			safe = d - 1
		}
	}
	if safe > 0 {
		w.log.Truncate(safe) //nolint:errcheck // compaction is advisory; next flush retries
	}
}

// close flushes and closes the log.
func (w *serverWAL) close() {
	w.log.Close() //nolint:errcheck // shutdown path; drain already persisted state
}

// seedPending registers a replayed record as uncovered (boot-time
// bookkeeping: the record predates this process, so logRecord never saw
// it).
func (w *serverWAL) seedPending(id string, seq uint64) {
	w.mu.Lock()
	if _, ok := w.pending[id]; !ok {
		w.pending[id] = seq
	}
	w.lastLogged[id] = seq
	w.mu.Unlock()
}

// applyWALRecord applies one log record to the live table: the single
// apply path shared by boot replay and the replication follower, so a
// follower's state after applying a sequence is exactly what a primary
// recovering through the same records would hold. It returns the
// session the record touched (nil if none) and, for delete records,
// the deleted session id. A record that no longer applies (unknown
// session, decode error) is logged and skipped — neither recovery nor
// a replication stream may take the server down.
func (s *Server) applyWALRecord(seq uint64, payload []byte) (touched *Session, deleted string) {
	w := s.wal
	r := snapshot.NewReader(payload)
	switch kind := r.Byte(); kind {
	case walKindCreate:
		id := r.String()
		netText := r.String()
		engineName := r.String()
		facts := int(r.Uvarint())
		createdNS := r.Int()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad create record", "seq", seq, "err", err)
			return nil, ""
		}
		if _, live := s.store.Get(id, time.Now()); live {
			return nil, "" // the snapshot already covers the create
		}
		sess, err := s.store.build(id, netText, engineName, facts, time.Unix(0, createdNS))
		if err != nil {
			s.log.Warn("wal: create not replayed", "seq", seq, "session", id, "err", err)
			return nil, ""
		}
		sess.walSeq = seq
		if err := s.store.Adopt(sess); err != nil {
			s.log.Warn("wal: create not replayed", "seq", seq, "session", id, "err", err)
			return nil, ""
		}
		w.seedPending(id, seq)
		s.log.Info("wal: session recreated", "session", id, "seq", seq)
		return sess, ""
	case walKindAppend:
		id := r.String()
		alarms := r.String()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad append record", "seq", seq, "err", err)
			return nil, ""
		}
		sess, live := s.store.Get(id, time.Now())
		if !live {
			return nil, "" // deleted later in the log, or its create was refused
		}
		if seq <= sess.WALSeq() {
			return nil, "" // the snapshot already covers this append
		}
		obs, err := sess.parseAlarms(alarms)
		if err != nil {
			s.log.Warn("wal: append not replayed", "seq", seq, "session", id, "err", err)
			return nil, ""
		}
		if _, err := sess.replayAppend(obs, s.cfg.EvalTimeout, seq); err != nil {
			s.log.Warn("wal: append not replayed", "seq", seq, "session", id, "err", err)
			return nil, ""
		}
		w.seedPending(id, seq)
		return sess, ""
	case walKindDelete:
		id := r.String()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad delete record", "seq", seq, "err", err)
			return nil, ""
		}
		w.mu.Lock()
		w.deletes[id] = seq
		delete(w.pending, id)
		delete(w.lastLogged, id)
		w.mu.Unlock()
		// Delete via the store when live; always enqueue the file
		// removal — a snapshot may exist even when Adopt was refused.
		s.store.Delete(id)
		s.persist.forget(id)
		s.log.Info("wal: session deleted on replay", "session", id, "seq", seq)
		return nil, id
	default:
		s.log.Warn("wal: unknown record kind", "seq", seq, "kind", kind)
		return nil, ""
	}
}

// reset wipes the coverage bookkeeping — a replication resync replaces
// the whole table, and the repositioned log carries no records yet.
func (w *serverWAL) reset() {
	w.mu.Lock()
	w.pending = make(map[string]uint64)
	w.lastLogged = make(map[string]uint64)
	w.deletes = make(map[string]uint64)
	w.mu.Unlock()
}

// replayWAL applies the log on top of the snapshot-restored session
// table: creates sessions whose snapshots never landed, re-appends
// acknowledged alarms past each session's snapshot coverage, and
// re-applies delete intents. Any session the replay touched is marked
// dirty so a fresh snapshot lands and the log can compact.
func (s *Server) replayWAL() {
	touched := make(map[string]*Session)
	err := s.wal.log.Replay(1, func(seq uint64, payload []byte) error {
		sess, deleted := s.applyWALRecord(seq, payload)
		if sess != nil {
			touched[sess.ID] = sess
		}
		if deleted != "" {
			delete(touched, deleted)
		}
		return nil
	})
	if err != nil {
		s.log.Error("wal: replay stopped early", "err", err)
	}
	replayed := 0
	for _, sess := range touched {
		s.persist.markDirty(sess)
		replayed++
	}
	if replayed > 0 {
		s.log.Info("wal: replay complete", "sessions", replayed)
	}
}

// rebaseWAL keeps new sequence numbers above mark, the highest WAL
// coverage among the restored snapshots. A log that restarted below it
// (its directory removed after a drain, say) would hand new appends
// numbers the next boot's replay skips as already covered. So every
// live session is persisted, pending removals first, and the log moves
// past mark. A log at or above mark — every normal boot — is left as
// it is.
func (s *Server) rebaseWAL(mark uint64) {
	if s.wal.log.LastSeq() >= mark {
		return
	}
	s.persist.drain(s.store.Sessions())
	s.wal.reset()
	if err := s.wal.log.SkipTo(mark + 1); err != nil {
		s.log.Error("wal: cannot move past the snapshots' coverage", "mark", mark, "err", err)
		return
	}
	s.log.Warn("wal: log restarted below the snapshots' coverage; moved past it", "mark", mark)
}

// walAppendError wraps a WAL write failure on the append path.
func walAppendError(err error) error {
	return fmt.Errorf("serve: append evaluated but not durably logged: %w", err)
}

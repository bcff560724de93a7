package serve

// The write-ahead log is the one durable store of a served session. With
// Config.DataDir set, every intent that gets an acknowledgement —
// session create, alarm append, session delete, eviction — is logged
// (and, under fsync=always, fsynced) first, and a checkpoint is one more
// record: the session's encoded state, written behind the appends by the
// checkpointer (persist.go). Boot replays the log from its first record:
// because the online dQSQ evaluation is deterministic per append, the
// replayed sessions are byte-identical to uninterrupted ones, and a
// checkpoint record replaces what the records before it rebuilt.
//
// Compaction: a session's base is the sequence of its create or latest
// checkpoint record; everything below the lowest base of any live
// session is redundant, and the log is truncated there.

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// WAL record kinds. Every payload opens with the kind and the session
// id, and is encoded with the snapshot primitives (snapshot.Writer /
// snapshot.NewReader).
const (
	walKindCreate     = 1 // id, net text, engine, fact budget, created ns
	walKindAppend     = 2 // id, alarms text
	walKindDelete     = 3 // id
	walKindCheckpoint = 4 // id, written ns, session container (EncodeSnapshot)
)

// walDirName is the log's directory inside Config.DataDir.
const walDirName = "wal"

// serverWAL couples the log with the checkpointer that keeps it short.
type serverWAL struct {
	log     *wal.Log
	store   *Store
	metrics *Metrics
	logger  *slog.Logger

	// mu orders a session's checkpoint record against its delete record:
	// both are logged under it, and a checkpoint only while the session is
	// not closed, so no checkpoint can follow the delete that ended it.
	mu sync.Mutex

	// pubMu keeps compaction from truncating a record whose session is
	// not in the table yet: creates and applied records hold it shared
	// from their log append until the session is published.
	pubMu sync.RWMutex

	dueMu sync.Mutex
	due   map[*Session]bool // sessions owed a checkpoint record

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// append logs one record, waking the checkpointer while a sealed
// segment waits to be compacted.
func (w *serverWAL) append(payload []byte) (uint64, error) {
	seq, err := w.log.Append(payload)
	if err == nil && w.log.Sealed() != 0 {
		w.poke()
	}
	return seq, err
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
	return w.append(sw.Body())
}

// logAppend logs one acknowledged alarm append.
func (w *serverWAL) logAppend(id, alarms string) (uint64, error) {
	sw := &snapshot.Writer{}
	sw.Byte(walKindAppend)
	sw.String(id)
	sw.String(alarms)
	return w.append(sw.Body())
}

// logDelete logs the end of a session — an HTTP delete, an eviction or
// a TTL expiry — and closes it, both under mu (see there). A failed
// write leaves the session open.
func (w *serverWAL) logDelete(sess *Session) error {
	sw := &snapshot.Writer{}
	sw.Byte(walKindDelete)
	sw.String(sess.ID)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.append(sw.Body()); err != nil {
		return err
	}
	sess.Close()
	w.poke()
	return nil
}

// applyWALRecord applies one log record to the live table: the single
// apply path shared by boot replay and the replication follower, so a
// follower's state after applying a sequence is exactly what a primary
// recovering through the same records would hold. A record that no
// longer applies (unknown session, decode error, a checkpoint this
// build cannot read) is logged and skipped — neither recovery nor a
// replication stream may take the server down. A skipped checkpoint
// leaves the session as the records before it rebuilt it.
func (s *Server) applyWALRecord(seq uint64, payload []byte) {
	r := snapshot.NewReader(payload)
	kind := r.Byte()
	id := r.String()
	switch kind {
	case walKindCreate:
		netText := r.String()
		engineName := r.String()
		facts := int(r.Uvarint())
		createdNS := r.Int()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad create record", "seq", seq, "err", err)
			return
		}
		sess, err := s.store.build(id, netText, engineName, facts, time.Unix(0, createdNS))
		if err == nil {
			sess.base.Store(seq)
			err = s.store.Adopt(sess)
		}
		if err != nil {
			s.log.Warn("wal: create not replayed", "seq", seq, "session", id, "err", err)
		}
	case walKindAppend:
		alarms := r.String()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad append record", "seq", seq, "err", err)
			return
		}
		sess, live := s.store.Get(id, time.Now())
		if !live {
			return // deleted later in the log, or its create was refused
		}
		obs, err := sess.parseAlarms(alarms)
		if err == nil {
			_, err = sess.replayAppend(obs, s.cfg.EvalTimeout)
		}
		if err != nil {
			s.log.Warn("wal: append not replayed", "seq", seq, "session", id, "err", err)
		}
	case walKindCheckpoint:
		written := r.Int()
		data := r.Bytes()
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad checkpoint record", "seq", seq, "err", err)
			return
		}
		sess, err := s.store.install(id, data)
		if err != nil {
			s.log.Warn("wal: checkpoint not restored; keeping the session its records rebuilt",
				"seq", seq, "session", id, "err", err)
			return
		}
		sess.base.Store(seq)
		sess.lastSnap.Store(written)
	case walKindDelete:
		if err := r.Finish(); err != nil {
			s.log.Warn("wal: bad delete record", "seq", seq, "err", err)
			return
		}
		s.store.Delete(id)
	default:
		s.log.Warn("wal: unknown record kind", "seq", seq, "kind", kind)
	}
}

// replayWAL rebuilds the session table from the log's first record. A
// session deleted later in the log is skipped up to its delete: those
// records could only rebuild what the delete removes again, and on a
// churning server they are most of the log.
func (s *Server) replayWAL() {
	l := s.wal.log
	deleted := make(map[string]uint64) // session id -> seq of its delete record
	err := l.ReadRange(l.FirstSeq(), l.LastSeq(), func(seq uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		if r.Byte() == walKindDelete {
			deleted[r.String()] = seq
		}
		return nil
	})
	if err != nil {
		// What the scan found still holds; the replay just skips less.
		s.log.Error("wal: replay scan failed", "err", err)
	}
	err = l.Replay(1, func(seq uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		_ = r.Byte() // the kind; every record's id follows it
		if seq >= deleted[r.String()] {
			s.applyWALRecord(seq, payload)
		}
		return nil
	})
	if err != nil {
		s.log.Error("wal: replay stopped early", "err", err)
	}
	if n := s.store.Len(); n > 0 {
		s.log.Info("wal: replay complete", "sessions", n)
	}
}

// walAppendError wraps a WAL write failure on the append path.
func walAppendError(err error) error {
	return fmt.Errorf("serve: append evaluated but not durably logged: %w", err)
}

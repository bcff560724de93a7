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

	"repro/internal/pool"
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
	due   map[checkpointable]bool // sessions owed a checkpoint record

	// pool and pooled are a frontend's (front.go): the pool its sessions
	// run on, and the log's view of each.
	pool   *pool.Pool
	pmu    sync.Mutex
	pooled map[string]*pooledSession

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
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendDelete(sess.ID); err != nil {
		return err
	}
	sess.Close()
	return nil
}

// appendDelete logs the delete record of session id and wakes the
// checkpointer, which compacts what the delete made redundant.
func (w *serverWAL) appendDelete(id string) error {
	sw := &snapshot.Writer{}
	sw.Byte(walKindDelete)
	sw.String(id)
	_, err := w.append(sw.Body())
	w.poke()
	return err
}

// applyRecord applies one log record to the table: the single apply
// path shared by boot replay, the replication follower and a pool
// worker rebuilding a session from its frontend's records, so each
// holds exactly what a server recovering through the same records
// would. seq is the record's position in its log, the base of a session
// the record creates or checkpoints; timeout bounds a replayed append.
// A record that no longer applies (unknown session, decode error, a
// checkpoint this build cannot read) returns why; callers log it and
// go on, since neither recovery nor a replication stream may take the
// server down. A skipped checkpoint leaves the session as the records
// before it rebuilt it, and a replayed append that exhausts the budget
// leaves the session poisoned, as the original append did.
func (st *Store) applyRecord(seq uint64, payload []byte, timeout time.Duration) error {
	r := snapshot.NewReader(payload)
	kind := r.Byte()
	id := r.String()
	switch kind {
	case walKindCreate:
		netText, engineName, facts, createdNS := r.String(), r.String(), int(r.Uvarint()), r.Int()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("bad create record: %w", err)
		}
		sess, err := st.build(id, netText, engineName, facts, time.Unix(0, createdNS))
		if err == nil {
			sess.base.Store(seq)
			err = st.Adopt(sess)
		}
		if err != nil {
			return fmt.Errorf("create of session %s not replayed: %w", id, err)
		}
	case walKindAppend:
		alarms := r.String()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("bad append record: %w", err)
		}
		sess, live := st.Get(id, time.Now())
		if !live {
			return nil // deleted later in the log, or its create was refused
		}
		obs, err := sess.parseAlarms(alarms)
		if err == nil {
			_, err = sess.replayAppend(obs, timeout)
		}
		if err != nil {
			return fmt.Errorf("append to session %s not replayed: %w", id, err)
		}
	case walKindCheckpoint:
		written, data := r.Int(), r.Bytes()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("bad checkpoint record: %w", err)
		}
		// The checkpoint replaces the copy the records before it rebuilt
		// (or a failover flap left).
		o, err := snapshot.Open(data)
		var sess *Session
		if err == nil {
			sess, err = decodeSession(o, st.metrics)
		}
		if err == nil && sess.ID != id {
			err = fmt.Errorf("checkpoint is for session %s", sess.ID)
		}
		if err == nil {
			st.Delete(id)
			err = st.Adopt(sess)
		}
		if err != nil {
			return fmt.Errorf("checkpoint not restored; keeping the session its records rebuilt: session %s: %w", id, err)
		}
		st.metrics.Add("snapshot_restore_total", 1)
		sess.base.Store(seq)
		sess.lastSnap.Store(written)
	case walKindDelete:
		if err := r.Finish(); err != nil {
			return fmt.Errorf("bad delete record: %w", err)
		}
		st.Delete(id)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// applyWALRecord applies one record of the server's own log (boot
// replay, a follower's stream), logging one that does not apply.
func (s *Server) applyWALRecord(seq uint64, payload []byte) {
	if err := s.store.applyRecord(seq, payload, s.cfg.EvalTimeout); err != nil {
		s.log.Warn("wal: record not applied", "seq", seq, "err", err)
	}
}

// replayWAL feeds the log, from its first record, to apply. A session
// deleted later in the log is skipped up to its delete: those records
// could only rebuild what the delete removes again, and on a churning
// server they are most of the log.
func (s *Server) replayWAL(apply func(seq uint64, payload []byte)) {
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
	replayed := int64(0)
	err = l.ReadRange(l.FirstSeq(), l.LastSeq(), func(seq uint64, payload []byte) error {
		replayed++
		r := snapshot.NewReader(payload)
		_ = r.Byte() // the kind; every record's id follows it
		if seq >= deleted[r.String()] {
			apply(seq, payload)
		}
		return nil
	})
	s.metrics.Add("wal_replay_records_total", replayed)
	if err != nil {
		s.log.Error("wal: replay stopped early", "err", err)
	}
}

// walAppendError wraps a WAL write failure on the append path.
func walAppendError(err error) error {
	return fmt.Errorf("serve: append evaluated but not durably logged: %w", err)
}

package serve

// Frontend mode. A server NewFrontend builds runs no session itself: the
// pool places each one on a peerd worker, and the server keeps the
// pooled sessions' records in its own write-ahead log — the create,
// append, checkpoint and delete records a local session writes. The
// pool commits every operation a worker acknowledged (Commit), under
// the session's lock and before the HTTP reply; a checkpoint is the
// state a worker ships. To re-materialize a session the pool sends a
// worker its records from its base onward (Records), which the worker
// applies with Store.applyRecord, as boot replay does.

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/internal/wire"
)

// pooledSession is the log's view of one pooled session.
type pooledSession struct {
	id        string
	base      atomic.Uint64 // sequence of its create or latest checkpoint record
	sinceBase atomic.Int64  // logged appends and poisonings since
}

// checkpoint implements checkpointable: the pool ships the state from
// the session's worker and commits it (a session on no worker has
// nothing to ship, and stays as it is).
func (ps *pooledSession) checkpoint(w *serverWAL, force bool) (int, error) {
	if !force && ps.sinceBase.Load() == 0 {
		return 0, nil
	}
	return 0, w.pool.Checkpoint(ps.id)
}

func (ps *pooledSession) logBase() uint64 { return ps.base.Load() }
func (ps *pooledSession) logID() string   { return ps.id }

// NewFrontend builds a server that schedules sessions onto the pool pc
// configures. Pool mode always has a log: Config.DataDir's or, without
// one, a private directory opened with wal.SyncNever (nothing reads it
// once the process exits) and removed at shutdown. The pool adopts the
// sessions the log holds, each re-materialized on a worker before it
// next answers; nothing is evaluated here.
func NewFrontend(cfg Config, pc pool.Config) (*Server, error) {
	dir, private := cfg.DataDir, ""
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "diagnosed-pool-"); err != nil {
			return nil, err
		}
		private, cfg.Fsync = dir, wal.SyncNever
	}
	cfg.DataDir = "" // a plain server would replay the log by evaluating it
	s := NewServer(cfg)
	s.cfg.DataDir, s.privateDir = dir, private
	l, err := s.openLog()
	if err == nil {
		s.wal = newServerWAL(l, s.store, s.metrics, s.log)
		pc.Log, pc.Metrics, pc.Logger = s.wal, s.metrics, s.log
		s.pool, err = pool.New(pc)
	}
	if err != nil {
		s.Shutdown(context.Background()) //nolint:errcheck // nothing is in flight
		return nil, err
	}
	s.wal.pool = s.pool
	s.replayWAL(func(seq uint64, payload []byte) {
		r := snapshot.NewReader(payload)
		kind, id := r.Byte(), r.String()
		s.wal.track(kind, id, seq)
	})
	// The appends a session's records cover are those past its base:
	// numbering them from there keeps the pool and the replaying worker
	// in step.
	for id, ps := range s.wal.pooled {
		s.pool.Adopt(id, uint64(ps.sinceBase.Load()))
	}
	return s, nil
}

// track updates the pooled session id for its record of kind, logged at
// seq. Kind 0 is a poisoning reply: it logs nothing, and asks for a
// checkpoint.
func (w *serverWAL) track(kind byte, id string, seq uint64) {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	ps := w.pooled[id]
	switch {
	case kind == walKindCreate:
		ps = &pooledSession{id: id}
		ps.base.Store(seq)
		w.pooled[id] = ps
	case ps == nil:
	case kind == walKindCheckpoint:
		ps.base.Store(seq)
		ps.sinceBase.Store(0)
	case kind == walKindDelete:
		delete(w.pooled, id)
	case ps.sinceBase.Add(1) >= checkpointEvery || kind == 0:
		w.markDue(ps)
	}
}

// Commit implements pool.Log: it logs what a worker acknowledged as
// the local server logs its own sessions' operations.
func (w *serverWAL) Commit(job wire.SessionJob, rep wire.SessionReply) (err error) {
	id := job.Session
	var kind byte
	var seq uint64
	switch {
	case job.Op == wire.SessCreate:
		// As in Store.Create: compaction waits until the session is in
		// the table that sets its floor.
		w.pubMu.RLock()
		defer w.pubMu.RUnlock()
		kind = walKindCreate
		seq, err = w.logCreate(id, job.NetText, job.Engine, int(job.MaxFacts), time.Now().UnixNano())
	case job.Op == wire.SessDelete:
		kind, err = walKindDelete, w.appendDelete(id)
	case job.Op == wire.SessShip:
		kind = walKindCheckpoint
		seq, _, err = w.logCheckpoint(id, rep.Blob, time.Now())
	case job.Op == wire.SessAppend && rep.Code == wire.SessOK:
		kind = walKindAppend
		seq, err = w.logAppend(id, job.Alarms)
	case job.Op == wire.SessAppend && (rep.Code == wire.SessExhausted || rep.Code == wire.SessTimeout):
		// The reply may have poisoned the session. As locally, the failed
		// append is not logged, and only a checkpoint carries the poisoning.
	default:
		return nil
	}
	if err != nil {
		return fmt.Errorf("pooled session %s not durably logged: %w", id, err)
	}
	w.track(kind, id, seq)
	return nil
}

// Records implements pool.Log: one read of the log, from the lowest base
// of the named sessions (compaction keeps everything from there), collects
// each one's records from its own base onward, each in a CRC frame as
// the log's segments hold it.
func (w *serverWAL) Records(ids []string) map[string][]byte {
	bases := make(map[string]uint64, len(ids))
	from := w.log.LastSeq() + 1
	w.pmu.Lock()
	for _, id := range ids {
		if ps := w.pooled[id]; ps != nil {
			bases[id] = ps.base.Load()
			from = min(from, bases[id])
		}
	}
	w.pmu.Unlock()
	out := make(map[string][]byte, len(bases))
	err := w.log.ReadRange(from, w.log.LastSeq(), func(seq uint64, payload []byte) error {
		r := snapshot.NewReader(payload)
		_ = r.Byte() // the kind; every record's id follows it
		if id := r.String(); seq >= bases[id] && bases[id] != 0 {
			out[id] = snapshot.AppendFrame(out[id], payload)
		}
		return nil
	})
	if err != nil {
		w.logger.Error("pool: session records not read", "err", err)
		return nil
	}
	return out
}

package serve

// Checkpoints. A checkpoint record (wal.go) holds a session as a
// core.Incremental checkpoint (internal/snapshot container) plus one
// ServeSession section carrying the table-level metadata: id, budget,
// alarm count, exhaustion flag and the delta-tracking state, so a
// restored session keeps producing exactly the deltas an uninterrupted
// one would. A pool worker ships the same container to its frontend,
// which logs it as a pooled session's checkpoint record.
//
// One checkpointer goroutine writes them, behind the appends: when a
// session reaches checkpointEvery appends since its last one, when an
// append poisons it (the failed append is not logged, so only a
// checkpoint carries the poisoning across a restart), when its base
// record pins the oldest sealed segment, and on drain. It drives local
// and pooled sessions alike (checkpointable).

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snapnames"
	"repro/internal/wal"
)

// checkpointEvery is how many logged appends a session may carry past
// its base record before the checkpointer logs a fresh checkpoint.
const checkpointEvery = 16

// checkpointable is a session the checkpointer keeps short in the log:
// a local Session, or a pooledSession whose worker ships its state.
type checkpointable interface {
	// checkpoint logs the session's state as a checkpoint record, its new
	// base, and returns the record's size. Unless force is set, a session
	// that logged nothing past its base is skipped.
	checkpoint(w *serverWAL, force bool) (int, error)
	// logBase is the sequence of the session's base record.
	logBase() uint64
	logID() string
}

// EncodeSnapshot writes the session — warm engine state plus table
// metadata — into f. It takes the session mutex, so the snapshot is a
// consistent post-append state. Closed sessions refuse with ErrClosed.
func (s *Session) EncodeSnapshot(f *snapshot.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeLocked(f)
}

func (s *Session) encodeLocked(f *snapshot.File) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.inc.EncodeSnapshot(f); err != nil {
		return err
	}
	w := f.Section(snapnames.ServeSession)
	w.String(s.ID)
	w.Uvarint(uint64(s.Facts))
	w.Int(s.Created.UnixNano())
	w.Int(s.lastUsed.Load())
	w.Uvarint(uint64(s.alarms))
	w.Bool(s.exhausted)
	w.Uvarint(uint64(s.prevDerived))
	w.Uvarint(uint64(s.prevMessages))
	keys := make([]string, 0, len(s.prevKeys))
	for k := range s.prevKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys) // map order would make snapshot bytes nondeterministic
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
	}
	return nil
}

// decodeSession restores a session from an opened snapshot, rewiring the
// runtime-only parts a checkpoint never carries: a fresh trace buffer
// and (when reg is non-nil) the metrics sink.
func decodeSession(o *snapshot.OpenFile, reg *Metrics) (*Session, error) {
	inc, err := core.DecodeIncremental(o)
	if err != nil {
		return nil, err
	}
	r, err := o.Section(snapnames.ServeSession)
	if err != nil {
		return nil, err
	}
	id := r.String()
	facts := int(r.Uvarint())
	created := r.Int()
	lastUsed := r.Int()
	alarms := int(r.Uvarint())
	exhausted := r.Bool()
	prevDerived := int(r.Uvarint())
	prevMessages := int(r.Uvarint())
	n := r.Count(1)
	prevKeys := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		prevKeys[r.String()] = true
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if id == "" {
		return nil, fmt.Errorf("%w: serve session with empty id", snapshot.ErrCorrupt)
	}

	trace := obs.NewChromeTraceWriter(0)
	tracer := obs.Tracer(trace)
	if reg != nil {
		tracer = obs.Multi(trace, obs.NewMetricsSink(reg))
	}
	inc.SetTracer(tracer)

	s := &Session{
		ID: id, Engine: inc.Engine(), Facts: facts,
		Created: time.Unix(0, created),
		inc:     inc, trace: trace, peers: make(map[string]bool),
		alarms: alarms, exhausted: exhausted,
		prevDerived: prevDerived, prevMessages: prevMessages, prevKeys: prevKeys,
	}
	for _, p := range inc.System().Peers() {
		s.peers[string(p)] = true
	}
	s.lastUsed.Store(lastUsed)
	return s, nil
}

// newServerWAL wraps the log and starts its checkpointer.
func newServerWAL(l *wal.Log, st *Store, metrics *Metrics, logger *slog.Logger) *serverWAL {
	w := &serverWAL{
		log: l, store: st, metrics: metrics, logger: logger,
		due:    make(map[checkpointable]bool),
		pooled: make(map[string]*pooledSession),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go w.loop()
	return w
}

// poke wakes the checkpointer without blocking.
func (w *serverWAL) poke() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// markDue schedules a checkpoint of the session. It only takes dueMu,
// so it is safe under the session mutex.
func (w *serverWAL) markDue(s checkpointable) {
	w.dueMu.Lock()
	w.due[s] = true
	w.dueMu.Unlock()
	w.poke()
}

func (w *serverWAL) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
			w.dueMu.Lock()
			due := w.due
			w.due = make(map[checkpointable]bool)
			w.dueMu.Unlock()
			for sess := range due {
				w.checkpointLogged(sess, false)
			}
			w.compact()
		}
	}
}

// checkpoint implements checkpointable. The state is encoded and logged
// under the session mutex, so no append of the session lands between
// the two. A closed session refuses with ErrClosed, as does a read-only
// (follower) session, which never writes records of its own.
func (s *Session) checkpoint(w *serverWAL, force bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, ErrReadOnly
	}
	if !force && s.sinceBase == 0 {
		return 0, nil
	}
	start := time.Now()
	f := snapshot.New()
	if err := s.encodeLocked(f); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed // its delete record is in, or on its way
	}
	seq, n, err := w.logCheckpoint(s.ID, f.Bytes(), start)
	if err != nil {
		return 0, err
	}
	s.base.Store(seq)
	s.sinceBase = 0
	s.lastSnap.Store(start.UnixNano())
	return n, nil
}

func (s *Session) logBase() uint64 { return s.base.Load() }
func (s *Session) logID() string   { return s.ID }

// logCheckpoint logs a checkpoint record of session id holding state,
// the container EncodeSnapshot writes, and counts it. start is when the
// checkpoint began; the record carries it as its write time.
func (w *serverWAL) logCheckpoint(id string, state []byte, start time.Time) (seq uint64, size int, err error) {
	sw := &snapshot.Writer{}
	sw.Byte(walKindCheckpoint)
	sw.String(id)
	sw.Int(start.UnixNano())
	sw.Bytes(state)
	payload := sw.Body()
	if seq, err = w.append(payload); err != nil {
		return 0, 0, err
	}
	w.metrics.Observe("snapshot_write_seconds", time.Since(start))
	w.metrics.Add("snapshot_bytes_total", int64(len(payload)))
	return seq, len(payload), nil
}

// checkpointLogged is checkpoint for the background paths: a failure
// other than a closed or read-only session is logged.
func (w *serverWAL) checkpointLogged(sess checkpointable, force bool) {
	if _, err := sess.checkpoint(w, force); err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrReadOnly) {
		w.logger.Error("session checkpoint failed", "session", sess.logID(), "err", err)
	}
}

// sessions lists what the log holds records of: the table's sessions
// and the pooled ones.
func (w *serverWAL) sessions() []checkpointable {
	var out []checkpointable
	for _, sess := range w.store.Sessions() {
		out = append(out, sess)
	}
	w.pmu.Lock()
	defer w.pmu.Unlock()
	for _, ps := range w.pooled {
		out = append(out, ps)
	}
	return out
}

// compact truncates the log below the lowest base of any live session,
// first checkpointing forward every session whose base pins the oldest
// sealed segment. A session with no base yet pins everything.
func (w *serverWAL) compact() {
	sealed := w.log.Sealed()
	if sealed == 0 {
		return
	}
	for _, sess := range w.sessions() {
		if sess.logBase() <= sealed {
			w.checkpointLogged(sess, true)
		}
	}
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	floor := w.log.LastSeq() + 1
	for _, sess := range w.sessions() {
		floor = min(floor, sess.logBase())
	}
	if floor > 1 {
		w.log.Truncate(floor - 1) //nolint:errcheck // compaction is advisory; the next pass retries
	}
}

// close stops the checkpointer, checkpoints (when asked) every live
// session that logged anything past its base, logging a per-session
// disposition, compacts, and closes the log.
func (w *serverWAL) close(checkpoint bool) {
	close(w.stop)
	<-w.done
	for _, sess := range w.sessions() {
		if !checkpoint {
			break
		}
		n, err := sess.checkpoint(w, false)
		switch {
		case errors.Is(err, ErrReadOnly):
		case err != nil:
			w.logger.Warn("drain: session not checkpointed", "session", sess.logID(), "err", err)
		case n > 0:
			w.logger.Info("drain: session checkpointed", "session", sess.logID(), "bytes", n)
		}
	}
	w.compact()
	if err := w.log.Close(); err != nil {
		w.logger.Error("drain: wal close failed", "err", err)
	}
}

package serve

// Write-behind session durability. With Config.DataDir set, every append
// schedules a snapshot of the session to <DataDir>/<id>.dsnp on a
// background writer, graceful shutdown persists every live session
// synchronously (logging a per-session disposition), and a restarted
// server restores the files back into its table. The file is a
// core.Incremental checkpoint (internal/snapshot container) plus one
// ServeSession section carrying the table-level metadata: id, budget,
// alarm count, exhaustion flag and the delta-tracking state, so a
// restored session keeps producing exactly the deltas an uninterrupted
// one would.
//
// Deletion and eviction enqueue the file's removal on the same writer
// goroutine that performs writes, so a session's final file state is
// decided by the last intent in program order — a slow write can never
// resurrect a deleted session.

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/snapshot/snapnames"
)

// snapshotExt names session snapshot files inside the data dir.
const snapshotExt = ".dsnp"

// EncodeSnapshot writes the session — warm engine state plus table
// metadata — into f. It takes the session mutex, so the snapshot is a
// consistent post-append state. Closed sessions refuse with ErrClosed.
// The returned walSeq is the WAL coverage mark captured atomically with
// the encoded state: once this snapshot is on disk, log records up to
// walSeq are redundant for this session. (It must be captured here, not
// read after the file lands — a concurrent append would inflate it past
// what the snapshot actually holds.)
func (s *Session) EncodeSnapshot(f *snapshot.File) (walSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if err := s.inc.EncodeSnapshot(f); err != nil {
		return 0, err
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
	w.Uvarint(s.walSeq)
	return s.walSeq, nil
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
	walSeq := r.Uvarint()
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
		walSeq: walSeq,
	}
	for _, p := range inc.System().Peers() {
		s.peers[string(p)] = true
	}
	s.lastUsed.Store(lastUsed)
	return s, nil
}

// persister owns the data dir. All file operations — write-behind
// snapshots and removals — run on its single goroutine, in intent order.
type persister struct {
	dir     string
	metrics *Metrics
	log     *slog.Logger
	wal     *serverWAL // nil when write-ahead logging is disabled

	// delay stalls each write-behind intent (Config.SnapshotDelay): a
	// test hook widening the window in which state exists only in the
	// WAL. The synchronous drain is not stalled.
	delay time.Duration

	mu    sync.Mutex
	dirty map[string]*Session // latest intent per session; nil = remove file

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newPersister(dir string, metrics *Metrics, log *slog.Logger, wal *serverWAL, delay time.Duration) *persister {
	p := &persister{
		dir: dir, metrics: metrics, log: log, wal: wal, delay: delay,
		dirty: make(map[string]*Session),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *persister) path(id string) string { return filepath.Join(p.dir, id+snapshotExt) }

// markDirty schedules a write-behind snapshot. Appends between two
// flushes coalesce: only the latest state is written.
func (p *persister) markDirty(s *Session) {
	p.mu.Lock()
	p.dirty[s.ID] = s
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// forget schedules the removal of the session's snapshot file — a
// deleted or evicted session must stay gone across a restart.
func (p *persister) forget(id string) {
	p.mu.Lock()
	p.dirty[id] = nil
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (p *persister) loop() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			p.flush()
		}
	}
}

// flush applies every pending intent once.
func (p *persister) flush() {
	p.mu.Lock()
	batch := p.dirty
	p.dirty = make(map[string]*Session)
	p.mu.Unlock()
	for id, s := range batch {
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
		if s == nil {
			p.remove(id)
			continue
		}
		if _, err := p.write(s); err != nil && err != ErrClosed {
			p.log.Error("session snapshot failed", "session", id, "err", err)
		}
	}
}

// remove deletes the session's snapshot file and releases its WAL
// records: with the file gone, nothing on disk can resurrect the
// session, so even a pending delete intent is compactable.
func (p *persister) remove(id string) {
	os.Remove(p.path(id)) //nolint:errcheck // absent is as good as removed
	if p.wal != nil {
		p.wal.removeApplied(id)
		p.wal.compact()
	}
}

// write snapshots one session to its file, feeding the snapshot metrics.
// Once the file is durably on disk, the WAL records it covers are
// released for compaction.
func (p *persister) write(s *Session) (int, error) {
	f := snapshot.New()
	walSeq, err := s.EncodeSnapshot(f)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	n, err := snapshot.WriteFile(p.path(s.ID), f)
	if err != nil {
		return 0, err
	}
	p.metrics.Observe("snapshot_write_seconds", time.Since(start))
	p.metrics.Add("snapshot_bytes_total", int64(n))
	s.lastSnap.Store(time.Now().UnixNano())
	if p.wal != nil {
		p.wal.covered(s.ID, walSeq)
		p.wal.compact()
	}
	return n, nil
}

// close stops the writer goroutine, abandoning pending intents (shutdown
// follows with a synchronous drain pass over the live table).
func (p *persister) close() {
	close(p.stop)
	<-p.done
}

// drain persists every live session synchronously, logging a per-session
// disposition: persisted (with the snapshot size) or dropped (with why).
// Pending removals are applied first so deleted sessions stay deleted.
func (p *persister) drain(live []*Session) {
	p.mu.Lock()
	batch := p.dirty
	p.dirty = make(map[string]*Session)
	p.mu.Unlock()
	for id, s := range batch {
		if s == nil {
			p.remove(id)
		}
	}
	for _, s := range live {
		if n, err := p.write(s); err != nil {
			p.log.Warn("drain: session dropped", "session", s.ID, "err", err)
		} else {
			p.log.Info("drain: session persisted", "session", s.ID, "bytes", n)
		}
	}
}

// restoreSessions installs every snapshot in the data dir into the
// store and returns the highest WAL coverage mark among them. A file
// that fails to read, decode or fit the table is logged and skipped — a
// corrupt checkpoint must not keep the server down.
func restoreSessions(dir string, st *Store, log *slog.Logger) (mark uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Error("snapshot dir unreadable", "dir", dir, "err", err)
		return 0
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapshotExt) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			log.Warn("session not restored", "file", name, "err", err)
			continue
		}
		sess, err := st.install(strings.TrimSuffix(name, snapshotExt), data)
		if err != nil {
			log.Warn("session not restored", "file", name, "err", err)
			continue
		}
		if fi, err := os.Stat(path); err == nil {
			// The file IS the session's last snapshot; its mtime is the
			// honest snapshot age across the restart.
			sess.lastSnap.Store(fi.ModTime().UnixNano())
		}
		log.Info("session restored", "session", sess.ID, "alarms", sess.alarms)
		mark = max(mark, sess.walSeq)
	}
	return mark
}

// LoadSessionFile opens one session snapshot off the data dir — restore
// uses it, and operators (or tests) can inspect what a file holds
// without a server. metrics may be nil.
func LoadSessionFile(path string, metrics *Metrics) (*Session, error) {
	o, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sess, err := decodeSession(o, metrics)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		// The file IS the session's last snapshot; its mtime is the honest
		// snapshot age across the restart.
		sess.lastSnap.Store(fi.ModTime().UnixNano())
	}
	return sess, nil
}

package serve

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// StoreConfig bounds the session table.
type StoreConfig struct {
	// MaxSessions caps the table; creating one past the cap evicts the
	// least-recently-used session. 0 means 64.
	MaxSessions int
	// SessionFacts is the default per-session fact budget when a create
	// request does not name one. 0 means 1<<20.
	SessionFacts int
	// GlobalFacts caps the sum of reserved per-session budgets; a create
	// that would overflow it is load-shed with ErrOverloaded, even below
	// MaxSessions. 0 means 64 << 20.
	GlobalFacts int
	// TTL expires sessions idle longer than this on Sweep. 0 means 15min.
	TTL time.Duration
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.SessionFacts == 0 {
		c.SessionFacts = 1 << 20
	}
	if c.GlobalFacts == 0 {
		c.GlobalFacts = 64 << 20
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	return c
}

// Store is the bounded session table: a map plus an LRU list, a global
// reserved-fact budget, and TTL sweeping. All methods are safe for
// concurrent use. Eviction only unlinks a session from the table — an
// append already in flight on the evicted session finishes on its own
// mutex and the session is collected afterwards.
type Store struct {
	cfg     StoreConfig
	metrics *Metrics

	mu       sync.Mutex
	sessions map[string]*list.Element // value: *Session
	lru      *list.List               // front = most recently used
	reserved int                      // sum of live sessions' fact budgets
	nextID   uint64
	wal      *serverWAL // nil when nothing is logged (no data dir, or a follower)
	// dropped sums the trace events the removed sessions' rings had
	// overwritten, so trace_events_dropped_total never goes backwards.
	dropped int64
}

// SetWAL attaches the write-ahead log: creates, evictions and expiries
// are logged from now on, and so are the appends of every session,
// those already live included (replayed or followed before the server
// went writable).
func (st *Store) SetWAL(w *serverWAL) {
	st.mu.Lock()
	st.wal = w
	live := make([]*Session, 0, st.lru.Len())
	for el := st.lru.Front(); el != nil; el = el.Next() {
		live = append(live, el.Value.(*Session))
	}
	st.mu.Unlock()
	for _, sess := range live {
		sess.attachWAL(w)
	}
}

// NewStore builds an empty table. metrics may be nil.
func NewStore(cfg StoreConfig, metrics *Metrics) *Store {
	if metrics == nil {
		metrics = NewMetrics()
	}
	st := &Store{
		cfg:      cfg.withDefaults(),
		metrics:  metrics,
		sessions: make(map[string]*list.Element),
		lru:      list.New(),
	}
	metrics.Gauge("diagnosed_sessions_active", func() int64 { return int64(st.Len()) })
	metrics.Gauge("diagnosed_facts_reserved", func() int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return int64(st.reserved)
	})
	// The per-net program cache is process-wide: every store of the process
	// reports the same three numbers.
	metrics.Gauge("diagnosed_program_cache_hits_total", func() int64 { hits, _, _ := core.ProgramCacheStats(); return int64(hits) })
	metrics.Gauge("diagnosed_program_cache_misses_total", func() int64 { _, misses, _ := core.ProgramCacheStats(); return int64(misses) })
	metrics.Gauge("diagnosed_program_cache_entries", func() int64 { _, _, entries := core.ProgramCacheStats(); return int64(entries) })
	metrics.Gauge("trace_events_dropped_total", func() int64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		total := st.dropped
		for el := st.lru.Front(); el != nil; el = el.Next() {
			total += el.Value.(*Session).trace.Dropped()
		}
		return total
	})
	return st
}

// Len counts live sessions.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

func (st *Store) newID() string {
	st.nextID++
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// the counter alone rather than crashing the server. The counter
		// still advances, so fallback IDs stay unique.
		return fmt.Sprintf("s%06d", st.nextID)
	}
	return fmt.Sprintf("s%06d-%s", st.nextID, hex.EncodeToString(b[:]))
}

// Create admits a new session under a fresh ID or load-sheds with
// ErrOverloaded. facts=0 takes the configured per-session default. The
// expensive part — parsing the net and warming the engine — runs outside
// the table lock; the budget is reserved first and released if setup
// fails. Only a session that warmed up evicts another: a net the engine
// refuses must not cost a live session its place.
func (st *Store) Create(netText, engine string, facts int, now time.Time) (*Session, error) {
	if facts <= 0 {
		facts = st.cfg.SessionFacts
	}

	st.mu.Lock()
	if st.reserved+facts > st.cfg.GlobalFacts {
		st.mu.Unlock()
		st.metrics.Add("diagnosed_sessions_shed_total", 1)
		return nil, fmt.Errorf("%w: global fact budget exhausted (%d reserved of %d)",
			ErrOverloaded, st.reserved, st.cfg.GlobalFacts)
	}
	st.reserved += facts
	id := st.newID()
	st.mu.Unlock()

	sess, err := st.build(id, netText, engine, facts, now)
	st.mu.Lock()
	w := st.wal
	st.mu.Unlock()
	if err == nil && w != nil {
		// Log the create before the session is published, so no record of
		// it can precede this one; compaction waits for the publication.
		w.pubMu.RLock()
		defer w.pubMu.RUnlock()
		var seq uint64
		if seq, err = w.logCreate(id, netText, EngineName(sess.Engine), sess.Facts, now.UnixNano()); err != nil {
			err = fmt.Errorf("session not durably logged: %w", err)
		}
		sess.base.Store(seq)
	}
	if err != nil {
		st.mu.Lock()
		st.reserved -= facts
		st.mu.Unlock()
		return nil, err
	}

	// Evict only now, under the same lock as the insert: setup ran
	// unlocked, so concurrent creates may have refilled the table, and
	// MaxSessions must hold at all times, not just transiently.
	st.mu.Lock()
	sess.wal = w // pre-publication: no lock on the session needed
	var evicted []*Session
	for len(st.sessions) >= st.cfg.MaxSessions && st.lru.Len() > 0 {
		evicted = append(evicted, st.removeLocked(st.lru.Back()))
	}
	st.sessions[id] = st.lru.PushFront(sess)
	st.mu.Unlock()
	if len(evicted) > 0 {
		st.logRemoved(w, evicted)
		st.metrics.Add("diagnosed_sessions_evicted_total", int64(len(evicted)))
	}
	st.metrics.Add("diagnosed_sessions_created_total", 1)
	return sess, nil
}

// logRemoved logs the delete records of sessions the table dropped by
// itself (eviction, expiry), so a restart does not bring them back.
// The logging runs after the table lock is released, never under it.
func (st *Store) logRemoved(w *serverWAL, removed []*Session) {
	if w == nil {
		return
	}
	for _, sess := range removed {
		if err := w.logDelete(sess); err != nil {
			w.logger.Error("session removal not durably logged", "session", sess.ID, "err", err)
		}
	}
}

// build is the one create path — HTTP, pool workers and WAL replay all
// warm sessions here; admission is each caller's own. It checks the
// engine name, parses the net and warms the engine; every refusal is
// the client's fault (a peer name colliding with the supervisor, say).
// facts=0 takes the configured per-session default.
func (st *Store) build(id, netText, engine string, facts int, now time.Time) (*Session, error) {
	if netText == "" {
		return nil, badInput(errors.New("missing net"))
	}
	eng, err := ParseEngine(engine)
	if err != nil {
		return nil, badInput(err)
	}
	sys, err := core.LoadNet(netText)
	if err != nil {
		return nil, badInput(err)
	}
	if facts <= 0 {
		facts = st.cfg.SessionFacts
	}
	sess, err := newSession(id, sys, eng, facts, now, st.metrics)
	if err != nil {
		return nil, badInput(err)
	}
	return sess, nil
}

// appendBody is the one live append path, for HTTP and pool workers: it
// parses and checks the alarm text, evaluates, counts the diagnosed_*
// series and renders the response body. (WAL replay shares the parse
// and the evaluation, but neither logs nor counts.)
func (st *Store) appendBody(id, alarms string, timeout time.Duration) ([]byte, error) {
	sess, ok := st.Get(id, time.Now())
	if !ok {
		return nil, errNoSession
	}
	seq, err := sess.parseAlarms(alarms)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := sess.Append(seq, timeout)
	st.metrics.Observe("diagnosed_append_seconds", time.Since(start))
	if err != nil {
		st.metrics.Add("diagnosed_append_errors_total", 1)
		return nil, err
	}
	st.metrics.Add("diagnosed_alarms_total", int64(len(seq)))
	st.metrics.Add("diagnosed_appends_total", 1)
	st.metrics.Add("diagnosed_facts_materialized_total", int64(res.DerivedDelta))
	st.metrics.Add("diagnosed_messages_total", int64(res.MessagesDelta))
	return encodeBody(newAppendResponse(res)), nil
}

// getBody renders the session-state body, for HTTP and pool workers.
func (st *Store) getBody(id string) ([]byte, error) {
	sess, ok := st.Get(id, time.Now())
	if !ok {
		return nil, errNoSession
	}
	state, err := sess.Snapshot()
	if err != nil {
		return nil, err
	}
	return encodeBody(newSessionResponse(state)), nil
}

// Get looks a session up and marks it most-recently-used.
func (st *Store) Get(id string, now time.Time) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.sessions[id]
	if !ok {
		return nil, false
	}
	st.lru.MoveToFront(el)
	sess := el.Value.(*Session)
	sess.Touch(now)
	return sess, true
}

// remove is the client's delete: with a WAL, the delete record is
// logged before the session leaves the table, so a restart cannot
// bring back a session whose delete was acknowledged.
func (st *Store) remove(id string) error {
	sess, ok := st.Get(id, time.Now())
	if !ok {
		return errNoSession
	}
	st.mu.Lock()
	w := st.wal
	st.mu.Unlock()
	if w != nil {
		if err := w.logDelete(sess); err != nil {
			return fmt.Errorf("delete not durably logged: %w", err)
		}
	}
	if !st.Delete(id) {
		return errNoSession
	}
	return nil
}

// Delete removes a session, releasing its reserved budget. It logs
// nothing: replay, followers and checkpoint installs call it for
// records already in the log.
func (st *Store) Delete(id string) bool {
	st.mu.Lock()
	el, ok := st.sessions[id]
	if ok {
		st.removeLocked(el)
	}
	st.mu.Unlock()
	if ok {
		st.metrics.Add("diagnosed_sessions_deleted_total", 1)
	}
	return ok
}

// Sweep expires sessions idle past the TTL; returns how many it evicted.
func (st *Store) Sweep(now time.Time) int {
	cutoff := now.Add(-st.cfg.TTL)
	st.mu.Lock()
	var expired []*list.Element
	for el := st.lru.Back(); el != nil; el = el.Prev() {
		if el.Value.(*Session).LastUsed().After(cutoff) {
			break // LRU order: everything nearer the front is younger
		}
		expired = append(expired, el)
	}
	removed := make([]*Session, 0, len(expired))
	for _, el := range expired {
		removed = append(removed, st.removeLocked(el))
	}
	w := st.wal
	st.mu.Unlock()
	st.logRemoved(w, removed)
	if n := len(expired); n > 0 {
		st.metrics.Add("diagnosed_sessions_expired_total", int64(n))
		return n
	}
	return 0
}

// Clear closes every session (shutdown). It logs no deletes: the
// sessions must come back on restart.
func (st *Store) Clear() {
	st.mu.Lock()
	for st.lru.Len() > 0 {
		st.removeLocked(st.lru.Back())
	}
	st.mu.Unlock()
}

// removeLocked unlinks and closes a session. It must not touch metrics:
// the registered gauges acquire st.mu from inside Metrics.WriteText, so
// calling metrics.Add while holding st.mu would order the two mutexes
// both ways and deadlock a concurrent /metrics scrape. Callers count
// and log after unlocking.
func (st *Store) removeLocked(el *list.Element) *Session {
	sess := el.Value.(*Session)
	delete(st.sessions, sess.ID)
	st.lru.Remove(el)
	st.reserved -= sess.Facts
	st.dropped += sess.trace.Dropped()
	sess.Close()
	return sess
}

// Adopt inserts a restored session under its original ID, reserving its
// fact budget. Unlike Create it never evicts: a boot-time restore that
// does not fit the configured table is refused, not traded against
// other restored sessions.
func (st *Store) Adopt(sess *Session) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.sessions[sess.ID]; dup {
		return fmt.Errorf("session %s already live", sess.ID)
	}
	if len(st.sessions) >= st.cfg.MaxSessions {
		return fmt.Errorf("%w: session table full (%d)", ErrOverloaded, st.cfg.MaxSessions)
	}
	if st.reserved+sess.Facts > st.cfg.GlobalFacts {
		return fmt.Errorf("%w: global fact budget exhausted (%d reserved of %d)",
			ErrOverloaded, st.reserved, st.cfg.GlobalFacts)
	}
	st.reserved += sess.Facts
	sess.wal = st.wal // pre-publication: no lock on the session needed
	st.sessions[sess.ID] = st.lru.PushFront(sess)
	return nil
}

// Sessions returns the live sessions (drain and compaction iterate them).
func (st *Store) Sessions() []*Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Session, 0, st.lru.Len())
	for el := st.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Session))
	}
	return out
}

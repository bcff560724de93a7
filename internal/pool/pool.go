// Package pool schedules diagnosed sessions onto a fleet of peerd
// workers. The paper's dQSQ argument is that diagnosis decomposes
// across autonomous peers; this package applies the same move to the
// serving layer — the frontend stops being the single compute
// bottleneck and becomes a scheduler over workers, each holding the
// warm incremental state of the sessions placed on it.
//
// The frontend keeps a registry of workers (health-probed via SessPing
// frames, which a draining worker answers with SessDraining, and
// load-sampled from every reply), a pluggable placement policy
// (least-loaded by default, consistent-hash affinity optionally), and a
// per-session journal: the create parameters, the last shipped
// checkpoint, and the acknowledged appends past it. The journal is what
// makes worker failure survivable — a session is re-materialized on a
// healthy worker from checkpoint plus tail replay, losing nothing that
// was acknowledged — and what makes drain cheap: ship the checkpoint,
// load it elsewhere, truncate the tail.
//
// Appends are idempotent on the wire (1-based indexes, worker-side
// dedup), so dispatch can retry with backoff and hedge stragglers
// without double-evaluating.
package pool

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Worker lifecycle states.
const (
	StateReady    = "ready"
	StateDraining = "draining"
	StateDead     = "dead"
)

// Dispatch and failure-detection constants.
const (
	// rpcMargin pads each request deadline past the evaluation timeout it
	// carries (network + queueing headroom).
	rpcMargin = 2 * time.Second
	// retries bounds re-sends of one request after its first attempt.
	retries = 2
	// retryBackoff is the first retry's delay, doubled per retry.
	retryBackoff = 50 * time.Millisecond
	// failAfter is the consecutive probe failures that declare a worker
	// dead (triggering re-materialization of its sessions).
	failAfter = 3
	// shipEvery refreshes a session's journal checkpoint after this many
	// appends since the last one, bounding tail-replay cost.
	shipEvery = 16
)

// Config tunes a frontend pool.
type Config struct {
	// Transport carries SessionJob/SessionReply frames. The pool owns
	// Start; Close closes it.
	Transport transport.Transport
	// Workers are the worker transport addresses; each doubles as the
	// worker's node name.
	Workers []string
	// Policy places sessions; nil means LeastLoaded.
	Policy Policy
	// Metrics receives the pool_* series; nil discards.
	Metrics obs.Registry
	// ProbeEvery is the health-probe period. 0 means 1s.
	ProbeEvery time.Duration
	// Logger receives lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = LeastLoaded{}
	}
	if c.Metrics == nil {
		c.Metrics = nopRegistry{}
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Result is the outcome of one pooled operation, ready for the HTTP
// layer: a wire code (SessOK plus the worker-rendered response body, or
// an error code with detail and an optional Retry-After hint).
type Result struct {
	Code         uint32
	Err          string
	RetryAfterMS uint32
	Body         []byte
}

// workerState is the registry entry for one worker.
type workerState struct {
	name      string
	state     string
	fails     int // consecutive probe failures
	load      WorkerLoad
	migrating bool // a drain/recovery pass is already running
}

// session is the frontend journal for one pooled session: everything
// needed to re-materialize it on another worker. Its mutex serializes
// appends, migration and recovery for the session; the append index
// order is the session's history, so there is exactly one writer.
type session struct {
	id string

	mu        sync.Mutex
	worker    string
	netText   string
	engine    string
	maxFacts  int
	nextIndex uint64 // index the next append will carry (acked appends + 1)
	snapBlob  []byte // last shipped checkpoint; nil before the first ship
	snapIndex uint64 // appends covered by snapBlob
	tail      []string
}

// Pool is the frontend scheduler. All methods are safe for concurrent
// use; operations on one session serialize on its journal.
type Pool struct {
	cfg    Config
	tr     transport.Transport
	self   string
	policy Policy
	m      obs.Registry
	log    *slog.Logger

	mu       sync.Mutex
	workers  map[string]*workerState
	sessions map[string]*session
	reqs     map[uint64]chan wire.SessionReply
	nextReq  uint64
	nextID   uint64

	stop chan struct{}
	done chan struct{}
}

// New builds the pool, starts its transport handler and health-probe
// loop. At least one worker is required.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("pool: no workers configured")
	}
	p := &Pool{
		cfg:      cfg,
		tr:       cfg.Transport,
		self:     cfg.Transport.Self(),
		policy:   cfg.Policy,
		m:        cfg.Metrics,
		log:      cfg.Logger,
		workers:  make(map[string]*workerState),
		sessions: make(map[string]*session),
		reqs:     make(map[uint64]chan wire.SessionReply),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		// The address IS the worker's node name: peerd binds its pool
		// transport under the advertised address, so handshakes line up.
		p.workers[addr] = &workerState{name: addr, state: StateReady}
		p.tr.AddRoute(addr, addr)
	}
	if err := p.tr.Start(p.handle); err != nil {
		return nil, err
	}
	go p.probeLoop()
	return p, nil
}

// Close stops the probe loop and the transport.
func (p *Pool) Close() {
	close(p.stop)
	<-p.done
	p.tr.Close() //nolint:errcheck // shutdown path
}

// ---- dispatch ----

// handle is the transport receive path: route replies by request ID and
// refresh the sender's load sample.
func (p *Pool) handle(from string, f wire.Frame) {
	rep, ok := f.(wire.SessionReply)
	if !ok {
		return
	}
	p.mu.Lock()
	if w := p.workers[from]; w != nil {
		w.load = WorkerLoad{Name: from, Active: int(rep.Active), Queued: int(rep.Queued), EWMAMicros: rep.EWMAMicros}
	}
	ch := p.reqs[rep.Req]
	p.mu.Unlock()
	if ch != nil {
		select {
		case ch <- rep:
		default: // a hedged duplicate already answered
		}
	}
}

// call dispatches one job with per-request deadline, bounded retry with
// backoff, and (for appends) hedged re-dispatch of stragglers. The
// error return means the worker never answered; a reply with an error
// Code is returned as-is.
func (p *Pool) call(worker string, job wire.SessionJob, evalTimeout time.Duration) (wire.SessionReply, error) {
	deadline := evalTimeout + rpcMargin
	job.TimeoutMS = uint32(evalTimeout / time.Millisecond)
	job.Frontend = p.self

	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			p.m.Add("pool_retries_total", 1)
			time.Sleep(retryBackoff << (attempt - 1))
		}
		if p.workerDead(worker) {
			// The probe loop already declared it: fail fast so the caller
			// re-materializes instead of burning the full deadline.
			return wire.SessionReply{}, fmt.Errorf("pool: worker %s is dead", worker)
		}
		rep, err := p.dispatch(worker, job, deadline)
		if err != nil {
			lastErr = err
			continue
		}
		if rep.Code == wire.SessRetry {
			lastErr = fmt.Errorf("pool: worker %s: %s", worker, rep.Err)
			continue
		}
		p.noteAlive(worker)
		return rep, nil
	}
	p.noteFailure(worker)
	return wire.SessionReply{}, lastErr
}

// dispatch sends the job once (plus at most one hedge) and waits for
// the first reply or the deadline.
func (p *Pool) dispatch(worker string, job wire.SessionJob, deadline time.Duration) (wire.SessionReply, error) {
	ch := make(chan wire.SessionReply, 2)
	p.mu.Lock()
	p.nextReq++
	job.Req = p.nextReq
	p.reqs[job.Req] = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.reqs, job.Req)
		p.mu.Unlock()
	}()

	start := time.Now()
	if err := p.tr.Send(worker, job); err != nil {
		return wire.SessionReply{}, fmt.Errorf("pool: send to %s: %w", worker, err)
	}

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	// A reply can stop coming for good reasons (long evaluation) or
	// because the worker died: poll its probe-maintained state so a death
	// verdict cuts the wait short of the full deadline.
	vitals := time.NewTicker(250 * time.Millisecond)
	defer vitals.Stop()
	var hedge <-chan time.Time
	if job.Op == wire.SessAppend {
		ht := time.NewTimer(p.hedgeDelay(worker, deadline))
		defer ht.Stop()
		hedge = ht.C
	}
	for {
		select {
		case rep := <-ch:
			p.m.Observe("pool_dispatch_seconds", time.Since(start))
			return rep, nil
		case <-vitals.C:
			if p.workerDead(worker) {
				p.m.Observe("pool_dispatch_seconds", time.Since(start))
				return wire.SessionReply{}, fmt.Errorf("pool: worker %s declared dead mid-request", worker)
			}
		case <-hedge:
			// Straggler: re-send the same job (same Req, same Index — the
			// worker dedups), so a lost frame or a stalled queue slot does
			// not cost the whole deadline.
			hedge = nil
			p.m.Add("pool_hedged_total", 1)
			p.tr.Send(worker, job) //nolint:errcheck // the deadline judges
		case <-timer.C:
			p.m.Observe("pool_dispatch_seconds", time.Since(start))
			return wire.SessionReply{}, fmt.Errorf("pool: worker %s: no reply within %v", worker, deadline)
		}
	}
}

// hedgeDelay is when to re-send an unanswered append: 4x the worker's
// EWMA append latency clamped to [25ms, deadline/2] — late enough to stay
// rare, early enough to matter.
func (p *Pool) hedgeDelay(worker string, deadline time.Duration) time.Duration {
	p.mu.Lock()
	ewma := time.Duration(0)
	if w := p.workers[worker]; w != nil {
		ewma = time.Duration(w.load.EWMAMicros) * time.Microsecond
	}
	p.mu.Unlock()
	d := 4 * ewma
	if d < 25*time.Millisecond {
		d = 25 * time.Millisecond
	}
	if d > deadline/2 {
		d = deadline / 2
	}
	return d
}

// ---- placement ----

// place picks a ready worker for the session, excluding tried ones.
func (p *Pool) place(sessionID string, tried map[string]bool) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := make([]WorkerLoad, 0, len(p.workers))
	for name, w := range p.workers {
		if w.state != StateReady || tried[name] {
			continue
		}
		candidates = append(candidates, w.load.withName(name))
	}
	if len(candidates) == 0 {
		return "", false
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name < candidates[j].Name })
	return p.policy.Pick(sessionID, candidates), true
}

func (l WorkerLoad) withName(name string) WorkerLoad {
	l.Name = name
	return l
}

func (p *Pool) newID() string {
	p.mu.Lock()
	p.nextID++
	n := p.nextID
	p.mu.Unlock()
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("s%06d", n)
	}
	return fmt.Sprintf("s%06d-%s", n, hex.EncodeToString(b[:]))
}

// ---- session operations ----

func notFoundResult() Result {
	return Result{Code: wire.SessNotFound, Err: "no such session"}
}

func saturatedResult(msg string) Result {
	if msg == "" {
		msg = "pool: all workers saturated or unavailable"
	}
	return Result{Code: wire.SessSaturated, Err: msg, RetryAfterMS: 1000}
}

func fromReply(rep wire.SessionReply) Result {
	return Result{Code: rep.Code, Err: rep.Err, RetryAfterMS: rep.RetryAfterMS, Body: rep.Blob}
}

// Create places a new session on a worker and journals it.
func (p *Pool) Create(netText, engine string, maxFacts int, evalTimeout time.Duration) Result {
	id := p.newID()
	job := wire.SessionJob{Op: wire.SessCreate, Session: id, NetText: netText,
		Engine: engineOrdinal(engine), MaxFacts: uint32(maxFacts)}
	tried := make(map[string]bool)
	for {
		worker, ok := p.place(id, tried)
		if !ok {
			return saturatedResult("")
		}
		rep, err := p.call(worker, job, evalTimeout)
		if err != nil {
			tried[worker] = true
			continue
		}
		switch rep.Code {
		case wire.SessOK:
			s := &session{id: id, worker: worker, netText: netText,
				engine: engine, maxFacts: maxFacts, nextIndex: 1}
			p.mu.Lock()
			p.sessions[id] = s
			p.mu.Unlock()
			return fromReply(rep)
		case wire.SessSaturated, wire.SessDraining:
			tried[worker] = true
		default:
			return fromReply(rep)
		}
	}
}

func (p *Pool) session(id string) *session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sessions[id]
}

// Append ships one append to the session's worker. The journal records
// it only after the worker acknowledged — the HTTP 200 implies the
// append survives any later worker failure. A worker that stopped
// answering (or lost the session) triggers re-materialization on a
// healthy worker, then one more attempt.
func (p *Pool) Append(id, alarms string, evalTimeout time.Duration) Result {
	s := p.session(id)
	if s == nil {
		return notFoundResult()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job := wire.SessionJob{Op: wire.SessAppend, Session: id, Index: s.nextIndex, Alarms: alarms}
	for attempt := 0; attempt < 2; attempt++ {
		worker := s.worker
		rep, err := p.call(worker, job, evalTimeout)
		if err != nil || rep.Code == wire.SessNotFound || rep.Code == wire.SessOutOfSync {
			// The worker is gone, restarted empty, or diverged: bring the
			// session up elsewhere from checkpoint + tail and try again.
			if rerr := p.rematerializeLocked(s, worker); rerr != nil {
				return saturatedResult(rerr.Error())
			}
			continue
		}
		if rep.Code != wire.SessOK {
			return fromReply(rep)
		}
		s.tail = append(s.tail, alarms)
		s.nextIndex++
		if len(s.tail) >= shipEvery {
			go p.refreshCheckpoint(id)
		}
		return fromReply(rep)
	}
	return saturatedResult("")
}

// Get reads the session state from its worker (the worker is
// authoritative: exhaustion, seq and report live there).
func (p *Pool) Get(id string, evalTimeout time.Duration) Result {
	s := p.session(id)
	if s == nil {
		return notFoundResult()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job := wire.SessionJob{Op: wire.SessGet, Session: id}
	for attempt := 0; attempt < 2; attempt++ {
		rep, err := p.call(s.worker, job, evalTimeout)
		if err != nil || rep.Code == wire.SessNotFound {
			if rerr := p.rematerializeLocked(s, s.worker); rerr != nil {
				return saturatedResult(rerr.Error())
			}
			continue
		}
		return fromReply(rep)
	}
	return saturatedResult("")
}

// Delete removes the session from its worker (best effort — the journal
// entry goes regardless, so the pool never resurrects it).
func (p *Pool) Delete(id string, evalTimeout time.Duration) Result {
	s := p.session(id)
	if s == nil {
		return notFoundResult()
	}
	s.mu.Lock()
	worker := s.worker
	s.mu.Unlock()
	p.mu.Lock()
	delete(p.sessions, id)
	p.mu.Unlock()
	rep, err := p.call(worker, wire.SessionJob{Op: wire.SessDelete, Session: id}, evalTimeout)
	if err != nil {
		// The worker will rediscover the deletion when it dies or the
		// session TTLs out; acknowledge the delete anyway.
		return Result{Code: wire.SessOK}
	}
	if rep.Code == wire.SessNotFound {
		return Result{Code: wire.SessOK}
	}
	return fromReply(rep)
}

// refreshCheckpoint ships the session's current checkpoint into the
// journal. On failure the tail keeps covering; the next append tries
// again.
func (p *Pool) refreshCheckpoint(id string) {
	s := p.session(id)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.shipLocked(s, s.worker)
}

// shipLocked asks the worker for s's checkpoint and makes it the base of
// the journal (locked by the caller), truncating the tail it covers.
// Reports success.
func (p *Pool) shipLocked(s *session, worker string) bool {
	rep, err := p.call(worker, wire.SessionJob{Op: wire.SessShip, Session: s.id}, 10*time.Second)
	if err != nil || rep.Code != wire.SessOK || rep.Index < s.snapIndex || rep.Index > s.snapIndex+uint64(len(s.tail)) {
		return false
	}
	s.tail = append([]string(nil), s.tail[rep.Index-s.snapIndex:]...)
	s.snapBlob, s.snapIndex = rep.Blob, rep.Index
	p.m.Add("pool_checkpoints_total", 1)
	return true
}

// rematerializeLocked brings s (journal-locked by the caller) up on a
// healthy worker: install the last checkpoint (or re-create from the
// net), then replay the acknowledged tail with its original indexes.
// This is the snapshot+WAL story of the serving layer, with the journal
// as the log.
func (p *Pool) rematerializeLocked(s *session, exclude string) error {
	tried := map[string]bool{exclude: true, s.worker: true}
	for {
		worker, ok := p.place(s.id, tried)
		if !ok {
			return fmt.Errorf("pool: no healthy worker to re-materialize session %s", s.id)
		}
		if p.installLocked(s, worker) {
			p.log.Info("pool: session re-materialized", "session", s.id, "from", s.worker, "to", worker, "replayed", len(s.tail))
			s.worker = worker
			p.m.Add("pool_migrations_total", 1)
			return nil
		}
		tried[worker] = true
	}
}

// installLocked installs s on the worker: checkpoint load or re-create,
// plus tail replay. Reports success.
func (p *Pool) installLocked(s *session, worker string) bool {
	if s.snapBlob != nil {
		rep, err := p.call(worker, wire.SessionJob{Op: wire.SessLoad, Session: s.id, Index: s.snapIndex, Blob: s.snapBlob}, 10*time.Second)
		if err != nil || rep.Code != wire.SessOK {
			return false
		}
	} else {
		rep, err := p.call(worker, wire.SessionJob{Op: wire.SessCreate, Session: s.id,
			NetText: s.netText, Engine: engineOrdinal(s.engine), MaxFacts: uint32(s.maxFacts)}, 10*time.Second)
		if err != nil || rep.Code != wire.SessOK {
			return false
		}
	}
	for i, alarms := range s.tail {
		idx := s.snapIndex + 1 + uint64(i)
		rep, err := p.call(worker, wire.SessionJob{Op: wire.SessAppend, Session: s.id,
			Index: idx, Alarms: alarms}, 30*time.Second)
		// An exhausted reply reproduces the poisoned state faithfully;
		// anything else unanswered or diverging disqualifies the worker.
		if err != nil || (rep.Code != wire.SessOK && rep.Code != wire.SessExhausted) {
			return false
		}
	}
	return true
}

// ---- worker lifecycle ----

func (p *Pool) workerDead(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[name]
	return w != nil && w.state == StateDead
}

func (p *Pool) noteAlive(worker string) {
	p.mu.Lock()
	if w := p.workers[worker]; w != nil {
		w.fails = 0
		if w.state == StateDead {
			// A restarted worker comes back empty; sessions were already
			// re-homed. It is placeable again.
			w.state = StateReady
			p.log.Info("pool: worker back", "worker", worker)
		}
	}
	p.mu.Unlock()
}

func (p *Pool) noteFailure(worker string) {
	p.mu.Lock()
	w := p.workers[worker]
	var evict bool
	if w != nil && w.state != StateDead {
		w.fails++
		if w.fails >= failAfter && !w.migrating {
			w.state = StateDead
			w.migrating = true
			evict = true
		}
	}
	p.mu.Unlock()
	if evict {
		p.log.Warn("pool: worker dead, re-homing its sessions", "worker", worker)
		go p.recoverSessions(worker)
	}
}

// probeLoop drives periodic SessPing probes and refreshes the pool
// gauges.
func (p *Pool) probeLoop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeOnce()
		}
	}
}

func (p *Pool) probeOnce() {
	p.mu.Lock()
	names := make([]string, 0, len(p.workers))
	for name := range p.workers {
		names = append(names, name)
	}
	p.mu.Unlock()

	for _, name := range names {
		// The ping doubles as liveness check and load sample; call's
		// retry/failure accounting does the state bookkeeping.
		probeTimeout := p.cfg.ProbeEvery
		if probeTimeout > time.Second {
			probeTimeout = time.Second
		}
		rep, err := p.dispatch(name, wire.SessionJob{Op: wire.SessPing, Frontend: p.self}, probeTimeout)
		switch {
		case err != nil:
			p.noteFailure(name)
		case rep.Code == wire.SessDraining:
			p.markDraining(name)
		default:
			p.noteAlive(name)
		}
	}
	p.updateGauges()
}

// markDraining stops placing on the worker and migrates its sessions
// away. A drain is cooperative, not a failure: it never feeds the
// eviction counter.
func (p *Pool) markDraining(name string) {
	p.mu.Lock()
	w := p.workers[name]
	var migrate bool
	if w != nil && w.state == StateReady {
		w.state = StateDraining
		w.fails = 0 // draining is cooperative, not a failure
		if !w.migrating {
			w.migrating = true
			migrate = true
		}
	}
	p.mu.Unlock()
	if migrate {
		p.log.Info("pool: worker draining, migrating its sessions", "worker", name)
		go p.migrateSessions(name)
	}
}

// sessionList lists every session in the journal. Callers filter by
// worker under each session's own lock: a placement may move between
// this listing and their pass over it.
func (p *Pool) sessionList() []*session {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*session, 0, len(p.sessions))
	for _, s := range p.sessions {
		out = append(out, s)
	}
	return out
}

// migrateSessions moves every session off a draining worker by
// checkpoint: ship it from the drainer (which still serves) into the
// journal, then re-materialize it from there on a ready worker.
func (p *Pool) migrateSessions(worker string) {
	defer p.clearMigrating(worker)
	for _, s := range p.sessionList() {
		s.mu.Lock()
		if s.worker != worker {
			s.mu.Unlock()
			continue
		}
		p.migrateLocked(s, worker)
		s.mu.Unlock()
	}
}

func (p *Pool) migrateLocked(s *session, from string) {
	// A drainer that died mid-drain (or shipped garbage) leaves the
	// journal's older checkpoint and tail, which still work.
	shipped := p.shipLocked(s, from)
	if err := p.rematerializeLocked(s, from); err != nil {
		p.log.Warn("pool: migration failed", "session", s.id, "err", err)
		return
	}
	if shipped {
		// Best effort: free the drainer's copy so its drain finishes.
		p.call(from, wire.SessionJob{Op: wire.SessDelete, Session: s.id}, 5*time.Second) //nolint:errcheck
	}
}

// recoverSessions re-materializes every session homed on a dead worker.
func (p *Pool) recoverSessions(worker string) {
	defer p.clearMigrating(worker)
	for _, s := range p.sessionList() {
		s.mu.Lock()
		if s.worker == worker {
			if err := p.rematerializeLocked(s, worker); err != nil {
				p.log.Warn("pool: session lost until a worker recovers", "session", s.id, "err", err)
			}
		}
		s.mu.Unlock()
	}
}

func (p *Pool) clearMigrating(worker string) {
	p.mu.Lock()
	if w := p.workers[worker]; w != nil {
		w.migrating = false
	}
	p.mu.Unlock()
}

// updateGauges refreshes the pool_* gauge series.
func (p *Pool) updateGauges() {
	p.mu.Lock()
	states := map[string]int64{StateReady: 0, StateDraining: 0, StateDead: 0}
	for _, w := range p.workers {
		states[w.state]++
	}
	perWorker := make(map[string]int64, len(p.workers))
	for name := range p.workers {
		perWorker[name] = 0
	}
	for _, s := range p.sessions {
		// s.worker is read without its lock: a stale value skews a gauge
		// for one probe period, nothing more.
		perWorker[s.worker]++
	}
	p.mu.Unlock()
	for state, n := range states {
		p.m.SetGauge(fmt.Sprintf("pool_workers{state=%q}", state), n)
	}
	for name, n := range perWorker {
		p.m.SetGauge(fmt.Sprintf("pool_sessions{worker=%q}", name), n)
	}
}

// WorkerStates reports each worker's lifecycle state (ops surfaces and
// tests).
func (p *Pool) WorkerStates() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.workers))
	for name, w := range p.workers {
		out[name] = w.state
	}
	return out
}

// SessionWorker reports which worker currently homes the session.
func (p *Pool) SessionWorker(id string) (string, bool) {
	s := p.session(id)
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.worker, true
}

// Package pool schedules diagnosed sessions onto a fleet of peerd
// workers. The paper's dQSQ argument is that diagnosis decomposes
// across autonomous peers; this package applies the same move to the
// serving layer — the frontend stops being the single compute
// bottleneck and becomes a scheduler over workers, each holding the
// warm incremental state of the sessions placed on it.
//
// The frontend keeps a registry of workers (health-probed via SessPing
// frames, which a draining worker answers with SessDraining, and
// load-sampled from every reply), places each session on the least
// loaded one, and remembers per session only its worker and its next
// append index. A session's durable state is the frontend's log, which
// the pool reaches through a Log and whose records it never reads:
// every acknowledged create, append and delete is committed to it
// before the pool answers, and so is every checkpoint a worker ships.
// Worker failure and drain re-materialize a session on a healthy worker
// from its records, from its base onward, in one SessReplay job; the
// worker applies them as the frontend's own boot replay would.
//
// Each job is sent once: the transport delivers it exactly once and in
// order, so a re-send could only queue behind the original on the same
// worker. A job left unanswered is settled by rebuilding the session
// from the log on a healthy worker. Appends still carry 1-based indexes
// that the worker checks, so a duplicate is never evaluated twice.
package pool

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
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
	// failAfter is the consecutive probe failures that declare a worker
	// dead (triggering re-materialization of its sessions).
	failAfter = 3
	// replayTimeout bounds each append a SessReplay job re-evaluates.
	replayTimeout = 30 * time.Second
)

// Log is the frontend's durable record of its sessions. The pool calls
// Commit under the session's lock, so a session's records are logged in
// the order its worker applied them.
type Log interface {
	// Commit records an operation the worker acknowledged, before the
	// pool answers it: a create, an append (with its reply: a poisoning
	// one is logged as no append, but asks for a checkpoint), a delete,
	// or a ship, whose reply carries the checkpoint. An error fails the
	// operation.
	Commit(job wire.SessionJob, rep wire.SessionReply) error
	// Records returns, in one read of the log, each named session's
	// records from its base onward, packed for a SessReplay job.
	Records(ids []string) map[string][]byte
}

// Config tunes a frontend pool.
type Config struct {
	// Transport carries SessionJob/SessionReply frames. The pool owns
	// Start; Close closes it.
	Transport transport.Transport
	// Workers are the worker transport addresses; each doubles as the
	// worker's node name.
	Workers []string
	// Log keeps the sessions' records; nil keeps none, and a session
	// whose worker is lost is then lost with it.
	Log Log
	// Metrics receives the pool_* series; nil discards.
	Metrics obs.Registry
	// ProbeEvery is the health-probe period. 0 means 1s.
	ProbeEvery time.Duration
	// Logger receives lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = nopLog{}
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
	state string
	fails int // consecutive probe failures
	load  WorkerLoad
}

// nopLog keeps no records.
type nopLog struct{}

func (nopLog) Commit(wire.SessionJob, wire.SessionReply) error { return nil }
func (nopLog) Records([]string) map[string][]byte              { return nil }

// session is the frontend's view of one pooled session. Its mutex
// serializes the session's operations, commits, migration and recovery;
// the append index order is the session's history, so there is exactly
// one writer.
type session struct {
	id string

	mu        sync.Mutex
	worker    string // "" while on no worker: adopted, deleted, or its commit failed
	nextIndex uint64 // index the next append will carry (acked appends + 1)
}

// Pool is the frontend scheduler. All methods are safe for concurrent
// use; operations on one session serialize on its lock.
type Pool struct {
	cfg  Config
	tr   transport.Transport
	self string
	m    obs.Registry
	log  *slog.Logger

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
		p.workers[addr] = &workerState{state: StateReady, load: WorkerLoad{Name: addr}}
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
		w.load = WorkerLoad{Name: from, Active: int(rep.Active), Queued: int(rep.Queued)}
	}
	ch := p.reqs[rep.Req]
	p.mu.Unlock()
	if ch != nil {
		select {
		case ch <- rep:
		default: // one reply per job; a stray one must not block the receive path
		}
	}
}

// call sends one job and waits for its reply. The error return means
// the worker never answered; a reply with an error Code is returned
// as-is.
func (p *Pool) call(worker string, job wire.SessionJob, evalTimeout time.Duration) (wire.SessionReply, error) {
	if p.workerDead(worker) {
		// The probe loop already declared it: fail fast so the caller
		// re-materializes instead of burning the full deadline.
		return wire.SessionReply{}, fmt.Errorf("pool: worker %s is dead", worker)
	}
	job.TimeoutMS = uint32(evalTimeout / time.Millisecond)
	job.Frontend = p.self
	rep, err := p.dispatch(worker, job, evalTimeout+rpcMargin)
	if err != nil {
		p.noteFailure(worker)
		return wire.SessionReply{}, err
	}
	p.noteAlive(worker)
	return rep, nil
}

// dispatch sends the job once and waits for its reply or the deadline.
func (p *Pool) dispatch(worker string, job wire.SessionJob, deadline time.Duration) (wire.SessionReply, error) {
	ch := make(chan wire.SessionReply, 1)
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
		case <-timer.C:
			p.m.Observe("pool_dispatch_seconds", time.Since(start))
			return wire.SessionReply{}, fmt.Errorf("pool: worker %s: no reply within %v", worker, deadline)
		}
	}
}

// ---- placement ----

// place picks the least-loaded ready worker, excluding tried ones.
func (p *Pool) place(tried map[string]bool) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := make([]WorkerLoad, 0, len(p.workers))
	for name, w := range p.workers {
		if w.state != StateReady || tried[name] {
			continue
		}
		candidates = append(candidates, w.load)
	}
	if len(candidates) == 0 {
		return "", false
	}
	return leastLoaded(candidates), true
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
	return Result{Code: wire.SessSaturated, Err: msg, RetryAfterMS: 1000}
}

func fromReply(rep wire.SessionReply) Result {
	return Result{Code: rep.Code, Err: rep.Err, RetryAfterMS: rep.RetryAfterMS, Body: rep.Blob}
}

// Create places a new session on a worker and commits it to the log.
func (p *Pool) Create(netText, engine string, maxFacts int, evalTimeout time.Duration) Result {
	id := p.newID()
	job := wire.SessionJob{Op: wire.SessCreate, Session: id, NetText: netText,
		Engine: engine, MaxFacts: uint32(maxFacts)}
	tried := make(map[string]bool)
	for {
		worker, ok := p.place(tried)
		if !ok {
			return saturatedResult("pool: all workers saturated or unavailable")
		}
		rep, err := p.call(worker, job, evalTimeout)
		if err != nil {
			tried[worker] = true
			continue
		}
		switch rep.Code {
		case wire.SessOK:
			if err := p.cfg.Log.Commit(job, rep); err != nil {
				// Best effort: the worker's copy would otherwise wait for its
				// TTL. The client reads 503, as for other transient failures.
				p.call(worker, wire.SessionJob{Op: wire.SessDelete, Session: id}, evalTimeout) //nolint:errcheck
				return Result{Code: wire.SessRetry, Err: err.Error()}
			}
			p.mu.Lock()
			p.sessions[id] = &session{id: id, worker: worker, nextIndex: 1}
			p.mu.Unlock()
			return fromReply(rep)
		case wire.SessSaturated, wire.SessDraining, wire.SessRetry:
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

// Adopt registers a session the frontend's log holds, on no worker: it
// is re-materialized on one before it next answers. appends is how many
// appends its records cover, where its append numbering resumes. A
// restarted frontend adopts its log's sessions.
func (p *Pool) Adopt(id string, appends uint64) {
	p.mu.Lock()
	p.sessions[id] = &session{id: id, nextIndex: appends + 1}
	p.mu.Unlock()
}

// Append ships one append to the session's worker and commits the reply
// before answering: an HTTP 200 implies the append is in the log, so it
// survives any later worker failure.
func (p *Pool) Append(id, alarms string, evalTimeout time.Duration) Result {
	s := p.session(id)
	if s == nil {
		return notFoundResult()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job := wire.SessionJob{Op: wire.SessAppend, Session: id, Index: s.nextIndex, Alarms: alarms}
	rep, err := p.callLocked(s, job, evalTimeout)
	if err != nil {
		return saturatedResult(err.Error())
	}
	if err := p.cfg.Log.Commit(job, rep); err != nil {
		// The worker holds an append the log lacks: rebuild the session
		// from the log before it next answers.
		s.worker = ""
		return Result{Code: wire.SessRetry, Err: err.Error()}
	}
	if rep.Code == wire.SessOK {
		s.nextIndex++
	}
	return fromReply(rep)
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
	rep, err := p.callLocked(s, wire.SessionJob{Op: wire.SessGet, Session: id}, evalTimeout)
	if err != nil {
		return saturatedResult(err.Error())
	}
	return fromReply(rep)
}

// callLocked sends job to the worker of s (locked by the caller). A
// session on no worker, or whose worker stopped answering, lost it or
// diverged, is re-materialized on a healthy worker and tried once more.
func (p *Pool) callLocked(s *session, job wire.SessionJob, evalTimeout time.Duration) (wire.SessionReply, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if s.worker != "" {
			rep, err := p.call(s.worker, job, evalTimeout)
			if err == nil && rep.Code != wire.SessNotFound && rep.Code != wire.SessOutOfSync {
				return rep, nil
			}
		}
		if err := p.rematerializeLocked(s, nil); err != nil {
			return wire.SessionReply{}, err
		}
	}
	return wire.SessionReply{}, fmt.Errorf("pool: session %s: no worker answers", s.id)
}

// Delete removes the session from its worker (best effort: a worker
// that does not answer drops its copy with its TTL) and commits the
// delete, after which the pool never resurrects it.
func (p *Pool) Delete(id string, evalTimeout time.Duration) Result {
	s := p.session(id)
	if s == nil {
		return notFoundResult()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job := wire.SessionJob{Op: wire.SessDelete, Session: id}
	if s.worker != "" {
		p.call(s.worker, job, evalTimeout) //nolint:errcheck // best effort, see above
	}
	if err := p.cfg.Log.Commit(job, wire.SessionReply{}); err != nil {
		return Result{Code: wire.SessRetry, Err: err.Error()}
	}
	s.worker = "" // a pass that listed it before now skips it
	p.mu.Lock()
	delete(p.sessions, id)
	p.mu.Unlock()
	return Result{Code: wire.SessOK}
}

// Checkpoint ships the session's state from its worker and commits it,
// which makes it the session's new base in the log. A session on no
// worker has nothing to ship.
func (p *Pool) Checkpoint(id string) error {
	s := p.session(id)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.worker == "" {
		return nil
	}
	job := wire.SessionJob{Op: wire.SessShip, Session: id}
	rep, err := p.call(s.worker, job, 10*time.Second)
	if err == nil && rep.Code != wire.SessOK {
		err = fmt.Errorf("pool: ship %s: %s", id, rep.Err)
	}
	if err != nil {
		return err
	}
	return p.cfg.Log.Commit(job, rep)
}

// rematerializeLocked brings s (locked by the caller) up on a healthy
// worker other than its own: one SessReplay job carries its records
// (read from the log when nil) and the appends they cover, so the
// worker rebuilds it as the frontend's own boot replay would.
func (p *Pool) rematerializeLocked(s *session, records []byte) error {
	if records == nil {
		if records = p.cfg.Log.Records([]string{s.id})[s.id]; records == nil {
			return fmt.Errorf("pool: no records of session %s", s.id)
		}
	}
	job := wire.SessionJob{Op: wire.SessReplay, Session: s.id, Index: s.nextIndex - 1, Blob: records}
	tried := map[string]bool{s.worker: true}
	for {
		worker, ok := p.place(tried)
		if !ok {
			return fmt.Errorf("pool: no healthy worker to re-materialize session %s", s.id)
		}
		if rep, err := p.call(worker, job, replayTimeout); err == nil && rep.Code == wire.SessOK {
			p.log.Info("pool: session re-materialized", "session", s.id, "from", s.worker, "to", worker, "appends", job.Index)
			s.worker = worker
			p.m.Add("pool_migrations_total", 1)
			return nil
		}
		tried[worker] = true
	}
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
		if w.fails >= failAfter {
			w.state = StateDead
			evict = true
		}
	}
	p.mu.Unlock()
	if evict {
		p.log.Warn("pool: worker dead, re-homing its sessions", "worker", worker)
		go p.rehome(worker, false)
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
		// The ping doubles as liveness check and load sample.
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
	migrate := w != nil && w.state == StateReady
	if migrate {
		w.state = StateDraining
		w.fails = 0 // draining is cooperative, not a failure
	}
	p.mu.Unlock()
	if migrate {
		p.log.Info("pool: worker draining, migrating its sessions", "worker", name)
		go p.rehome(name, true)
	}
}

// sessionList lists every session. Callers filter by worker under each
// session's own lock: a placement may move between this listing and
// their pass over it.
func (p *Pool) sessionList() []*session {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*session, 0, len(p.sessions))
	for _, s := range p.sessions {
		out = append(out, s)
	}
	return out
}

// rehome moves every session homed on worker to a healthy one, from
// its records in the log, read once for the pass. A session that took
// an append since (its index moved) reads its own records again. A
// drained worker, still answering, then drops its copies.
//
// A session is moved under its own lock, so passes that overlap (a
// drainer dying mid-drain) move each session once.
func (p *Pool) rehome(worker string, drain bool) {
	homed := make(map[*session]uint64)
	var ids []string
	for _, s := range p.sessionList() {
		s.mu.Lock()
		if s.worker == worker {
			homed[s] = s.nextIndex
			ids = append(ids, s.id)
		}
		s.mu.Unlock()
	}
	records := p.cfg.Log.Records(ids)
	for s, next := range homed {
		s.mu.Lock()
		if s.worker == worker {
			recs := records[s.id]
			if s.nextIndex != next {
				recs = nil
			}
			if err := p.rematerializeLocked(s, recs); err != nil {
				p.log.Warn("pool: session lost until a worker recovers", "session", s.id, "err", err)
			} else if drain {
				// Best effort: free the drainer's copy so its drain finishes.
				p.call(worker, wire.SessionJob{Op: wire.SessDelete, Session: s.id}, 5*time.Second) //nolint:errcheck
			}
		}
		s.mu.Unlock()
	}
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
		if s.worker != "" {
			perWorker[s.worker]++
		}
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

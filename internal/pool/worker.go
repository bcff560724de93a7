package pool

import (
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Backend is the worker-side session service the pool schedules onto.
// internal/serve implements it over its session Store; the pool itself
// stays ignorant of nets, engines and reports — every method trades in
// the JSON response bodies the HTTP layer would have written, so a
// pooled session's responses are byte-identical to a local one's.
type Backend interface {
	// Create admits a session under the frontend-assigned ID and returns
	// the create-response body.
	Create(id, netText, engine string, maxFacts int) ([]byte, error)
	// Append feeds alarm text to the session and returns the
	// append-response body.
	Append(id, alarms string, timeout time.Duration) ([]byte, error)
	// Get returns the session-state response body.
	Get(id string) ([]byte, error)
	// Delete removes the session.
	Delete(id string) error
	// Ship serializes the session's checkpoint (opaque to the pool).
	Ship(id string) ([]byte, error)
	// Replay rebuilds the session from its frontend's records (opaque to
	// the pool), replacing any copy already live under the ID; timeout
	// bounds each append it re-evaluates.
	Replay(id string, records []byte, timeout time.Duration) error
	// Classify maps a method error onto a wire reply code and an optional
	// Retry-After hint in milliseconds.
	Classify(err error) (code uint32, retryAfterMS uint32)
	// Active counts live sessions (the load sample on every reply).
	Active() int
}

const (
	// executors is the number of job-executor goroutines per worker; jobs
	// are sharded to them by session ID, so per-session operations are
	// serialized (the idempotent-append dedup depends on that).
	executors = 2
	// queueDepth bounds each executor's queue; a job arriving past it is
	// refused immediately with SessSaturated.
	queueDepth = 64
)

// WorkerConfig tunes a pool worker.
type WorkerConfig struct {
	// Transport receives SessionJob frames and sends SessionReply frames.
	// The worker owns Start; the caller owns Close.
	Transport transport.Transport
	// Backend executes the session operations.
	Backend Backend
	// Metrics receives worker-side counters; nil discards.
	Metrics obs.Registry
	// Logger receives send-failure logs; nil discards.
	Logger *slog.Logger
}

// appliedState is the idempotency record for one session: how many
// appends have been applied, and the last reply sent — a duplicate of
// the latest operation returns the memoized reply instead of
// re-evaluating.
type appliedState struct {
	index    uint64 // appends applied (SessAppend.Index of the last success)
	lastBlob []byte // body of the last successful create or append
}

// drainingReply refuses a placement (a create or a replay) on a draining
// worker.
var drainingReply = wire.SessionReply{Code: wire.SessDraining, Err: "pool: worker draining", RetryAfterMS: 1000}

// Worker turns a peerd process into a pool member: it accepts
// SessionJob frames, executes them against the Backend (serialized per
// session), and replies with the result plus a load sample. Draining
// refuses new placements (creates and replays) while continuing to
// serve, ship and delete the sessions it holds.
type Worker struct {
	tr      transport.Transport
	backend Backend
	metrics obs.Registry
	log     *slog.Logger

	queues   []chan wire.SessionJob
	queued   atomic.Int64
	draining atomic.Bool

	mu      sync.Mutex
	applied map[string]*appliedState

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewWorker builds a worker; Start begins serving.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Metrics == nil {
		cfg.Metrics = nopRegistry{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	w := &Worker{
		tr:      cfg.Transport,
		backend: cfg.Backend,
		metrics: cfg.Metrics,
		log:     cfg.Logger,
		queues:  make([]chan wire.SessionJob, executors),
		applied: make(map[string]*appliedState),
		stop:    make(chan struct{}),
	}
	for i := range w.queues {
		w.queues[i] = make(chan wire.SessionJob, queueDepth)
	}
	return w
}

// Start installs the transport handler and spawns the executors.
func (w *Worker) Start() error {
	if err := w.tr.Start(w.handle); err != nil {
		return err
	}
	for _, q := range w.queues {
		w.wg.Add(1)
		go w.run(q)
	}
	return nil
}

// Close stops the executors. The transport is the caller's to close.
func (w *Worker) Close() {
	close(w.stop)
	w.wg.Wait()
}

// SetDraining flips the drain bit: once set, creates and replays are
// refused with SessDraining so the frontend migrates instead of placing.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Active counts live sessions on the backend.
func (w *Worker) Active() int { return w.backend.Active() }

// handle is the transport receive path: answer pings inline, shard the
// rest to the session's executor, shed immediately when that queue is
// full. Replies go to job.Frontend over the route the transport learned
// when the frontend dialed in.
func (w *Worker) handle(from string, f wire.Frame) {
	job, ok := f.(wire.SessionJob)
	if !ok {
		return
	}
	if job.Op == wire.SessPing {
		// Answered inline, never queued: a ping is a liveness probe, and a
		// worker grinding through a long evaluation is alive. Queuing it
		// behind session work would read as death to a tight probe deadline.
		// A draining worker answers SessDraining (it still serves what it
		// holds): that answer is how a frontend learns of the drain.
		if w.draining.Load() {
			w.send(job, wire.SessionReply{Code: wire.SessDraining, Err: "pool: worker draining"})
		} else {
			w.send(job, wire.SessionReply{})
		}
		return
	}
	q := w.queues[int(hash64(job.Session)%uint64(len(w.queues)))]
	select {
	case q <- job:
		w.queued.Add(1)
	default:
		w.metrics.Add("pool_worker_shed_total", 1)
		w.send(job, wire.SessionReply{Code: wire.SessSaturated,
			Err: "pool: worker queue full", RetryAfterMS: 1000})
	}
}

func (w *Worker) run(q chan wire.SessionJob) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case job := <-q:
			w.queued.Add(-1)
			w.exec(job)
		}
	}
}

func (w *Worker) exec(job wire.SessionJob) {
	switch job.Op {
	case wire.SessCreate:
		w.execCreate(job)
	case wire.SessAppend:
		w.execAppend(job)
	case wire.SessGet:
		body, err := w.backend.Get(job.Session)
		w.send(job, w.replyFor(body, err))
	case wire.SessDelete:
		err := w.backend.Delete(job.Session)
		w.mu.Lock()
		delete(w.applied, job.Session)
		w.mu.Unlock()
		w.send(job, w.replyFor(nil, err))
	case wire.SessShip:
		checkpoint, err := w.backend.Ship(job.Session)
		w.send(job, w.replyFor(checkpoint, err))
	case wire.SessReplay:
		// Rebuild the session from its records; append dedup resumes past
		// the Index appends they cover.
		if w.draining.Load() {
			w.send(job, drainingReply)
		} else if err := w.backend.Replay(job.Session, job.Blob, timeoutOf(job)); err != nil {
			w.send(job, w.replyFor(nil, err))
		} else {
			w.mu.Lock()
			w.applied[job.Session] = &appliedState{index: job.Index}
			w.mu.Unlock()
			w.send(job, wire.SessionReply{})
		}
	default:
		w.send(job, wire.SessionReply{Code: wire.SessBad, Err: "pool: unknown op"})
	}
}

func (w *Worker) execCreate(job wire.SessionJob) {
	w.mu.Lock()
	st, exists := w.applied[job.Session]
	w.mu.Unlock()
	if exists {
		// A duplicate create: the first one landed. Resend its reply.
		w.send(job, wire.SessionReply{Blob: st.lastBlob})
		return
	}
	if w.draining.Load() {
		w.send(job, drainingReply)
		return
	}
	body, err := w.backend.Create(job.Session, job.NetText, job.Engine, int(job.MaxFacts))
	rep := w.replyFor(body, err)
	if err == nil {
		w.mu.Lock()
		w.applied[job.Session] = &appliedState{lastBlob: body}
		w.mu.Unlock()
	}
	w.send(job, rep)
}

func (w *Worker) execAppend(job wire.SessionJob) {
	w.mu.Lock()
	st := w.applied[job.Session]
	w.mu.Unlock()
	switch {
	case st == nil:
		w.send(job, wire.SessionReply{Code: wire.SessNotFound, Err: "pool: no such session on worker"})
		return
	case job.Index <= st.index:
		// Duplicate of an already-applied append: the memoized reply,
		// never a second evaluation.
		w.metrics.Add("pool_worker_dedup_total", 1)
		w.send(job, wire.SessionReply{Blob: st.lastBlob})
		return
	case job.Index != st.index+1:
		w.send(job, wire.SessionReply{Code: wire.SessOutOfSync, Err: "pool: append index gap"})
		return
	}
	body, err := w.backend.Append(job.Session, job.Alarms, timeoutOf(job))
	rep := w.replyFor(body, err)
	if err == nil {
		w.mu.Lock()
		st.index, st.lastBlob = job.Index, body
		w.mu.Unlock()
	}
	w.send(job, rep)
}

// replyFor maps a backend result onto a reply via Backend.Classify.
func (w *Worker) replyFor(body []byte, err error) wire.SessionReply {
	if err == nil {
		return wire.SessionReply{Blob: body}
	}
	code, retry := w.backend.Classify(err)
	return wire.SessionReply{Code: code, Err: err.Error(), RetryAfterMS: retry}
}

// send stamps the reply with the echo fields and the load sample, then
// ships it back to the requesting frontend.
func (w *Worker) send(job wire.SessionJob, rep wire.SessionReply) {
	rep.Req = job.Req
	rep.Active = uint32(w.backend.Active())
	if q := w.queued.Load(); q > 0 {
		rep.Queued = uint32(q)
	}
	if job.Frontend == "" {
		return
	}
	if err := w.tr.Send(job.Frontend, rep); err != nil {
		w.log.Warn("pool worker: reply not sent", "frontend", job.Frontend, "err", err)
	}
}

func timeoutOf(job wire.SessionJob) time.Duration {
	if job.TimeoutMS == 0 {
		return 30 * time.Second
	}
	return time.Duration(job.TimeoutMS) * time.Millisecond
}

// nopRegistry discards metrics.
type nopRegistry struct{}

func (nopRegistry) Add(string, int64)             {}
func (nopRegistry) SetGauge(string, int64)        {}
func (nopRegistry) Observe(string, time.Duration) {}

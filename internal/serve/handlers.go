package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/wal"
	"repro/internal/wire"
)

// maxBody caps request bodies.
const maxBody = 1 << 20

// Config tunes the server.
type Config struct {
	// Store bounds the session table.
	Store StoreConfig
	// EvalTimeout caps each evaluation; a shorter request-context deadline
	// wins. 0 means 30s.
	EvalTimeout time.Duration
	// SweepEvery is the TTL sweep period. 0 means 30s; negative disables
	// the background sweeper (tests drive Sweep directly).
	SweepEvery time.Duration
	// DataDir enables durability: every create, append, delete, eviction
	// and expiry is logged to the write-ahead log at <DataDir>/wal before
	// it is acknowledged, session checkpoints are records of the same log,
	// and a restarted server replays it — with Fsync always, a kill -9
	// loses nothing that was acknowledged. Empty disables persistence.
	DataDir string
	// Fsync is the WAL durability policy (wal.SyncAlways, the zero value,
	// fsyncs every record before acknowledging; SyncInterval batches;
	// SyncNever leaves flushing to the OS).
	Fsync wal.Policy
	// ReadOnly starts the server as a replication follower: create,
	// append and delete refuse with 503 ErrReadOnly until a promote
	// (POST /v1/admin/promote) flips the server writable. Reads, health
	// and metrics always work.
	ReadOnly bool
	// Logger receives persistence and drain-disposition logs; nil
	// discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.EvalTimeout == 0 {
		c.EvalTimeout = 30 * time.Second
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = 30 * time.Second
	}
	return c
}

// Server is the streaming diagnosis service: session CRUD, incremental
// alarm appends, health and metrics, with graceful shutdown draining
// in-flight evaluations.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux
	log     *slog.Logger
	wal     *serverWAL // nil when Config.DataDir is empty or unusable

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
	finalize sync.Once // checkpoint-and-clear runs exactly once across concurrent Shutdowns

	// pool, when non-nil, turns the server into a frontend (NewFrontend):
	// session operations are dispatched to remote peerd workers instead
	// of the local store. privateDir is the log's directory when the
	// server made it, removed at shutdown.
	pool       *pool.Pool
	privateDir string

	// readOnly gates the mutating handlers while the server follows a
	// replication primary; promote flips it off exactly once.
	readOnly  atomic.Bool
	promoteMu sync.Mutex
	promoteFn func() (epoch uint64, err error)

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewServer builds the service, replays the write-ahead log under
// Config.DataDir, and starts its TTL sweeper (unless disabled). Callers
// must Shutdown it to stop the sweeper and checkpoint the session table.
// An unusable data dir is logged and the server runs without
// persistence: serving sessions beats refusing to start.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	RegisterRuntimeGauges(m)
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(cfg.Store, m),
		metrics:   m,
		mux:       http.NewServeMux(),
		log:       log,
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.readOnly.Store(cfg.ReadOnly)
	if cfg.DataDir != "" {
		if l, err := s.openLog(); err != nil {
			s.log.Error("data dir unusable; persistence disabled", "dir", cfg.DataDir, "err", err)
		} else {
			s.useWAL(l)
		}
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/alarms", s.handleAppend)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/admin/promote", s.handlePromote)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	if cfg.SweepEvery > 0 {
		go s.sweeper()
	} else {
		close(s.sweepDone)
	}
	return s
}

// openLog opens the write-ahead log under Config.DataDir. It refuses,
// touching nothing, a dir an older build left session snapshot files
// in: those files are not read.
func (s *Server) openLog() (*wal.Log, error) {
	dir := s.cfg.DataDir
	if legacy, _ := filepath.Glob(filepath.Join(dir, "*.dsnp")); len(legacy) > 0 {
		return nil, fmt.Errorf("data dir holds session snapshot files of an older build (see README, Upgrading): %v", legacy)
	}
	return wal.Open(filepath.Join(dir, walDirName), wal.Options{Fsync: s.cfg.Fsync, Metrics: s.metrics})
}

// useWAL makes l the server's durable store: it replays l, starts the
// checkpointer and, unless the server follows a primary, logs to l.
func (s *Server) useWAL(l *wal.Log) {
	s.wal = newServerWAL(l, s.store, s.metrics, s.log)
	s.replayWAL(s.applyWALRecord)
	if n := s.store.Len(); n > 0 {
		s.log.Info("wal: replay complete", "sessions", n)
	}
	if !s.cfg.ReadOnly {
		s.store.SetWAL(s.wal)
	}
}

// Metrics exposes the registry (cmd/diagnosed adds process gauges).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the session table (tests drive Sweep directly).
func (s *Server) Store() *Store { return s.store }

func (s *Server) sweeper() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-t.C:
			if !s.readOnly.Load() {
				// A follower's sessions end with the primary's delete
				// records; it must not expire them on its own.
				s.store.Sweep(now)
			}
		}
	}
}

// ServeHTTP implements http.Handler. Every request except health and
// metrics counts as in-flight work for graceful shutdown; once draining,
// new work is load-shed with 503 while /healthz reports the drain and
// /metrics stays readable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		s.mux.ServeHTTP(w, r)
		return
	}
	if !s.enter() {
		// The drain is short-lived: the client should retry against the
		// restarted (or replacement) instance, not give up.
		w.Header().Set("Retry-After", "1")
		s.fail(w, ErrDraining)
		return
	}
	defer s.inflight.Done()
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	s.mux.ServeHTTP(w, r)
}

// enter registers an in-flight request, refusing once draining. The
// mutex closes the Add/Wait race: Shutdown flips draining under the same
// lock before waiting.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: new requests are refused with 503, the TTL
// sweeper stops, in-flight evaluations run to completion (or until ctx
// expires), then every session is closed. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		close(s.sweepStop)
	}
	<-s.sweepDone

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.finalize.Do(func() {
		if s.wal != nil {
			// In-flight appends are done: checkpoint every live session, then
			// close the log so Clear cannot log anything. Nothing reads a
			// private log again, so its sessions are not checkpointed.
			s.wal.close(s.privateDir == "")
		}
		s.store.Clear()
		if s.pool != nil {
			s.pool.Close()
		}
		os.RemoveAll(s.privateDir) //nolint:errcheck // best effort; "" removes nothing
	})
	return nil
}

// evalTimeout derives the evaluation budget for one request: the
// configured cap, shortened by any request-context deadline.
func (s *Server) evalTimeout(r *http.Request) time.Duration {
	d := s.cfg.EvalTimeout
	if deadline, ok := r.Context().Deadline(); ok {
		if rem := time.Until(deadline); rem < d {
			d = rem
		}
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// ---- wire types ----

type createRequest struct {
	// Net is the textual net format (parser.Net); required.
	Net string `json:"net"`
	// Engine is direct | product | naive | dqsq (default dqsq).
	Engine string `json:"engine"`
	// MaxFacts is the session's fact budget; 0 takes the server default.
	MaxFacts int `json:"max_facts"`
}

type createResponse struct {
	ID       string   `json:"id"`
	Engine   string   `json:"engine"`
	Peers    []string `json:"peers"`
	MaxFacts int      `json:"max_facts"`
}

type appendRequest struct {
	// Alarms is one or many observations in the textual format, e.g.
	// "b@p1 a@p2".
	Alarms string `json:"alarms"`
}

type reportJSON struct {
	Engine     string     `json:"engine"`
	Diagnoses  [][]string `json:"diagnoses"`
	TransFacts int        `json:"trans_facts"`
	PlaceFacts int        `json:"place_facts"`
	Derived    int        `json:"derived"`
	Messages   int        `json:"messages"`
	ElapsedMS  float64    `json:"elapsed_ms"`
	Truncated  bool       `json:"truncated"`
}

func toReportJSON(rep *core.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	diags := rep.Diagnoses
	if diags == nil {
		diags = [][]string{}
	}
	return &reportJSON{
		Engine:     EngineName(rep.Engine),
		Diagnoses:  diags,
		TransFacts: rep.TransFacts,
		PlaceFacts: rep.PlaceFacts,
		Derived:    rep.Derived,
		Messages:   rep.Messages,
		ElapsedMS:  float64(rep.Elapsed.Microseconds()) / 1000,
		Truncated:  rep.Truncated,
	}
}

type appendResponse struct {
	Alarms       int         `json:"alarms"`
	Added        []string    `json:"added"`
	Removed      []string    `json:"removed"`
	DerivedDelta int         `json:"derived_delta"`
	Report       *reportJSON `json:"report"`
}

type sessionResponse struct {
	ID        string      `json:"id"`
	Engine    string      `json:"engine"`
	MaxFacts  int         `json:"max_facts"`
	Created   time.Time   `json:"created"`
	LastUsed  time.Time   `json:"last_used"`
	Alarms    int         `json:"alarms"`
	Exhausted bool        `json:"exhausted"`
	Seq       string      `json:"seq"`
	Report    *reportJSON `json:"report"`
	// SnapshotAgeSeconds is how old the session's latest checkpoint
	// record is. Absent while the session has never been checkpointed or
	// persistence is disabled.
	SnapshotAgeSeconds *float64 `json:"snapshot_age_seconds,omitempty"`
}

func newCreateResponse(sess *Session) createResponse {
	peers := []string{}
	for _, p := range sess.inc.System().Peers() {
		peers = append(peers, string(p))
	}
	return createResponse{ID: sess.ID, Engine: EngineName(sess.Engine), Peers: peers, MaxFacts: sess.Facts}
}

func newAppendResponse(res *AppendResult) appendResponse {
	added, removed := res.Added, res.Removed
	if added == nil {
		added = []string{}
	}
	if removed == nil {
		removed = []string{}
	}
	return appendResponse{
		Alarms:       res.Alarms,
		Added:        added,
		Removed:      removed,
		DerivedDelta: res.DerivedDelta,
		Report:       toReportJSON(res.Report),
	}
}

func newSessionResponse(st State) sessionResponse {
	resp := sessionResponse{
		ID:        st.ID,
		Engine:    EngineName(st.Engine),
		MaxFacts:  st.Facts,
		Created:   st.Created,
		LastUsed:  st.LastUsed,
		Alarms:    st.Alarms,
		Exhausted: st.Exhausted,
		Seq:       parser.FormatAlarms(st.Seq),
		Report:    toReportJSON(st.Report),
	}
	if !st.LastSnap.IsZero() {
		age := time.Since(st.LastSnap).Seconds()
		resp.SnapshotAgeSeconds = &age
	}
	return resp
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	start := time.Now()
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, badInput(fmt.Errorf("bad request body: %w", err)))
		return
	}
	if s.pool != nil {
		// Frontend mode: the worker parses the net and warms the engine;
		// the frontend only burns cycles on placement and its log.
		res := s.pool.Create(req.Net, req.Engine, req.MaxFacts, s.evalTimeout(r))
		s.metrics.Observe("diagnosed_create_seconds", time.Since(start))
		s.writePoolResult(w, http.StatusCreated, res)
		return
	}
	sess, err := s.store.Create(req.Net, req.Engine, req.MaxFacts, time.Now())
	if err != nil {
		s.fail(w, err)
		return
	}
	s.metrics.Observe("diagnosed_create_seconds", time.Since(start))
	s.writeJSON(w, http.StatusCreated, newCreateResponse(sess))
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	var req appendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, badInput(fmt.Errorf("bad request body: %w", err)))
		return
	}
	if s.pool != nil {
		start := time.Now()
		res := s.pool.Append(r.PathValue("id"), req.Alarms, s.evalTimeout(r))
		s.metrics.Observe("diagnosed_append_seconds", time.Since(start))
		s.writePoolResult(w, http.StatusOK, res)
		return
	}
	body, err := s.store.appendBody(r.PathValue("id"), req.Alarms, s.evalTimeout(r))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.pool != nil {
		// The worker is authoritative for session state (seq, report,
		// exhaustion); the frontend only logs what changes it.
		s.writePoolResult(w, http.StatusOK, s.pool.Get(r.PathValue("id"), 10*time.Second))
		return
	}
	body, err := s.store.getBody(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// handleTrace exports the session's evaluation trace as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// A pool frontend's table is empty: the trace buffer lives with the warm
// engine on the worker, whose admin endpoint exports it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.store.Get(r.PathValue("id"), time.Now())
	if !ok {
		s.fail(w, errNoSession)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := sess.WriteTrace(w); err != nil {
		// Headers are gone; nothing to report but the connection state.
		return
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	id := r.PathValue("id")
	if s.pool != nil {
		s.writePoolResult(w, http.StatusNoContent, s.pool.Delete(id, 10*time.Second))
		return
	}
	if err := s.store.remove(id); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// promoteResponse acknowledges a successful promote with the fencing
// epoch the server now serves under.
type promoteResponse struct {
	Epoch uint64 `json:"epoch"`
}

// handlePromote turns a read-only follower into the primary: the
// configured promote hook (cmd/diagnosed: stop the stream, bump and
// persist the fencing epoch, start shipping) runs first, and only then
// do the mutating handlers open. An already-writable server answers
// 409 — promote is not idempotent; the epoch bump fences the old
// primary and must happen exactly once per failover.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		s.writeJSON(w, http.StatusConflict, errorResponse{Error: "already primary"})
		return
	}
	var epoch uint64
	if s.promoteFn != nil {
		e, err := s.promoteFn()
		if err != nil {
			s.writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("promote failed: %v", err)})
			return
		}
		epoch = e
	}
	if s.wal != nil {
		s.store.SetWAL(s.wal) // the log is this server's own from here on
	}
	s.readOnly.Store(false)
	s.log.Info("promoted to primary", "epoch", epoch)
	s.writeJSON(w, http.StatusOK, promoteResponse{Epoch: epoch})
}

// SetPromote installs the hook handlePromote runs before the server
// goes writable. It must return the new fencing epoch.
func (s *Server) SetPromote(fn func() (uint64, error)) {
	s.promoteMu.Lock()
	s.promoteFn = fn
	s.promoteMu.Unlock()
}

// ReadOnly reports whether the server is refusing mutations (a
// replication follower awaiting promote).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// ---- error mapping ----

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeBody(v))
}

// encodeBody is the one JSON body encoder (two-space indent, trailing
// newline), for local responses and worker-rendered pool bodies alike:
// that is what keeps the two byte-identical.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // in-memory encode of plain structs
	return buf.Bytes()
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // nothing to do about a dead client
}

// fail maps service errors to statuses: bad input 400, exhausted
// per-session budget 429, overload or drain 503, evaluation timeout 504,
// unknown or vanished session 404.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadInput):
		status = http.StatusBadRequest
	case errors.Is(err, ErrExhausted):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining), errors.Is(err, ErrReadOnly):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusNotFound
	case timeoutErr(err):
		status = http.StatusGatewayTimeout
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writePoolResult renders a pooled operation's outcome: success writes
// the worker-rendered body verbatim (byte-identical to local serving),
// errors map wire codes onto the same statuses fail uses, with
// Retry-After carrying the pool's backpressure hint.
func (s *Server) writePoolResult(w http.ResponseWriter, okStatus int, res pool.Result) {
	if res.Code == wire.SessOK {
		if len(res.Body) == 0 {
			w.WriteHeader(okStatus)
			return
		}
		writeBody(w, okStatus, res.Body)
		return
	}
	if res.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((res.RetryAfterMS+999)/1000)))
	}
	status := http.StatusInternalServerError
	switch res.Code {
	case wire.SessExhausted:
		status = http.StatusTooManyRequests
	case wire.SessSaturated, wire.SessDraining, wire.SessRetry:
		status = http.StatusServiceUnavailable
	case wire.SessNotFound:
		status = http.StatusNotFound
	case wire.SessTimeout:
		status = http.StatusGatewayTimeout
	case wire.SessBad:
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, errorResponse{Error: res.Err})
}

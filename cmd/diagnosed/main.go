// Command diagnosed is the streaming diagnosis server: it keeps warm
// incremental diagnosis sessions (internal/serve) behind an HTTP/JSON
// API, so a supervisor can open a session on a net once and stream
// alarms to it as they are observed.
//
//	diagnosed -addr :8344
//	diagnosed -addr :8344 -data-dir /var/lib/diagnosed
//
//	POST   /v1/sessions             {"net": "...", "engine": "dqsq", "max_facts": 0}
//	POST   /v1/sessions/{id}/alarms {"alarms": "b@p1 a@p2"}
//	GET    /v1/sessions/{id}
//	DELETE /v1/sessions/{id}
//	POST   /v1/admin/promote
//	GET    /healthz
//	GET    /metrics
//
// With -replicate-listen the server additionally answers live replicas'
// pulls for its WAL over the peer transport on that address (a follower
// that cannot resume wipes its state and streams from the first record
// the primary holds); with -follow ADDR it runs as a read-only follower
// of the primary at ADDR, pulling from a transport on an ephemeral port
// of the interface that routes to ADDR and applying the stream through the same replay path boot recovery
// uses. POST /v1/admin/promote turns a follower into the primary: the
// stream drains, the fencing epoch bumps (persisted to
// <data-dir>/repl.epoch, and stamped on every replication batch, so a
// partitioned ex-primary can never feed promoted nodes again), and the
// mutating endpoints open.
//
// SIGINT/SIGTERM drain gracefully: new work is refused with 503 (plus a
// Retry-After header) while in-flight evaluations finish (bounded by
// -drain-timeout). With -data-dir, every create, append and delete is
// logged to the write-ahead log under <data-dir>/wal before it is
// acknowledged, session checkpoints are records of the same log (every
// 16 appends and on drain), and a restarted server replays it: under
// -fsync always a kill -9 loses no acknowledged append.
//
// With -pool the server is a frontend: sessions run on the listed peerd
// workers, and the frontend logs their records as it logs its own — to
// -data-dir when given (a restarted frontend re-materializes each session
// on a worker from it), else to a private directory, removed at
// shutdown. A frontend does not replicate.
//
// Every request is access-logged to stderr as structured log/slog lines
// (method, path, session, status, duration; /healthz and /metrics polls
// log at debug level and are hidden unless -v). Per-session evaluation
// traces are exported at GET /v1/sessions/{id}/trace; -pprof additionally
// serves the runtime profiles at /debug/pprof/.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/pool"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", ":8344", "listen address")
		maxSessions  = flag.Int("max-sessions", 64, "session table cap (LRU eviction past it)")
		sessionFacts = flag.Int("session-facts", 1<<20, "default per-session fact budget")
		globalFacts  = flag.Int("global-facts", 64<<20, "global reserved-fact budget (503 past it)")
		ttl          = flag.Duration("ttl", 15*time.Minute, "idle session expiry")
		sweepEvery   = flag.Duration("sweep", 30*time.Second, "TTL sweep period")
		evalTimeout  = flag.Duration("eval-timeout", 30*time.Second, "per-append evaluation timeout")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		dataDir      = flag.String("data-dir", "", "directory for the session write-ahead log (enables restart recovery, pooled sessions included; a kill -9 loses no acknowledged append under -fsync always)")
		fsync        = flag.String("fsync", "always", "WAL fsync policy: always | interval | never")
		replListen   = flag.String("replicate-listen", "", "address to stream the WAL to followers on (requires -data-dir)")
		follow       = flag.String("follow", "", "primary replication address to follow; the server starts read-only (requires -data-dir)")
		replHB       = flag.Duration("repl-heartbeat", 500*time.Millisecond, "follower: how long the primary may hold an empty answer to a pull (a pull unanswered for 6x this is sent again)")
		poolAddrs    = flag.String("pool", "", "comma-separated peerd pool worker addresses; enables frontend mode (sessions run on workers, not in-process)")
		poolListen   = flag.String("pool-listen", "127.0.0.1:0", "transport listen address for pool replies (frontend mode)")
		poolPolicy   = flag.String("pool-policy", "least", "pool placement policy: least (least-loaded, the only one)")
		withPprof    = flag.Bool("pprof", false, "serve runtime profiles at /debug/pprof/")
		verbose      = flag.Bool("v", false, "log /healthz and /metrics polls too")
	)
	flag.Parse()

	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		slog.Error("bad -fsync", "err", err)
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// A follower would evaluate a pool frontend's sessions in-process,
	// and a read-only frontend has nothing to serve.
	if (*replListen != "" || *follow != "") && (*dataDir == "" || *poolAddrs != "") {
		logger.Error("replication requires -data-dir (the WAL is what gets shipped) and no -pool")
		os.Exit(2)
	}
	if *poolPolicy != "least" {
		logger.Error("bad -pool-policy (want least)", "got", *poolPolicy)
		os.Exit(2)
	}

	cfg := serve.Config{
		Store: serve.StoreConfig{
			MaxSessions:  *maxSessions,
			SessionFacts: *sessionFacts,
			GlobalFacts:  *globalFacts,
			TTL:          *ttl,
		},
		EvalTimeout: *evalTimeout,
		SweepEvery:  *sweepEvery,
		DataDir:     *dataDir,
		Fsync:       policy,
		ReadOnly:    *follow != "",
		Logger:      logger,
	}
	var srv *serve.Server
	if *poolAddrs == "" {
		srv = serve.NewServer(cfg)
	} else {
		// Frontend mode: schedule sessions onto a fleet of peerd workers
		// instead of evaluating them in-process.
		tr, err := transport.ListenTCP(randomName("fe-"), *poolListen)
		if err != nil {
			logger.Error("pool transport listen failed", "addr", *poolListen, "err", err)
			os.Exit(1)
		}
		if srv, err = serve.NewFrontend(cfg, pool.Config{Transport: tr, Workers: strings.Split(*poolAddrs, ",")}); err != nil {
			logger.Error("pool setup failed", "err", err)
			os.Exit(1)
		}
		logger.Info("frontend mode: pooling sessions", "workers", *poolAddrs)
	}
	start := time.Now()
	srv.Metrics().Gauge("diagnosed_uptime_seconds", func() int64 {
		return int64(time.Since(start).Seconds())
	})

	// Replication: ship the WAL to followers and/or follow a primary.
	// The fencing epoch lives next to the data it fences.
	var (
		replPrimary  *repl.Primary
		replFollower *repl.Follower
	)
	if *replListen != "" || *follow != "" {
		if !srv.ReplEnabled() {
			logger.Error("replication unavailable: the WAL failed to open")
			os.Exit(1)
		}
		epochPath := filepath.Join(*dataDir, repl.EpochFile)
		epoch, err := repl.LoadEpoch(epochPath)
		if err != nil {
			logger.Error("bad epoch file", "path", epochPath, "err", err)
			os.Exit(1)
		}
		// Both ends speak the peer transport: the primary's node is named by
		// its address, as a pool worker's is; a follower listens on an
		// ephemeral port of the interface that routes to the primary, which
		// its pulls announce.
		if *replListen != "" {
			tr, err := transport.ListenTCP(*replListen, *replListen)
			if err == nil {
				replPrimary, err = repl.NewPrimary(srv.WALLog(), tr, repl.PrimaryOptions{
					Epoch:   epoch,
					Metrics: srv.Metrics(),
					Logger:  logger,
				})
			}
			if err != nil {
				logger.Error("replication listen failed", "addr", *replListen, "err", err)
				os.Exit(1)
			}
			logger.Info("replicating to followers", "listen", *replListen, "epoch", epoch)
		}
		if *follow != "" {
			listen, err := towards(*follow)
			var tr *transport.TCP
			if err == nil {
				tr, err = transport.ListenTCP(randomName("fol-"), listen)
			}
			if err == nil {
				tr.AddRoute(*follow, *follow)
				replFollower, err = repl.NewFollower(tr, *follow, srv.ReplApplier(), repl.FollowerOptions{
					Epoch:        epoch,
					PersistEpoch: func(e uint64) error { return repl.SaveEpoch(epochPath, e) },
					Heartbeat:    *replHB,
					Metrics:      srv.Metrics(),
					Logger:       logger,
				})
			}
			if err != nil {
				logger.Error("replication transport failed", "err", err)
				os.Exit(1)
			}
			replFollower.Start()
			srv.Metrics().GaugeFloat("repl_lag_seconds", func() float64 {
				return replFollower.Status().SinceContact.Seconds()
			})
			// Promote: drain the stream, then bump and persist the fencing
			// epoch BEFORE serving writes — the bump is what keeps a
			// partitioned ex-primary from ever feeding this node again. A
			// configured -replicate-listen keeps shipping under the new epoch.
			srv.SetPromote(func() (uint64, error) {
				replFollower.Stop()
				newEpoch := replFollower.Epoch() + 1
				if err := repl.SaveEpoch(epochPath, newEpoch); err != nil {
					return 0, err
				}
				if replPrimary != nil {
					replPrimary.SetEpoch(newEpoch)
				}
				srv.Metrics().SetGauge("repl_epoch", int64(newEpoch))
				logger.Info("promoted: now serving writes", "epoch", newEpoch)
				return newEpoch, nil
			})
			logger.Info("following primary", "addr", *follow, "epoch", epoch)
		}
	}

	var handler http.Handler = srv
	if *withPprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}
	handler = accessLog(logger, handler)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "pprof", *withPprof)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "timeout", *drainTimeout)
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then the replication stream (it
	// holds the WAL open), then drain in-flight evaluations.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	if replFollower != nil {
		replFollower.Stop()
	}
	if replPrimary != nil {
		replPrimary.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// randomName is a transport node name: prefix and 8 random hex digits.
func randomName(prefix string) string {
	var suffix [4]byte
	rand.Read(suffix[:]) //nolint:errcheck // crypto/rand never fails here
	return prefix + hex.EncodeToString(suffix[:])
}

// towards is a listen address on an ephemeral port of the local
// interface that routes to addr, so a follower listens only where its
// primary reaches it. Connecting a UDP socket sends nothing; it only
// picks the route.
func towards(addr string) (string, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	return net.JoinHostPort(c.LocalAddr().(*net.UDPAddr).IP.String(), "0"), nil
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// accessLog wraps h with structured request logging: method, path,
// session (when the path names one), status and duration. Health and
// metrics polls log at debug so they do not drown the interesting lines.
func accessLog(logger *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)

		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", time.Since(start).Round(time.Microsecond).String(),
		}
		if id := sessionID(r.URL.Path); id != "" {
			attrs = append(attrs, "session", id)
		}
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			logger.Debug("request", attrs...)
			return
		}
		logger.Info("request", attrs...)
	})
}

// sessionID extracts the {id} segment of /v1/sessions/{id}[/...] paths.
func sessionID(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

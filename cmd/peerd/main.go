// Command peerd hosts a share of the peers of a distributed diagnosis in
// its own process. A driver (diagnose -peers, or code using
// diagnosis.RunDistributed) ships it the system description and the peer
// assignment; peerd rebuilds the Datalog program locally and evaluates
// its peers' share of the job's one round over TCP.
//
// Usage:
//
//	peerd -name n1                          # pick a free port
//	peerd -name n2 -listen 127.0.0.1:7402
//
// peerd keeps nothing on disk: its share of the program is rebuilt from
// every job the driver ships. A killed process restarted with the same
// flags answers the frames of a round that was in flight when it died
// with an error report (so the driver fails fast and re-ships instead of
// timing out), and the next shipped job proceeds normally. It reaches the
// driver over the route its transport learns when the driver dials in.
//
// It prints "peerd listening ADDR" once the socket is bound, then serves
// until killed. The -name must match the name the driver uses for this
// node in its -peers list.
//
// With -admin ADDR, peerd also serves an HTTP admin endpoint:
//
//	GET /metrics   engine counters plus Go runtime gauges, Prometheus text
//	GET /healthz   200 "ok" once the node is bound; 503 "starting" before
//	               that, 503 "draining" after SIGTERM
//	GET /v1/trace  this node's spans as Chrome trace-event JSON
//
// The admin line "peerd admin listening ADDR" prints after the transport
// line, so scripts scanning the first line keep working.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/transport"
)

// adminEndpoint is the peerd observability surface: a metrics registry fed
// by the node's tracer, a flight recorder of its newest trace events
// (the process lives across many rounds, so the ring keeps the latest
// ones rather than the first), and the lifecycle bits
// health probes read: ready (bound) and draining
// (finishing owned work, place nothing new here).
type adminEndpoint struct {
	metrics  *serve.Metrics
	trace    *obs.ChromeTraceWriter
	ready    atomic.Bool
	draining atomic.Bool
}

func newAdminEndpoint() *adminEndpoint {
	a := &adminEndpoint{metrics: serve.NewMetrics(), trace: obs.NewChromeTraceWriter(0)}
	serve.RegisterRuntimeGauges(a.metrics)
	a.metrics.Gauge("trace_events_dropped_total", a.trace.Dropped)
	return a
}

// tracer is what the node's engines observe through: spans and flows into
// the trace buffer, counters and gauges folded into /metrics. Round spans
// additionally feed the dist_round_latency_seconds histogram — this node's
// own view of each cluster round.
func (a *adminEndpoint) tracer() obs.Tracer {
	sink := obs.NewMetricsSink(a.metrics)
	sink.ObserveSpans("dist-round", "dist_round_latency_seconds")
	return obs.Multi(a.trace, sink)
}

// serveHTTP binds addr and serves the admin API in the background,
// returning the bound address.
func (a *adminEndpoint) serveHTTP(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		a.metrics.WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Draining is 503 like dead-adjacent states, but the body tells
		// operators "stop placing, migrate" apart from "evict": a drained
		// worker is cooperating, not failing. (Pool frontends learn of
		// the drain from the worker's ping reply, not from here.)
		if a.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if a.ready.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		a.trace.WriteJSON(w) //nolint:errcheck // a hung-up scraper is its own problem
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, mux) //nolint:errcheck // runs until the process exits
	return ln.Addr().String(), nil
}

func main() {
	var (
		name         = flag.String("name", "", "this node's name in the cluster (required)")
		listen       = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		driver       = flag.String("driver", "driver", "the driver node's name")
		admin        = flag.String("admin", "", "HTTP admin listen address (/metrics, /healthz, /v1/trace); empty disables")
		poolAddr     = flag.String("pool", "", "session-pool listen address (host:port; doubles as this worker's pool identity); empty disables worker mode")
		poolSessions = flag.Int("pool-max-sessions", 64, "session table cap in pool worker mode")
		poolFacts    = flag.Int("pool-global-facts", 64<<20, "global reserved-fact budget in pool worker mode")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for pooled sessions to migrate away before exiting")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "peerd: -name is required")
		os.Exit(2)
	}
	tr, err := transport.ListenTCP(*name, *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peerd: %v\n", err)
		os.Exit(1)
	}
	n, err := diagnosis.NewNode(tr, *driver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "peerd: %v\n", err)
		os.Exit(1)
	}
	var adm *adminEndpoint
	adminAddr := ""
	if *admin != "" {
		adm = newAdminEndpoint()
		adminAddr, err = adm.serveHTTP(*admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peerd: admin listener: %v\n", err)
			os.Exit(1)
		}
		n.SetTracer(adm.tracer())
	}
	// Pool worker mode: a second transport (identity = the advertised
	// pool address, which is what frontends dial and name it by) feeding
	// session jobs into a local serve Store through the pool Backend.
	var worker *pool.Worker
	if *poolAddr != "" {
		ptr, err := transport.ListenTCP(*poolAddr, *poolAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peerd: pool listener: %v\n", err)
			os.Exit(1)
		}
		metrics := serve.NewMetrics()
		if adm != nil {
			metrics = adm.metrics
		}
		store := serve.NewStore(serve.StoreConfig{
			MaxSessions: *poolSessions,
			GlobalFacts: *poolFacts,
		}, metrics)
		worker = pool.NewWorker(pool.WorkerConfig{
			Transport: ptr,
			Backend:   serve.NewPoolBackend(store, metrics),
			Metrics:   metrics,
		})
		if err := worker.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "peerd: pool worker: %v\n", err)
			os.Exit(1)
		}
		defer ptr.Close() //nolint:errcheck // process exit path
		fmt.Printf("peerd pool listening %s\n", ptr.Addr())
	}

	fmt.Printf("peerd listening %s\n", tr.Addr())
	if adm != nil {
		// Bound: the node is ready for a driver's jobs.
		adm.ready.Store(true)
		fmt.Printf("peerd admin listening %s\n", adminAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- n.Serve() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "peerd: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		// Graceful drain: flip /healthz to "draining" and refuse new pool
		// placements, then wait for the frontend to migrate the sessions
		// away (bounded) before exiting.
		if adm != nil {
			adm.draining.Store(true)
		}
		if worker != nil {
			worker.SetDraining(true)
			fmt.Fprintf(os.Stderr, "peerd: %s: draining %d pooled sessions\n", sig, worker.Active())
			deadline := time.Now().Add(*drainWait)
			for worker.Active() > 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Millisecond)
			}
			worker.Close()
			if left := worker.Active(); left > 0 {
				fmt.Fprintf(os.Stderr, "peerd: drain timeout with %d sessions still here\n", left)
			}
		}
	}
}

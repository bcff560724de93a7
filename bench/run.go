package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run: one workload, one seed, traced or not.
type runConfig struct {
	root    string
	w       workload
	seed    int64
	seconds float64
	trace   bool
	setups  int // how often set-up is repeated for its median
}

// runResult is what one run measured.
type runResult struct {
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"-"` // NaN: not supported by this workload
	Samples   map[string]int     `json:"-"`
	// Traced runs only: each layer's self time as a percentage of the
	// client-observed append time, and how much of the in-process append
	// time the layer self times account for.
	Shares  map[string]float64 `json:"-"`
	Closure float64            `json:"-"`
}

// retainedSessions is how many sessions the durable workload leaves
// alive for the kill -9 recovery check.
const retainedSessions = 64

// setUp does everything a run needs before its first request: build the
// binaries, generate the inputs and their oracle answers, start the
// children and wait until they are healthy.
func setUp(ctx context.Context, cfg runConfig, scratch string) (*fleet, []*sessionInput, error) {
	if err := buildBinaries(ctx, cfg.root); err != nil {
		return nil, nil, err
	}
	inputs, err := buildInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	// A port picked free can be taken again before its child binds it (a
	// sibling's outgoing connection may land on it); start over then.
	for attempt := 1; ; attempt++ {
		f, err := startFleet(ctx, cfg.root, fmt.Sprintf("%s-%d", scratch, attempt), cfg.w.topology)
		if err == nil {
			return f, inputs, nil
		}
		if f != nil {
			f.stop()
		}
		if attempt == 3 || ctx.Err() != nil {
			return nil, nil, err
		}
	}
}

// runWorkload performs one run. The end-to-end metrics come from the
// measured phase against real child processes with tracing off; with
// cfg.trace the measured phase is half as long and the per-layer
// metrics come from the children's /metrics and the in-process traced
// pass that follows.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	clients := cfg.w.clients
	if n := runtime.NumCPU(); clients > n {
		clients = n
	}
	if err := os.MkdirAll(buildDir(cfg.root), 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(buildDir(cfg.root), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var f *fleet
	var inputs []*sessionInput
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		f, inputs, err = setUp(ctx, cfg, filepath.Join(base, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer f.stop()

	warm := runPhase(ctx, f.base, inputs, clients, 0, cfg.w.warmup)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up failed: %v", warm.errs)
	}

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	s := runPhase(ctx, f.base, inputs, clients, measure, 0)
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := f.rssPeakMB()
	if err != nil {
		return nil, err
	}
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var scraped map[string]float64
	if cfg.trace {
		// Before durable's kill: the counts die with the process.
		if scraped, err = scrape(f.diagnosed()); err != nil {
			return nil, err
		}
	}

	recoverS := math.NaN()
	if cfg.w.topology == "durable" {
		if recoverS, err = killAndRecover(ctx, f, inputs[0], s); err != nil {
			return nil, err
		}
	}

	res := &runResult{Clients: clients, Metrics: map[string]float64{}, Samples: map[string]int{}}
	if !cfg.trace {
		put := func(name string, v float64, n int) { res.Metrics[name], res.Samples[name] = v, n }
		put("setup_s", median(setupS), len(setupS))
		put("append_ms_mean", sum(s.appendMS)/float64(len(s.appendMS)), len(s.appendMS))
		put("append_ms_p50", median(s.appendMS), len(s.appendMS))
		put("append_ms_p90", percentile(s.appendMS, 90), len(s.appendMS))
		put("append_ms_p99", percentile(s.appendMS, 99), len(s.appendMS))
		put("first_append_ms_p50", median(s.firstMS), len(s.firstMS))
		put("last_append_ms_p50", median(s.lastMS), len(s.lastMS))
		put("create_ms_p50", median(s.createMS), len(s.createMS))
		put("stream_s_p50", median(s.streamS), len(s.streamS))
		put("alarms_per_s", float64(s.alarms)/s.wall.Seconds(), s.alarms)
		put("cpu_s_per_kalarm", (cpu1-cpu0)/float64(s.alarms)*1000, s.alarms)
		put("rss_mb_peak", rss, len(f.children))
		put("recover_s", recoverS, retainedSessions)
	} else {
		m, sums, rec, err := layerPass(filepath.Join(base, "layers"), inputs[0])
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := writeTrace(cfg.root, cfg.w.name, rec); err != nil {
			return nil, err
		}
		// What the client sees beyond the in-process handler, each side net
		// of the engine time its response reports. On durable this carries
		// the WAL and snapshot interference, on pooled the pool hop.
		m["http.self_us"] = median(s.outsideUS) - m["serve.append_self_us"]
		childCounts(cfg.w, scraped, m)
		m["recover.restart_s"] = 0
		if !math.IsNaN(recoverS) {
			m["recover.restart_s"] = recoverS
		}
		res.Metrics = m
		for name := range m {
			res.Samples[name] = len(inputs[0].appends)
		}
		res.Shares, res.Closure = layerShares(cfg.w, m, sums, float64(len(inputs[0].appends)))
	}
	res.Attempted, res.Failed, res.Errors = s.attempted, s.failed, s.errs
	return res, nil
}

// layerShares turns the session's summed self times into percentages of
// the whole append path. What the client sees beyond the in-process
// handler is one share, named after what the topology puts there: the
// real WAL, snapshot writer and pool hop cannot be told apart from the
// HTTP stack from outside, and the difference to churn isolates them.
// The second result is the closure of the accounting: the layer self
// times over the append time of the pass they were recorded in, times
// what tracing costs (averaged over every traced and untraced pass) —
// the self times as a share of the same stream's untraced append time.
func layerShares(w workload, m, sums map[string]float64, appends float64) (map[string]float64, float64) {
	recorded := sums["recorded_total"]
	delete(sums, "recorded_total")
	closure := (sums["core"] + sums["diagnosis"] + sums["dqsq"] + sums["ddatalog"] + sums["dist"]) / recorded * m["trace.overhead_ratio"]
	outside := map[string]string{"plain": "http", "durable": "http+wal+snapshot", "pooled": "http+pool+wire"}[w.topology]
	sums[outside] = math.Max(m["http.self_us"], 0) * appends
	total := 0.0
	for _, v := range sums {
		total += v
	}
	shares := make(map[string]float64, len(sums))
	for layer, v := range sums {
		shares[layer] = 100 * v / total
	}
	return shares, closure
}

// killAndRecover leaves sessions alive on the durable server, kills it
// with SIGKILL, restarts it on the same data directory and requires
// every session back with its pre-kill body. It returns the time from
// the kill to the last verified session.
func killAndRecover(ctx context.Context, f *fleet, in *sessionInput, s *samples) (float64, error) {
	kept := retainSessions(f.base, in, retainedSessions, s)
	if len(kept) != retainedSessions {
		return 0, fmt.Errorf("only %d of %d sessions could be retained: %v", len(kept), retainedSessions, s.errs)
	}
	start := time.Now()
	f.diagnosed().kill()
	if err := f.restartDiagnosed(ctx); err != nil {
		return 0, fmt.Errorf("restart on %s: %w", f.dataDir, err)
	}
	checkRetained(f.base, kept, s)
	return time.Since(start).Seconds(), nil
}

// childCounts derives the per-layer counts that only the real children
// have: WAL and snapshot traffic on durable, retries and hedges on
// pooled. They are 0 on workloads whose topology lacks the layer.
func childCounts(w workload, scraped map[string]float64, m map[string]float64) {
	alarms := scraped["diagnosed_alarms_total"]
	for _, name := range []string{"wal.bytes_per_alarm", "wal.fsyncs_per_alarm", "snapshot.writes_per_alarm",
		"pool.retries_per_kappend", "pool.hedged_per_kappend"} {
		m[name] = 0
	}
	if w.topology == "durable" && alarms > 0 {
		m["wal.bytes_per_alarm"] = scraped["wal_bytes_total"] / alarms
		m["wal.fsyncs_per_alarm"] = scraped["wal_fsync_seconds_count"] / alarms
		m["snapshot.writes_per_alarm"] = scraped["snapshot_write_seconds_count"] / alarms
	}
	if appends := scraped["diagnosed_append_seconds_count"]; w.topology == "pooled" && appends > 0 {
		m["pool.retries_per_kappend"] = scraped["pool_retries_total"] / appends * 1000
		m["pool.hedged_per_kappend"] = scraped["pool_hedged_total"] / appends * 1000
	}
}

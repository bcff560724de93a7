// Command benchreport re-runs the reproduction's experiment suite and
// prints the EXPERIMENTS.md tables: Theorem 1 (dQSQ ≡ QSQ), Theorem 4 /
// S1 (materialized prefix: dQSQ = product[8] ≪ naive), S2 (peer scaling),
// S3 (concurrency), and the QSQ-vs-magic-sets ablation.
//
// Usage:
//
//	benchreport                 # every experiment at default sizes
//	benchreport -exp s1 -max 5  # one experiment, custom size
//	benchreport -json           # also write BENCH_<exp>.json per experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

// benchDir is where -json drops the BENCH_<exp>.json files ("." in the
// binary; tests point it at a temp dir).
var benchDir = "."

// emitJSON mirrors the -json flag.
var emitJSON = false

func main() {
	var (
		exp        = flag.String("exp", "all", "all | t1 | s1 | s2 | s3 | ablation | placement | trace_overhead | cluster_trace_overhead | transport_overhead | snapshot_overhead | wal_overhead | repl_overhead | pool_overhead")
		max        = flag.Int("max", 0, "sweep size override (0 = defaults)")
		jsonOut    = flag.Bool("json", false, "also write machine-readable rows to BENCH_<exp>.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Parse()
	emitJSON = *jsonOut

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("t1", func() error { return reportT1(*max) })
	run("s1", func() error { return reportS1(*max) })
	run("s2", func() error { return reportS2(*max) })
	run("s3", func() error { return reportS3(*max) })
	run("ablation", func() error { return reportAblation(*max) })
	run("placement", func() error { return reportPlacement(*max) })
	run("trace_overhead", func() error { return reportTraceOverhead(*max) })
	run("cluster_trace_overhead", func() error { return reportClusterTraceOverhead(*max) })
	run("transport_overhead", func() error { return reportTransportOverhead(*max) })
	run("snapshot_overhead", func() error { return reportSnapshotOverhead(*max) })
	run("wal_overhead", func() error { return reportWALOverhead(*max) })
	run("repl_overhead", func() error { return reportReplOverhead(*max) })
	run("pool_overhead", func() error { return reportPoolOverhead(*max) })
}

func reportPoolOverhead(max int) error {
	rows, err := experiments.PoolOverhead(max) // max doubles as the append count
	if err != nil {
		return err
	}
	header("Session-pool overhead — pipeline net appends, direct backend vs pooled over a mesh; 8-session batch by fleet width (hedging off)",
		"appends", "local ns/append", "pooled ns/append", "ratio", "bodies equal?",
		"sessions", "1-worker ms", "3-worker ms", "1-worker cpu ms", "3-worker cpu ms", "gain")
	row(rows.Appends, rows.LocalNsPerAppend, rows.PooledNsPerAppend,
		fmt.Sprintf("%.2f", rows.OverheadRatio), rows.BodiesEqual,
		rows.Sessions, rows.OneWorkerMs, rows.ThreeWorkerMs,
		rows.OneWorkerCPUMs, rows.ThreeWorkerCPUMs, fmt.Sprintf("%.2f", rows.WorkerGain))
	return maybeBench("pool_overhead", []experiments.PoolOverheadRow{*rows})
}

func reportReplOverhead(max int) error {
	rows, err := experiments.ReplOverhead(max) // max doubles as the append count
	if err != nil {
		return err
	}
	header("Replication overhead — SyncAlways WAL appends with followers tailing over loopback; 8-writer group commit",
		"appends", "p50 ns (0 fo)", "p50 ns (1 fo)", "p50 ns (2 fo)", "1-fo ratio", "caught up?",
		"group ns/op", "solo ns/op", "group gain")
	row(rows.Appends, rows.P50NsNoFollower, rows.P50NsOneFollower, rows.P50NsTwoFollowers,
		fmt.Sprintf("%.2f", rows.OneFollowerRatio), rows.FollowersCaughtUp,
		rows.GroupNsPerOp, rows.SoloNsPerOp, fmt.Sprintf("%.2f", rows.GroupCommitGain))
	return maybeBench("repl_overhead", []experiments.ReplOverheadRow{*rows})
}

func reportWALOverhead(max int) error {
	rows, err := experiments.WALOverhead(max) // max doubles as the append count
	if err != nil {
		return err
	}
	header("WAL overhead — warm dQSQ session, per-append logging by fsync policy; snapshot+replay vs recompute",
		"appends", "plain ns/append", "always ns/append", "interval ns/append", "never ns/append",
		"always %", "interval %", "replay ns", "recompute ns", "equal?")
	row(rows.Appends, rows.PlainNsPerAppend, rows.AlwaysNsPerAppend,
		rows.IntervalNsPerAppend, rows.NeverNsPerAppend,
		fmt.Sprintf("%.1f", rows.AlwaysOverheadPct), fmt.Sprintf("%.1f", rows.IntervalOverheadPct),
		rows.ReplayNs, rows.RecomputeNs, rows.Equal)
	return maybeBench("wal_overhead", []experiments.WALOverheadRow{*rows})
}

func reportSnapshotOverhead(max int) error {
	rows, err := experiments.SnapshotOverhead(max) // max doubles as the append count
	if err != nil {
		return err
	}
	header("Checkpoint overhead — warm dQSQ session, per-append checkpoint vs none; restore vs replay",
		"appends", "plain ns/append", "ckpt ns/append", "overhead %", "snapshot bytes",
		"restore ns", "replay ns", "equal?")
	row(rows.Appends, rows.PlainNsPerAppend, rows.CkptNsPerAppend,
		fmt.Sprintf("%.1f", rows.OverheadPct), rows.SnapshotBytes,
		rows.RestoreNs, rows.ReplayNs, rows.Equal)
	return maybeBench("snapshot_overhead", []experiments.SnapshotOverheadRow{*rows})
}

func reportTransportOverhead(max int) error {
	rows, err := experiments.TransportOverhead(max) // max doubles as the iteration count
	if err != nil {
		return err
	}
	header("Transport overhead — quickstart distributed diagnosis, in-process mesh vs TCP loopback",
		"iters", "msgs/op", "inproc ns/op", "tcp ns/op", "overhead %", "tcp bytes/op")
	row(rows.Iters, rows.Messages, rows.InProcNsPerOp, rows.TCPNsPerOp,
		fmt.Sprintf("%.1f", rows.OverheadPct), rows.TCPBytesPerOp)
	return maybeBench("transport_overhead", []experiments.TransportOverheadRow{*rows})
}

func reportTraceOverhead(max int) error {
	rows, err := experiments.TraceOverhead(max) // max doubles as the iteration count
	if err != nil {
		return err
	}
	header("Tracing overhead — quickstart diagnosis, no-op tracer vs ChromeTraceWriter capture",
		"iters", "nop ns/op", "traced ns/op", "overhead %", "trace events")
	row(rows.Iters, rows.NopNsPerOp, rows.TracedNsPerOp,
		fmt.Sprintf("%.1f", rows.OverheadPct), rows.TraceEvents)
	return maybeBench("trace_overhead", []experiments.TraceOverheadRow{*rows})
}

func reportClusterTraceOverhead(max int) error {
	rows, err := experiments.ClusterTraceOverhead(max) // max doubles as the iteration count
	if err != nil {
		return err
	}
	header("Cluster telemetry overhead — distributed quickstart diagnosis, telemetry off vs on (mesh, 2 members)",
		"iters", "off ns/op", "on ns/op", "overhead %", "member events", "telemetry nodes")
	row(rows.Iters, rows.OffNsPerOp, rows.OnNsPerOp,
		fmt.Sprintf("%.1f", rows.OverheadPct), rows.MemberEvents, rows.TelemetryNodes)
	return maybeBench("cluster_trace_overhead", []experiments.ClusterTraceOverheadRow{*rows})
}

func reportPlacement(max int) error {
	if max == 0 {
		max = 12
	}
	var lens []int
	for n := 4; n <= max; n += 4 {
		lens = append(lens, n)
	}
	rows, err := experiments.PlacementAblation(lens)
	if err != nil {
		return err
	}
	header("Remark 1 — supplementary-relation placement (Figure 5 layout vs at-head)",
		"chain len", "at-data msgs", "at-data repl", "at-head msgs", "at-head repl", "same answers?")
	for _, r := range rows {
		row(r.ChainLen, r.AtDataMsgs, r.AtDataRepl, r.AtHeadMsgs, r.AtHeadRepl, r.SameAnswers)
	}
	return maybeBench("placement", rows)
}

// writeBench writes one experiment's rows as an indented JSON array to
// dir/BENCH_<name>.json. Durations serialize as nanoseconds (Go's
// time.Duration JSON default).
func writeBench(dir, name string, rows any) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s\n", path)
	return nil
}

// maybeBench is writeBench gated on the -json flag.
func maybeBench(name string, rows any) error {
	if !emitJSON {
		return nil
	}
	return writeBench(benchDir, name, rows)
}

func header(title string, cols ...string) {
	fmt.Printf("\n## %s\n\n", title)
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Println("| " + strings.Join(sep, " | ") + " |")
}

func row(cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprint(c)
	}
	fmt.Println("| " + strings.Join(parts, " | ") + " |")
}

func reportT1(max int) error {
	if max == 0 {
		max = 12
	}
	var lens []int
	for n := 3; n <= max; n += 3 {
		lens = append(lens, n)
	}
	rows, err := experiments.Theorem1Sweep(lens)
	if err != nil {
		return err
	}
	header("Theorem 1 — dQSQ materializes exactly what centralized QSQ does (Figure 3 family)",
		"chain len", "answers", "QSQ derived", "dQSQ derived", "naive derived", "equal?")
	for _, r := range rows {
		row(r.ChainLen, r.Answers, r.QSQDerived, r.DQSQDerived, r.NaiveDerived, r.Equal)
	}
	return maybeBench("t1", rows)
}

func reportS1(max int) error {
	if max == 0 {
		max = 4
	}
	rows, err := experiments.MaterializationSweep(max)
	if err != nil {
		return err
	}
	header("S1 / Theorem 4 — materialized unfolding prefix vs |A| (running example, p2 loop)",
		"|A|", "diagnoses", "product[8] events", "dQSQ events", "naive events",
		"dQSQ derived", "naive derived", "prefix equal?")
	for _, r := range rows {
		row(r.SeqLen, r.Diagnoses, r.ProductEvents, r.DQSQEvents, r.NaiveEvents,
			r.DQSQDerived, r.NaiveDerived, r.ExactPrefixEq)
	}
	return maybeBench("s1", rows)
}

func reportS2(max int) error {
	if max == 0 {
		max = 5
	}
	var peers []int
	for k := 2; k <= max; k++ {
		peers = append(peers, k)
	}
	rows, err := experiments.PipelineSweep(peers, 2, 3, 7)
	if err != nil {
		return err
	}
	header("S2 — peer scaling (pipeline, branching 2, 3 observed alarms)",
		"peers", "diagnoses", "dQSQ derived", "dQSQ msgs", "naive derived", "naive msgs",
		"dQSQ ms", "naive ms")
	for _, r := range rows {
		row(r.Peers, r.Diagnoses, r.DQSQDerived, r.DQSQMessages, r.NaiveDerived, r.NaiveMsgs,
			r.DQSQElapsed.Milliseconds(), r.NaiveElapsed.Milliseconds())
	}
	return maybeBench("s2", rows)
}

func reportS3(max int) error {
	if max == 0 {
		max = 4
	}
	var branches []int
	for b := 2; b <= max; b++ {
		branches = append(branches, b)
	}
	rows, err := experiments.ConcurrencySweep(branches, 2, 5)
	if err != nil {
		return err
	}
	header("S3 — concurrency (fork, depth 2): one configuration under factorial interleavings",
		"branches", "|A|", "diagnoses", "product events", "dQSQ events", "direct ms", "dQSQ ms")
	for _, r := range rows {
		row(r.Branches, r.SeqLen, r.Diagnoses, r.ProductEvents, r.DQSQEvents,
			r.DirectElapsed.Milliseconds(), r.DQSQElapsed.Milliseconds())
	}
	return maybeBench("s3", rows)
}

func reportAblation(max int) error {
	if max == 0 {
		max = 16
	}
	var lens []int
	for n := 4; n <= max; n += 4 {
		lens = append(lens, n)
	}
	rows, err := experiments.MagicAblation(lens)
	if err != nil {
		return err
	}
	header("Ablation — QSQ vs magic sets (the paper's two sibling optimizations)",
		"chain len", "QSQ derived", "magic derived", "same answers?")
	for _, r := range rows {
		row(r.ChainLen, r.QSQDerived, r.MagicDerived, r.SameAnswers)
	}
	return maybeBench("ablation", rows)
}

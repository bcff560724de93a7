// Command benchreport re-runs the reproduction's experiment suite and
// prints the EXPERIMENTS.md tables: Theorem 1 (dQSQ ≡ QSQ), Theorem 4 /
// S1 (materialized prefix: dQSQ = product[8] ≪ naive), S2 (peer scaling),
// S3 (concurrency), the QSQ-vs-magic-sets ablation, Remark 1 placement,
// and the checkpoint restore-vs-replay row that scripts/verify.sh guards.
// Serving performance is measured by bench/ (BENCHMARK.json), not here.
//
// Usage:
//
//	benchreport                 # every experiment at default sizes
//	benchreport -exp s1 -max 5  # one experiment, custom size
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "all | t1 | s1 | s2 | s3 | ablation | placement | snapshot_overhead")
		max        = flag.Int("max", 0, "sweep size override (0 = defaults)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	)
	flag.Parse()

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
	run("snapshot_overhead", func() error { return reportSnapshotOverhead(*max) })
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
	return nil
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
	return nil
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
	return nil
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
	return nil
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
	return nil
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
	return nil
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
	return nil
}

// Command diagnose runs the diagnosis problem of the paper end to end:
// given a distributed safe Petri net and an observed alarm sequence, it
// prints every configuration of the net's unfolding that explains the
// sequence, using any of the four engines.
//
// Usage:
//
//	diagnose -example -alarms "b@p1 a@p2 c@p1" -engine dqsq
//	diagnose -net mynet.txt -alarms "fail@line1 overload@switch" -engine all
//	diagnose -example -alarms "b@p1 a@p2" -checkpoint ck
//	diagnose -resume ck -alarms "c@p1"
//
// -checkpoint DIR starts one session in a diagnosed data dir: DIR/wal
// logs its create and every append, and a checkpoint record on exit.
// -resume DIR brings the session back through the server's boot replay
// and logs the new appends there; diagnosed -data-dir DIR serves it too.
//
// Engines: direct (explicit search), product (the dedicated algorithm of
// reference [8]), naive (naive distributed Datalog), dqsq (distributed
// QSQ — the paper's contribution), all (run and compare every engine).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/diagnosis"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/viz"
)

// Exit statuses. exitBudget is distinct so scripts can tell "the answer
// may be incomplete — raise -depth or the budget" from "the input is
// wrong": an evaluation that hit its budget is NOT a successful
// diagnosis.
const (
	exitErr    = 1
	exitBudget = 3
)

func main() {
	var (
		netFile    = flag.String("net", "", "net description file (see docs for format)")
		example    = flag.Bool("example", false, "use the paper's running example net (Figure 1)")
		alarms     = flag.String("alarms", "", `observed alarm sequence, e.g. "b@p1 a@p2 c@p1"`)
		engine     = flag.String("engine", "dqsq", "direct | product | naive | dqsq | all")
		depth      = flag.Int("depth", 0, "term-depth bound (Section 4.4 gadget); 0 = engine default")
		facts      = flag.Int("facts", 0, "materialized-fact budget; 0 = engine default")
		timeout    = flag.Duration("timeout", time.Minute, "distributed evaluation timeout")
		quiet      = flag.Bool("q", false, "print only the diagnoses")
		peers      = flag.String("peers", "", `run the Datalog evaluation across peerd processes: "n1=host:port,n2=host:port"`)
		listen     = flag.String("listen", "127.0.0.1:0", "driver listen address for -peers mode")
		dot        = flag.String("dot", "", "write the explanations as Graphviz DOT to this file ('-' for stdout)")
		trace      = flag.String("trace", "", "write the evaluation as Chrome trace-event JSON to this file ('-' for stdout); open in chrome://tracing or Perfetto")
		checkpoint = flag.String("checkpoint", "", "start a one-session log in this dir, a diagnosed data dir (continue it with -resume)")
		resume     = flag.String("resume", "", "continue the session logged in this dir; the net and engine come from it and -alarms extend its sequence")
	)
	flag.Parse()

	seq, err := core.ParseAlarms(*alarms)
	if err != nil {
		fatal(err)
	}
	engines, err := pickEngines(*engine)
	if err != nil {
		fatal(err)
	}
	opt := core.Options{
		Timeout: *timeout,
		Budget:  datalog.Budget{MaxTermDepth: *depth, MaxFacts: *facts},
	}
	var tw *obs.ChromeTraceWriter
	if *trace != "" {
		tw = obs.NewChromeTraceWriter(-1) // a one-shot CLI run keeps everything
		opt.Tracer = tw
	}

	if *checkpoint != "" || *resume != "" {
		if *peers != "" {
			fatal(errors.New("-checkpoint/-resume cannot combine with -peers"))
		}
		runCheckpointed(*resume, *checkpoint, *netFile, *example, engines, seq, opt, *trace, *dot, *quiet)
		return
	}

	sys, err := loadSystem(*netFile, *example)
	if err != nil {
		fatal(err)
	}

	diagnose := func(e core.Engine) (*core.Report, error) { return sys.Diagnose(seq, e, opt) }
	var cl *diagnosis.Cluster
	if *peers != "" {
		var err error
		cl, err = dialPeers(*peers, *listen)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		for _, e := range engines {
			if e != core.Naive && e != core.DQSQ {
				fatal(fmt.Errorf("engine %v cannot run distributed; -peers supports naive and dqsq", e))
			}
		}
		diagnose = func(e core.Engine) (*core.Report, error) {
			return diagnosis.RunDistributed(sys.PN, seq, e, opt, cl)
		}
	}

	start := time.Now()
	var prev *core.Report
	truncated := false
	for _, e := range engines {
		rep, err := diagnose(e)
		if err != nil {
			exit(fmt.Errorf("%v: %w", e, err), exitStatus(err, false))
		}
		printReport(rep, *quiet)
		truncated = truncated || rep.Truncated
		if prev != nil && !prev.Diagnoses.Equal(rep.Diagnoses) {
			fatal(fmt.Errorf("engines %v and %v disagree", prev.Engine, rep.Engine))
		}
		prev = rep
	}
	if *dot != "" && prev != nil {
		if err := writeOutput([]byte(viz.Report(sys.PN, prev)), *dot); err != nil {
			fatal(err)
		}
	}
	if tw != nil {
		// With -peers the trace is cluster-wide: the driver's own spans plus
		// every member's shipped telemetry, offset-corrected onto the
		// driver's clock, in one file.
		var err error
		if cl != nil {
			err = writeClusterTrace(tw, cl, *trace)
		} else {
			err = writeTrace(tw, *trace)
		}
		if err != nil {
			fatal(err)
		}
		dropped := tw.Dropped()
		if cl != nil {
			dropped += cl.TraceDropped()
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "diagnose: %d trace events dropped by buffer bounds; the trace is incomplete\n", dropped)
		}
	}
	if prev != nil {
		fmt.Fprintf(os.Stderr, "diagnose: %d peers, %d messages, %d facts derived, %.1fms elapsed\n",
			len(sys.Peers()), prev.Messages, prev.Derived,
			float64(time.Since(start).Microseconds())/1000)
	}
	if truncated {
		exit(errors.New("evaluation hit a budget or depth bound; the diagnosis above may be incomplete"),
			exitBudget)
	}
}

// runCheckpointed is the -checkpoint/-resume path: a single-engine
// session of a diagnosed server whose data dir is the checkpoint dir.
// -checkpoint creates the session, logging its create and appends, and
// Shutdown writes its checkpoint record. -resume rebuilds it through the
// server's boot replay — a resumed dQSQ session continues exactly where
// the logged one stopped — and -alarms extend its sequence.
func runCheckpointed(resume, checkpoint, netFile string, example bool,
	engines []core.Engine, seq alarm.Seq, opt core.Options, tracePath, dot string, quiet bool) {
	switch {
	case len(engines) != 1:
		fatal(errors.New("-checkpoint/-resume need a single -engine, not all"))
	case resume != "" && checkpoint != "":
		fatal(errors.New("-resume logs to the dir it resumes; drop -checkpoint"))
	case resume != "" && (netFile != "" || example):
		fatal(errors.New("-resume carries its net; drop -net/-example"))
	case opt.Budget.MaxTermDepth != 0:
		fatal(errors.New("-depth cannot combine with -checkpoint/-resume: the session log records no depth bound"))
	}
	dir := resume + checkpoint
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		fatal(fmt.Errorf("%s is a file (a checkpoint of an older build?), not a checkpoint dir; it was not read", dir))
	}
	_, err := os.Stat(filepath.Join(dir, "wal"))
	switch {
	case resume != "" && err != nil:
		fatal(fmt.Errorf("%s holds no session log: %w", dir, err))
	case checkpoint != "" && err == nil:
		fatal(fmt.Errorf("%s already holds a session log; continue it with -resume", dir))
	}
	var sys *core.System
	if checkpoint != "" {
		if sys, err = loadSystem(netFile, example); err != nil {
			fatal(err)
		}
		if len(seq) == 0 {
			fatal(errors.New("nothing to diagnose: give -alarms"))
		}
	}
	srv := serve.NewServer(serve.Config{
		DataDir:     dir,
		EvalTimeout: opt.Timeout,
		SweepEvery:  -1,
		Store:       serve.StoreConfig{GlobalFacts: math.MaxInt},
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if !srv.ReplEnabled() {
		fatal(fmt.Errorf("%s is not a usable checkpoint dir (see the log above)", dir))
	}
	var sess *serve.Session
	if resume != "" {
		m := srv.Metrics()
		if m.Counter("wal_truncated_tail_total") > 0 {
			fmt.Fprintf(os.Stderr, "diagnose: %s: the log ended in a torn record, cut back to the last whole one\n", dir)
		}
		sessions := srv.Store().Sessions()
		if len(sessions) != 1 {
			fatal(fmt.Errorf("%s holds %d sessions; -resume continues exactly one", dir, len(sessions)))
		}
		sess = sessions[0]
		engineSet := false
		flag.Visit(func(f *flag.Flag) { engineSet = engineSet || f.Name == "engine" })
		if engineSet && sess.Engine != engines[0] {
			fatal(fmt.Errorf("%s was logged with engine %v; -engine %v cannot resume it", dir, sess.Engine, engines[0]))
		}
		fmt.Fprintf(os.Stderr, "diagnose: resumed %s (%d alarms); wal: %d records replayed\n",
			dir, sess.Alarms(), m.Counter("wal_replay_records_total"))
	} else {
		facts := opt.Budget.MaxFacts
		if facts == 0 {
			facts = datalog.DefaultBudget.MaxFacts
		}
		if sess, err = srv.Store().Create(parser.FormatNet(sys.PN), serve.EngineName(engines[0]), facts, time.Now()); err != nil {
			fatal(err)
		}
	}

	var rep *core.Report
	if len(seq) > 0 {
		var res *serve.AppendResult
		if res, err = sess.Append(seq, opt.Timeout); err == nil {
			rep = res.Report
		}
	} else {
		var st serve.State
		st, err = sess.Snapshot()
		rep = st.Report
	}
	if err == nil && rep == nil {
		err = errors.New("nothing to diagnose: the session has no alarms (give -alarms)")
	}
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // Background never expires
		exit(fmt.Errorf("%v: %w", sess.Engine, err), exitStatus(err, false))
	}
	printReport(rep, quiet)
	if dot != "" {
		if err := writeOutput([]byte(viz.Report(sess.System().PN, rep)), dot); err != nil {
			fatal(err)
		}
	}
	if tracePath != "" {
		var buf bytes.Buffer
		if err := sess.WriteTrace(&buf); err != nil {
			fatal(err)
		}
		if err := writeOutput(buf.Bytes(), tracePath); err != nil {
			fatal(err)
		}
	}
	srv.Shutdown(context.Background()) //nolint:errcheck // Background never expires
	fmt.Fprintf(os.Stderr, "diagnose: session logged in %s (%d alarms)\n", dir, sess.Alarms())
}

// exitStatus classifies a run outcome: budget exhaustion (by error or by
// a truncated report) gets the distinct exitBudget status.
func exitStatus(err error, truncated bool) int {
	if truncated || errors.Is(err, datalog.ErrBudget) || errors.Is(err, serve.ErrExhausted) {
		return exitBudget
	}
	if err != nil {
		return exitErr
	}
	return 0
}

func loadSystem(netFile string, example bool) (*core.System, error) {
	switch {
	case example && netFile != "":
		return nil, fmt.Errorf("use either -net or -example")
	case example:
		return core.Example(), nil
	case netFile != "":
		text, err := os.ReadFile(netFile)
		if err != nil {
			return nil, err
		}
		return core.LoadNet(string(text))
	default:
		return nil, fmt.Errorf("one of -net or -example is required")
	}
}

func pickEngines(name string) ([]core.Engine, error) {
	switch name {
	case "direct":
		return []core.Engine{core.Direct}, nil
	case "product":
		return []core.Engine{core.Product}, nil
	case "naive":
		return []core.Engine{core.Naive}, nil
	case "dqsq":
		return []core.Engine{core.DQSQ}, nil
	case "all":
		return []core.Engine{core.Direct, core.Product, core.Naive, core.DQSQ}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q", name)
	}
}

func printReport(rep *diagnosis.Report, quiet bool) {
	if !quiet {
		fmt.Printf("== engine %v (%.1fms)\n", rep.Engine, float64(rep.Elapsed.Microseconds())/1000)
	}
	if len(rep.Diagnoses) == 0 {
		fmt.Println("no explanation: the sequence is inconsistent with the net")
	}
	for i, cfg := range rep.Diagnoses {
		fmt.Printf("diagnosis %d (%d events):\n", i+1, len(cfg))
		for _, e := range cfg {
			fmt.Printf("  %s\n", e)
		}
	}
	if quiet {
		return
	}
	if rep.TransFacts > 0 || rep.PlaceFacts > 0 {
		fmt.Printf("materialized unfolding prefix: %d events, %d conditions\n", rep.TransFacts, rep.PlaceFacts)
	}
	if rep.Derived > 0 {
		fmt.Printf("derived facts: %d, messages: %d\n", rep.Derived, rep.Messages)
	}
	if rep.Truncated {
		fmt.Println("warning: a budget bound was hit; the answer may be incomplete")
	}
	fmt.Println()
}

// writeTrace exports the captured evaluation trace.
func writeTrace(tw *obs.ChromeTraceWriter, dest string) error {
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		return err
	}
	return writeOutput(buf.Bytes(), dest)
}

// writeClusterTrace merges the driver's trace with the member telemetry
// the cluster harvested into a single timeline spanning every process.
func writeClusterTrace(tw *obs.ChromeTraceWriter, cl *diagnosis.Cluster, dest string) error {
	procs := append([]obs.ProcessTrace{tw.Export("driver")}, cl.ProcessTraces()...)
	var buf bytes.Buffer
	if err := obs.WriteClusterJSON(&buf, procs); err != nil {
		return err
	}
	return writeOutput(buf.Bytes(), dest)
}

// writeOutput writes b to the file dest, or to stdout when dest is "-".
func writeOutput(b []byte, dest string) error {
	if dest == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(dest, b, 0o644)
}

func fatal(err error) { exit(err, exitErr) }

func exit(err error, status int) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(status)
}

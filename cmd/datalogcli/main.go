// Command datalogcli evaluates Datalog and dDatalog programs with every
// strategy in the library, printing answers and evaluation statistics —
// a workbench for the paper's Section 3.
//
// Usage:
//
//	datalogcli -program fig3.dl -query 'R@r("1", Y)' -strategy dqsq
//	datalogcli -program tc.dl   -query 'tc(a, X)'    -strategy qsq
//
// Strategies for centralized programs (no @peers): naive, seminaive, qsq,
// magic. For distributed programs: dnaive, dqsq.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/qsq"
	"repro/internal/term"
)

func main() {
	var (
		progFile = flag.String("program", "", "program file")
		queryStr = flag.String("query", "", `query atom, e.g. 'tc(a, X)' or 'R@r("1", Y)'`)
		strategy = flag.String("strategy", "seminaive", "naive | seminaive | qsq | magic | dnaive | dqsq")
		maxFacts = flag.Int("maxfacts", 0, "fact budget (0 = default)")
		maxDepth = flag.Int("maxdepth", 0, "term depth budget (0 = unlimited)")
		timeout  = flag.Duration("timeout", time.Minute, "distributed evaluation timeout")
	)
	flag.Parse()
	if *progFile == "" || *queryStr == "" {
		fatal(fmt.Errorf("-program and -query are required"))
	}
	src, err := os.ReadFile(*progFile)
	if err != nil {
		fatal(err)
	}
	budget := datalog.Budget{MaxFacts: *maxFacts, MaxTermDepth: *maxDepth}
	if err := run(os.Stdout, string(src), *queryStr, *strategy, budget, *timeout); err != nil {
		fatal(err)
	}
}

// run evaluates the query against the program source with one strategy
// and prints the answers and statistics to w.
func run(w io.Writer, src, query, strategy string, budget datalog.Budget, timeout time.Duration) error {
	store := term.NewStore()
	relName, peer, args, err := parser.Query(query, store)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}

	start := time.Now()
	switch strategy {
	case "naive", "seminaive", "qsq", "magic":
		p, err := parser.Program(src, store)
		if err != nil {
			return err
		}
		if peer != "" {
			return fmt.Errorf("located query %s@%s against a centralized program", relName, peer)
		}
		q := datalog.Atom{Rel: relName, Args: args}
		var rows [][]term.ID
		var st datalog.Stats
		switch strategy {
		case "naive", "seminaive":
			if err := p.CheckQuery(q); err != nil {
				return err
			}
			eval := p.SemiNaive
			if strategy == "naive" {
				eval = p.Naive
			}
			db, s := eval(budget)
			rows, st = datalog.Answers(db, store, q), s
		case "qsq":
			rows, _, st, err = qsq.Run(p, q, budget)
		case "magic":
			rows, _, st, err = magic.Run(p, q, budget)
		}
		if err != nil {
			return err
		}
		printRows(w, store, rows)
		fmt.Fprintf(w, "derived=%d seeded=%d iterations=%d truncated=%v elapsed=%s\n",
			st.Derived, st.Seeded, st.Iterations, st.Truncated, time.Since(start).Round(time.Microsecond))
	case "dnaive", "dqsq":
		p, err := parser.DistProgram(src, store)
		if err != nil {
			return err
		}
		if peer == "" {
			return fmt.Errorf("distributed query needs a peer: R@peer(...)")
		}
		q := ddatalog.PAtom{Rel: relName, Peer: peer, Args: args}
		var (
			rows [][]term.ID
			st   ddatalog.Stats
		)
		if strategy == "dnaive" {
			res, _, err := ddatalog.Run(p, q, budget, timeout)
			if err != nil {
				return err
			}
			rows, st, store = res.Answers, res.Stats, res.Store
		} else {
			res, err := dqsq.Run(p, q, budget, timeout)
			if err != nil {
				return err
			}
			rows, st, store = res.Answers, res.Stats, res.Store
		}
		printRows(w, store, rows)
		fmt.Fprintf(w, "derived=%d replicated=%d messages=%d elapsed=%s\n",
			st.Derived, st.Replicated, st.Net.MessagesSent, time.Since(start).Round(time.Microsecond))
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	return nil
}

func printRows(w io.Writer, store *term.Store, rows [][]term.ID) {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, t := range r {
			parts[i] = store.String(t)
		}
		lines = append(lines, strings.Join(parts, ", "))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "%d answer(s)\n", len(lines))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datalogcli:", err)
	os.Exit(1)
}

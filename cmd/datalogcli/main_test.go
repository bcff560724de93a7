package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
)

const (
	tcProgram = `
e(a, b).
e(b, c).
tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z).
`
	tcDistProgram = `
e@p(a, b).
e@p(b, c).
tc@p(X, Y) :- e@p(X, Y).
tc@p(X, Z) :- e@p(X, Y), tc@p(Y, Z).
`
)

// TestQueryArityMismatch: a query that uses a relation with another arity
// than the program's is refused by every strategy, with an error rather
// than an empty answer row or a panic inside the evaluation.
func TestQueryArityMismatch(t *testing.T) {
	for _, tc := range []struct{ strategy, src, query string }{
		{"naive", tcProgram, "tc(a)"},
		{"seminaive", tcProgram, "tc(a)"},
		{"qsq", tcProgram, "tc(a)"},
		{"magic", tcProgram, "tc(a)"},
		{"dnaive", tcDistProgram, "tc@p(a)"},
		{"dqsq", tcDistProgram, "tc@p(a)"},
	} {
		t.Run(tc.strategy, func(t *testing.T) {
			err := run(io.Discard, tc.src, tc.query, tc.strategy, datalog.Budget{}, time.Minute)
			if err == nil || !strings.Contains(err.Error(), "arity 2") {
				t.Fatalf("%s: query %s: got error %v, want an arity mismatch", tc.strategy, tc.query, err)
			}
			// The same relation at its own arity still answers.
			var out strings.Builder
			good := strings.Replace(tc.query, "(a)", "(a, X)", 1)
			if err := run(&out, tc.src, good, tc.strategy, datalog.Budget{}, time.Minute); err != nil {
				t.Fatalf("%s: query %s: %v", tc.strategy, good, err)
			}
			if !strings.Contains(out.String(), "2 answer(s)") {
				t.Fatalf("%s: query %s printed\n%s\nwant 2 answers", tc.strategy, good, out.String())
			}
		})
	}
}

package diagnosis

import (
	"testing"

	"repro/internal/datalog"
	"repro/internal/magic"
	"repro/internal/petri"
	"repro/internal/qsq"
	"repro/internal/term"
)

// The paper's Section 1 thesis: once the problem is stated in Datalog,
// "it can benefit from the large battery of optimization techniques
// developed for Datalog". These tests apply the OTHER techniques in the
// battery — centralized QSQ and magic sets — to the very same diagnosis
// program and check they compute the same diagnosis set.

// centralizedDiagnosis evaluates P_A(N,M,A) with a centralized rewriting.
func centralizedDiagnosis(t *testing.T, rewriter string) Diagnoses {
	t.Helper()
	padded, err := petri.Pad2(petri.Example())
	if err != nil {
		t.Fatal(err)
	}
	prog, query, err := BuildDiagnosisProgram(padded, seqA1)
	if err != nil {
		t.Fatal(err)
	}
	local := prog.Localize()
	s := local.Store
	q := datalog.Atom{Rel: query.Qualified(), Args: query.Args}
	var rows [][]term.ID
	switch rewriter {
	case "qsq":
		rows, _, _, err = qsq.Run(local, q, datalog.Budget{})
	case "magic":
		rows, _, _, err = magic.Run(local, q, datalog.Budget{})
	default:
		t.Fatalf("unknown rewriter %q", rewriter)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ExtractDiagnoses(s, rows, true)
}

func TestBatteryCentralizedQSQDiagnosis(t *testing.T) {
	got := centralizedDiagnosis(t, "qsq")
	want := Direct(petri.Example(), seqA1, DirectOptions{})
	if !got.Equal(want) {
		t.Fatalf("centralized QSQ diagnosis %v != direct %v", got.Keys(), want.Keys())
	}
}

func TestBatteryMagicSetsDiagnosis(t *testing.T) {
	got := centralizedDiagnosis(t, "magic")
	want := Direct(petri.Example(), seqA1, DirectOptions{})
	if !got.Equal(want) {
		t.Fatalf("magic-sets diagnosis %v != direct %v", got.Keys(), want.Keys())
	}
}

// TestBatteryTerminationWithoutDepthBound: like dQSQ (Proposition 1), the
// centralized rewritings also terminate on the cyclic net's diagnosis
// program with no depth gadget — relevance pruning is what tames the
// infinite unfolding, regardless of which sibling rewriting provides it.
func TestBatteryTerminationWithoutDepthBound(t *testing.T) {
	padded, err := petri.Pad2(petri.Example())
	if err != nil {
		t.Fatal(err)
	}
	prog, query, err := BuildDiagnosisProgram(padded, seqA2)
	if err != nil {
		t.Fatal(err)
	}
	local := prog.Localize()
	q := datalog.Atom{Rel: query.Qualified(), Args: query.Args}
	_, _, st, err := qsq.Run(local, q, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("centralized QSQ hit a budget: %+v", st)
	}
}

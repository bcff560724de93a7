package diagnosis

import (
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/dqsq"
	"repro/internal/petri"
)

// hiddenNet is a chain with an unobservable transition in the middle:
//
//	a -t1(x)-> b -h(silent)-> c -t2(y)-> d
func hiddenNet(t *testing.T) *petri.PetriNet {
	t.Helper()
	n := petri.NewNet()
	for _, id := range []petri.NodeID{"a", "b", "c", "d"} {
		n.AddPlace(id, "p")
	}
	n.AddTransition("t1", "p", "x", []petri.NodeID{"a"}, []petri.NodeID{"b"})
	n.AddTransition("h", "p", petri.Silent, []petri.NodeID{"b"}, []petri.NodeID{"c"})
	n.AddTransition("t2", "p", "y", []petri.NodeID{"c"}, []petri.NodeID{"d"})
	pn, err := petri.New(n, petri.NewMarking("a"))
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

// TestHiddenTransitionsDirect: the silent transition must appear in the
// explanation even though it reported nothing.
func TestHiddenTransitionsDirect(t *testing.T) {
	pn := hiddenNet(t)
	d := Direct(pn, alarm.S("x", "p", "y", "p"), DirectOptions{})
	want := "f(h,g(f(t1,g(r,a)),b));f(t1,g(r,a));f(t2,g(f(h,g(f(t1,g(r,a)),b)),c))"
	if len(d) != 1 || strings.Join(d[0], ";") != want {
		t.Fatalf("diagnoses = %v, want [%s]", d.Keys(), want)
	}
	// Without the silent step the y alarm is unexplainable.
	if got := Direct(pn, alarm.S("y", "p"), DirectOptions{}); len(got) != 0 {
		t.Fatalf("y alone explained: %v", got.Keys())
	}
	// x alone is explained by {t1} (no trailing silent padding).
	if got := Direct(pn, alarm.S("x", "p"), DirectOptions{}); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("x alone: %v", got.Keys())
	}
}

// TestHiddenTransitionsDatalog: the Section 4.4 petriNetSilent rules make
// the Datalog engines agree with the direct search.
func TestHiddenTransitionsDatalog(t *testing.T) {
	pn := hiddenNet(t)
	seq := alarm.S("x", "p", "y", "p")
	want := Direct(pn, seq, DirectOptions{})
	for _, e := range []Engine{EngineNaive, EngineDQSQ} {
		rep, err := Run(pn, seq, e, Options{Timeout: 30 * time.Second,
			Budget: datalog.Budget{MaxTermDepth: 16}})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !rep.Diagnoses.Equal(want) {
			t.Fatalf("%v diagnoses %v != direct %v", e, rep.Diagnoses.Keys(), want.Keys())
		}
	}
}

// TestHiddenSilentChoice: two silent branches lead to different observable
// alarms; the diagnosis must pick the right silent event per explanation.
func TestHiddenSilentChoice(t *testing.T) {
	n := petri.NewNet()
	for _, id := range []petri.NodeID{"a", "l", "r", "le", "re"} {
		n.AddPlace(id, "p")
	}
	n.AddTransition("hl", "p", petri.Silent, []petri.NodeID{"a"}, []petri.NodeID{"l"})
	n.AddTransition("hr", "p", petri.Silent, []petri.NodeID{"a"}, []petri.NodeID{"r"})
	n.AddTransition("tl", "p", "left", []petri.NodeID{"l"}, []petri.NodeID{"le"})
	n.AddTransition("tr", "p", "right", []petri.NodeID{"r"}, []petri.NodeID{"re"})
	pn, err := petri.New(n, petri.NewMarking("a"))
	if err != nil {
		t.Fatal(err)
	}
	seq := alarm.S("left", "p")
	want := Direct(pn, seq, DirectOptions{})
	if len(want) != 1 || !strings.Contains(strings.Join(want[0], ";"), "f(hl,") {
		t.Fatalf("direct = %v", want.Keys())
	}
	rep, err := Run(pn, seq, EngineDQSQ, Options{Timeout: 30 * time.Second,
		Budget: datalog.Budget{MaxTermDepth: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diagnoses.Equal(want) {
		t.Fatalf("dQSQ %v != direct %v", rep.Diagnoses.Keys(), want.Keys())
	}
}

// countEvents counts the events of a configuration.
func countEvents(cfg []string) int { return len(cfg) }

// filterBySize keeps configurations with at most n events.
func filterBySize(d Diagnoses, n int) Diagnoses {
	var out Diagnoses
	for _, cfg := range d {
		if countEvents(cfg) <= n {
			out = append(out, cfg)
		}
	}
	return out
}

// TestPatternLinearEqualsSequence: a linear pattern is the basic problem.
func TestPatternLinearEqualsSequence(t *testing.T) {
	pn := petri.Example()
	seq := alarm.S("a", "p2", "b", "p2")
	nfa := alarm.Linear(seq).Compile()

	want := Direct(pn, seq, DirectOptions{})
	gotDirect := DirectPattern(pn, nfa, DirectOptions{MaxAlarms: len(seq)})
	if !gotDirect.Equal(want) {
		t.Fatalf("DirectPattern %v != Direct %v", gotDirect.Keys(), want.Keys())
	}
	gotDatalog, err := DiagnosePattern(pn, nfa, Options{Timeout: 30 * time.Second,
		Budget: datalog.Budget{MaxTermDepth: 14}})
	if err != nil {
		t.Fatal(err)
	}
	// The depth bound may admit longer accepted configurations for star
	// patterns; for a linear pattern the sets must agree exactly.
	if !gotDatalog.Equal(want) {
		t.Fatalf("Datalog pattern %v != direct %v", gotDatalog.Keys(), want.Keys())
	}
}

// TestPatternStar reproduces the paper's α.β*.α shape: a(ba)* over peer p2
// of the running example, which loops v -> vi -> v through places 7 and 6.
func TestPatternStar(t *testing.T) {
	pn := petri.Example()
	// a . (b . a)* at p2: v, v·vi·v, v·vi·v·vi·v, ...
	pat := alarm.Concat(alarm.Sym("a", "p2"),
		alarm.Star(alarm.Concat(alarm.Sym("b", "p2"), alarm.Sym("a", "p2"))))
	nfa := pat.Compile()

	want := filterBySize(DirectPattern(pn, nfa, DirectOptions{MaxAlarms: 3}), 3)
	got, err := DiagnosePattern(pn, nfa, Options{Timeout: 30 * time.Second,
		Budget: datalog.Budget{MaxTermDepth: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if !filterBySize(got, 3).Equal(want) {
		t.Fatalf("pattern diagnoses (<=3 events)\n%v\n!=\n%v",
			filterBySize(got, 3).Keys(), want.Keys())
	}
	// The one-event and three-event explanations exist.
	sizes := map[int]bool{}
	for _, cfg := range got {
		sizes[len(cfg)] = true
	}
	if !sizes[1] || !sizes[3] {
		t.Fatalf("expected 1- and 3-event explanations, sizes %v", sizes)
	}
}

// TestPatternViaDQSQ evaluates the pattern program with dQSQ under the
// depth gadget — the Section 4.4 claim that the same optimization applies
// to the whole class of problems.
func TestPatternViaDQSQ(t *testing.T) {
	pn := petri.Example()
	padded, err := petri.Pad2(pn)
	if err != nil {
		t.Fatal(err)
	}
	seq := alarm.S("a", "p2", "b", "p2")
	nfa := alarm.Linear(seq).Compile()
	prog, query, err := BuildPatternProgram(padded, nfa)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dqsq.Run(prog, query, datalog.Budget{MaxTermDepth: 14}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := ExtractDiagnoses(res.Store, res.Answers, true)
	want := Direct(pn, seq, DirectOptions{})
	if !got.Equal(want) {
		t.Fatalf("dQSQ pattern %v != direct %v", got.Keys(), want.Keys())
	}
}

// TestDepthBoundMonotone (E3): deepening the Section 4.4 gadget yields a
// superset of explanations for star patterns on the cyclic example.
func TestDepthBoundMonotone(t *testing.T) {
	pn := petri.Example()
	pat := alarm.Concat(alarm.Sym("a", "p2"),
		alarm.Star(alarm.Concat(alarm.Sym("b", "p2"), alarm.Sym("a", "p2"))))
	nfa := pat.Compile()

	shallow, err := DiagnosePattern(pn, nfa, Options{Timeout: 30 * time.Second,
		Budget: datalog.Budget{MaxTermDepth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := DiagnosePattern(pn, nfa, Options{Timeout: 30 * time.Second,
		Budget: datalog.Budget{MaxTermDepth: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deep) <= len(shallow) {
		t.Fatalf("deepening did not add explanations: %d vs %d", len(deep), len(shallow))
	}
	deepKeys := map[string]bool{}
	for _, k := range deep.Keys() {
		deepKeys[k] = true
	}
	for _, k := range shallow.Keys() {
		if !deepKeys[k] {
			t.Fatalf("shallow explanation %s lost at greater depth", k)
		}
	}
}

// TestPatternProgramDeterministic: building one pattern program twenty
// times gives one program text, accepting states included, so the text
// can be pinned by a golden file or fingerprinted.
func TestPatternProgramDeterministic(t *testing.T) {
	padded, err := petri.Pad2(petri.Example())
	if err != nil {
		t.Fatal(err)
	}
	pat := alarm.Concat(alarm.Sym("a", "p2"),
		alarm.Star(alarm.Concat(alarm.Sym("b", "p2"), alarm.Sym("a", "p2"))))
	var first string
	for i := 0; i < 20; i++ {
		prog, _, err := BuildPatternProgram(padded, pat.Compile())
		if err != nil {
			t.Fatal(err)
		}
		if text := prog.Localize().String(); i == 0 {
			first = text
		} else if text != first {
			t.Fatalf("build %d of the a.(b.a)*@p2 program differs from the first", i+1)
		}
	}
}

package diagnosis

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/product"
)

var (
	seqA1 = alarm.S("b", "p1", "a", "p2", "c", "p1")
	seqA2 = alarm.S("b", "p1", "c", "p1", "a", "p2")
	seqA3 = alarm.S("c", "p1", "b", "p1", "a", "p2")
)

// runAll runs every engine on the same instance and returns the reports.
func runAll(t *testing.T, pn *petri.PetriNet, seq alarm.Seq) map[Engine]*Report {
	t.Helper()
	out := map[Engine]*Report{}
	for _, e := range []Engine{EngineDirect, EngineProduct, EngineNaive, EngineDQSQ} {
		rep, err := Run(pn, seq, e, Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		out[e] = rep
	}
	return out
}

// TestTheorem3RunningExample: the configurations computed by the Datalog
// program are exactly the diagnosis set, on the paper's three sequences.
func TestTheorem3RunningExample(t *testing.T) {
	pn := petri.Example()
	for _, tc := range []struct {
		name string
		seq  alarm.Seq
	}{
		{"A1", seqA1}, {"A2", seqA2}, {"A3", seqA3},
		{"longer", alarm.S("a", "p2", "b", "p2")},
		{"empty", nil},
		{"impossible", alarm.S("z", "p1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reps := runAll(t, pn, tc.seq)
			want := reps[EngineDirect].Diagnoses
			for _, e := range []Engine{EngineProduct, EngineNaive, EngineDQSQ} {
				if !reps[e].Diagnoses.Equal(want) {
					t.Fatalf("%v diagnoses\n%v\n!= direct\n%v", e, reps[e].Diagnoses.Keys(), want.Keys())
				}
			}
		})
	}
}

// TestTheorem3ShadedConfiguration pins the paper's concrete claims about
// the shaded node set of Figure 2.
func TestTheorem3ShadedConfiguration(t *testing.T) {
	pn := petri.Example()
	shaded := "f(i,g(r,1),g(r,7));f(iii,g(f(i,g(r,1),g(r,7)),2));f(iv,g(f(i,g(r,1),g(r,7)),3))"
	contains := func(d Diagnoses) bool {
		for _, k := range d.Keys() {
			if k == shaded {
				return true
			}
		}
		return false
	}
	for _, e := range []Engine{EngineDirect, EngineNaive, EngineDQSQ} {
		r1, err := Run(pn, seqA1, e, Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !contains(r1.Diagnoses) {
			t.Fatalf("%v: shaded configuration not a diagnosis of A1: %v", e, r1.Diagnoses.Keys())
		}
		r2, err := Run(pn, seqA2, e, Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if !contains(r2.Diagnoses) {
			t.Fatalf("%v: shaded configuration not a diagnosis of A2", e)
		}
		r3, err := Run(pn, seqA3, e, Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if contains(r3.Diagnoses) {
			t.Fatalf("%v: shaded configuration wrongly explains A3", e)
		}
	}
}

// randomNet builds a random safe multi-peer net with 1/2-parent
// transitions by generating a random acyclic-ish token flow.
func randomNet(rng *rand.Rand) *petri.PetriNet {
	n := petri.NewNet()
	peers := []petri.Peer{"q1", "q2"}
	nPlaces := 4 + rng.Intn(3)
	var places []petri.NodeID
	for i := 0; i < nPlaces; i++ {
		id := petri.NodeID(rune('A' + i))
		n.AddPlace(id, peers[i%2])
		places = append(places, id)
	}
	alphabet := []petri.Alarm{"x", "y"}
	nTrans := 3 + rng.Intn(3)
	for i := 0; i < nTrans; i++ {
		id := petri.NodeID("t" + string(rune('0'+i)))
		k := 1 + rng.Intn(2)
		perm := rng.Perm(len(places))
		pre := []petri.NodeID{places[perm[0]]}
		if k == 2 {
			pre = append(pre, places[perm[1]])
		}
		var post []petri.NodeID
		if rng.Intn(4) != 0 {
			post = append(post, places[perm[len(perm)-1]])
		}
		n.AddTransition(id, peers[rng.Intn(2)], alphabet[rng.Intn(2)], pre, post)
	}
	m0 := petri.Marking{}
	for _, pl := range places[:2+rng.Intn(len(places)-1)] {
		m0[pl] = true
	}
	pn, err := petri.New(n, m0)
	if err != nil {
		return nil
	}
	if _, exhaustive, err := pn.CheckSafe(2000); err != nil || !exhaustive {
		return nil
	}
	return pn
}

// TestTheorem3Random cross-checks all four engines on random nets and
// random observed executions.
func TestTheorem3Random(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 60 && checked < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pn := randomNet(rng)
		if pn == nil {
			continue
		}
		exec, _ := pn.RandomExecution(rng, 1+rng.Intn(3))
		if len(exec) == 0 {
			continue
		}
		seq := petri.Interleave(rng, exec.ObservedAlarms())
		reps := runAll(t, pn, seq)
		want := reps[EngineDirect].Diagnoses
		if len(want) == 0 {
			t.Fatalf("seed %d: observed execution unexplained", seed)
		}
		for _, e := range []Engine{EngineProduct, EngineNaive, EngineDQSQ} {
			if !reps[e].Diagnoses.Equal(want) {
				t.Fatalf("seed %d: %v diagnoses\n%v\n!= direct\n%v",
					seed, e, reps[e].Diagnoses.Keys(), want.Keys())
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d random instances checked", checked)
	}
}

// TestTheorem4Materialization: dQSQ materializes the same unfolding prefix
// as the dedicated algorithm of [8]: the same events and the same
// conditions, pad conditions stripped. The query's cut atom is what
// materializes the conditions the last events produced.
func TestTheorem4Materialization(t *testing.T) {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	for _, tc := range []struct {
		name string
		pn   *petri.PetriNet
		seq  alarm.Seq
	}{
		{"A1", petri.Example(), seqA1},
		{"A2", petri.Example(), seqA2},
		{"longer", petri.Example(), alarm.S("a", "p2", "b", "p2", "a", "p2")},
		{"pipeline", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 8)},
		{"telecom", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prodRes, err := product.Run(tc.pn, tc.seq, product.Options{})
			if err != nil {
				t.Fatal(err)
			}
			padded, err := petri.Pad2(tc.pn)
			if err != nil {
				t.Fatal(err)
			}
			prog, query, err := BuildDiagnosisProgram(padded, tc.seq)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dqsq.Run(prog, query, datalog.Budget{}, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			events, conditions := unfoldingNodes(res.Engine)
			for _, nodes := range []struct {
				kind      string
				got, want map[string]bool
			}{{"event", events, prodRes.PrefixEvents}, {"condition", conditions, prodRes.PrefixConditions}} {
				for n := range nodes.want {
					if !nodes.got[n] {
						t.Errorf("dQSQ did not materialize prefix %s %s", nodes.kind, n)
					}
				}
				for n := range nodes.got {
					if !nodes.want[n] {
						t.Errorf("dQSQ materialized %s %s outside the [8] prefix", nodes.kind, n)
					}
				}
			}
		})
	}
}

// TestProposition1: dQSQ terminates (quiesces) on the diagnosis program of
// a cyclic net — whose naive evaluation diverges — without any depth bound.
func TestProposition1(t *testing.T) {
	pn := petri.Example() // cyclic: v/vi loop
	padded, err := petri.Pad2(pn)
	if err != nil {
		t.Fatal(err)
	}
	prog, query, err := BuildDiagnosisProgram(padded, seqA1)
	if err != nil {
		t.Fatal(err)
	}
	// No MaxTermDepth: termination must come from dQSQ itself.
	res, err := dqsq.Run(prog, query, datalog.Budget{}, 30*time.Second)
	if err != nil {
		t.Fatalf("dQSQ did not terminate: %v", err)
	}
	if res.Stats.Truncated {
		t.Fatal("dQSQ run truncated")
	}
	d := ExtractDiagnoses(res.Store, res.Answers, true)
	if len(d) != 2 {
		t.Fatalf("diagnoses = %v, want 2 configurations", d.Keys())
	}

	// The naive evaluation of the same program diverges: the fact budget
	// must trip (this is the divergence proxy for "QSQ terminates iff ...").
	_, _, err = ddatalog.Run(prog, query, datalog.Budget{MaxFacts: 3000}, 30*time.Second)
	if err == nil {
		t.Fatal("naive evaluation of the cyclic diagnosis program unexpectedly reached a fixpoint")
	}
}

// TestTheorem3PlaceOnlyPeer: a peer may own places and no transition (its
// neighbours own every transition around them). Its root conditions are as
// available to a configuration's first event as anyone's — the supervisor's
// notParent base rule must range over the peers that hold conditions, not
// over those that hold events.
func TestTheorem3PlaceOnlyPeer(t *testing.T) {
	n := petri.NewNet()
	n.AddPlace("a", "q1")
	n.AddPlace("b", "q2")
	n.AddTransition("t", "q2", "x", []petri.NodeID{"a"}, []petri.NodeID{"b"})
	pn, err := petri.New(n, petri.NewMarking("a"))
	if err != nil {
		t.Fatal(err)
	}
	reps := runAll(t, pn, alarm.S("x", "q2"))
	want := reps[EngineDirect].Diagnoses
	if len(want) != 1 {
		t.Fatalf("direct search finds %v, want the one firing of t", want.Keys())
	}
	for _, e := range []Engine{EngineProduct, EngineNaive, EngineDQSQ} {
		if !reps[e].Diagnoses.Equal(want) {
			t.Fatalf("%v diagnoses %v != direct %v", e, reps[e].Diagnoses.Keys(), want.Keys())
		}
	}
}

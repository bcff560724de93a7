package diagnosis

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/product"
	"repro/internal/snapshot"
)

type streamCase struct {
	name string
	pn   *petri.PetriNet
	seq  alarm.Seq
}

// streamCases are the nets of the benchmark workloads plus n random safe
// nets, each with a generated execution to observe.
func streamCases(n int) []streamCase {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	cases := []streamCase{
		{"fig1", petri.Example(), seqA1},
		{"pipeline(6,2)", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 12)},
		{"telecom(3)", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 6)},
	}
	for seed := int64(0); len(cases) < 3+n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pn := gen.RandomSafe(rng, gen.Params{Peers: 2 + int(seed%2), Places: 5, Transitions: 4, Alarms: 2})
		if pn == nil {
			continue
		}
		exec, _ := pn.RandomExecution(rng, 1+rng.Intn(4))
		seq := alarm.Seq(petri.Interleave(rng, exec.ObservedAlarms()))
		if len(seq) == 0 {
			continue
		}
		cases = append(cases, streamCase{fmt.Sprintf("random(%d)", seed), pn, seq})
	}
	return cases
}

// TestClonedSessionsMatchPrivateTemplate: a session cloned from the cached
// template of its net and a session that is the only clone of a template of
// its own report, after every append, the same diagnoses byte for byte —
// the product engine's — the same counters and the same materialized trans
// and places; the cached one does so across a checkpoint and restore
// mid-stream. Theorem 4 holds online: after every append the trans events
// the session has materialized are the prefix the algorithm of [8] builds
// for the alarms so far, and so are the places conditions, pad conditions
// stripped. And after every append both sessions hold what a
// snapshot takes from their template: its hosted rules, its rewriting
// trace, and relations in its slots, arities, activation and subscribers,
// which the snapshot encoder checks.
func TestClonedSessionsMatchPrivateTemplate(t *testing.T) {
	if snapshot.Major != 4 || snapshot.Minor != 0 {
		t.Fatalf("snapshot format is %d.%d, want 4.0: clones must not need a new one", snapshot.Major, snapshot.Minor)
	}
	for _, tc := range streamCases(50) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{}); err != nil { // builds or finds the template
				t.Fatal(err)
			}
			cached, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			tmpl, err := newTemplate(tc.pn, 0)
			if err != nil {
				t.Fatal(err)
			}
			private := tmpl.session(tc.pn, datalog.Budget{})
			for i := range tc.seq {
				if i == len(tc.seq)/2 {
					cached = snapshotRestore(t, cached, tc.pn)
				}
				got, err := cached.Append(tc.seq[i:i+1], time.Minute)
				if err != nil {
					t.Fatalf("append %d, cached: %v", i, err)
				}
				want, err := private.Append(tc.seq[i:i+1], time.Minute)
				if err != nil {
					t.Fatalf("append %d, private: %v", i, err)
				}
				if g, w := strings.Join(got.Diagnoses.Keys(), "|"), strings.Join(want.Diagnoses.Keys(), "|"); g != w {
					t.Fatalf("append %d: diagnoses\n%s\n!= private template's\n%s", i, g, w)
				}
				oracle, err := product.Run(tc.pn, tc.seq[:i+1], product.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Diagnoses.Equal(toDiagnoses(oracle.Diagnoses)) {
					t.Fatalf("append %d: diagnoses\n%v\n!= product\n%v", i, got.Diagnoses.Keys(), oracle.Diagnoses)
				}
				if got.Derived != want.Derived || got.Messages != want.Messages {
					t.Fatalf("append %d: derived %d, messages %d; private template: %d, %d",
						i, got.Derived, got.Messages, want.Derived, want.Messages)
				}
				gTrans, gPlaces := unfoldingNodes(cached.Session().Engine())
				wTrans, wPlaces := unfoldingNodes(private.Session().Engine())
				if !reflect.DeepEqual(gTrans, wTrans) {
					t.Fatalf("append %d: materialized %s differ:\n%v\n%v", i, RelTrans, gTrans, wTrans)
				}
				if !reflect.DeepEqual(gPlaces, wPlaces) {
					t.Fatalf("append %d: materialized %s differ:\n%v\n%v", i, RelPlaces, gPlaces, wPlaces)
				}
				if !reflect.DeepEqual(gTrans, oracle.PrefixEvents) {
					t.Fatalf("append %d: materialized events\n%v\n!= the [8] prefix\n%v", i, gTrans, oracle.PrefixEvents)
				}
				if !reflect.DeepEqual(gPlaces, oracle.PrefixConditions) {
					t.Fatalf("append %d: materialized conditions\n%v\n!= the [8] prefix\n%v", i, gPlaces, oracle.PrefixConditions)
				}
				for _, d := range []*OnlineDiagnoser{cached, private} {
					if err := holdsTemplateState(d); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
			}
		})
	}
}

// holdsTemplateState reports how d has moved past its template in what a
// snapshot of d takes from the template rather than writing: the rules each
// peer hosts, the rewriting trace and — through the encoder's own refusal —
// each peer's relation slots, arities, activation flags and subscribers.
func holdsTemplateState(d *OnlineDiagnoser) error {
	eng, tmpl := d.Session().Engine(), d.tmpl.sess.Engine()
	for _, id := range tmpl.Peers() {
		mine, theirs := eng.Rules(id), tmpl.Rules(id)
		if len(mine) != len(theirs) {
			return fmt.Errorf("peer %s hosts %d rules, its template %d", id, len(mine), len(theirs))
		}
		for ri := range mine {
			if mine[ri] != theirs[ri] {
				return fmt.Errorf("peer %s, rule %d is not its template's", id, ri)
			}
		}
	}
	if g, w := d.Session().Trace().Snapshot(), d.tmpl.sess.Trace().Snapshot(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("rewriting trace of %d entries, its template's %d", len(g), len(w))
	}
	return d.Session().EncodeSnapshot(&snapshot.Writer{})
}

var freshNets atomic.Int64

// freshNet returns a net no session has been opened on, however often the
// tests run in one process: one place name is new every time.
func freshNet(t *testing.T) *petri.PetriNet {
	t.Helper()
	in := petri.NodeID(fmt.Sprintf("fresh%d", freshNets.Add(1)))
	n := petri.NewNet()
	n.AddPlace(in, "q1")
	n.AddPlace("out", "q2")
	n.AddTransition("t", "q1", "x", []petri.NodeID{in}, []petri.NodeID{"out"})
	pn, err := petri.New(n, petri.NewMarking(in))
	if err != nil {
		t.Fatal(err)
	}
	return pn
}

// templateSize is what sessions must leave alone: terms interned in the
// engine's store and, per peer, tuples stored and rules hosted.
func templateSize(tmpl *template) string {
	var b strings.Builder
	eng := tmpl.sess.Engine()
	fmt.Fprintf(&b, "%d terms;", tmpl.sess.Program().Store.Len())
	for _, id := range eng.Peers() {
		fmt.Fprintf(&b, " %s: %d tuples in %d relations, %d rules;", id,
			eng.PeerDB(id).FactCount(), len(eng.PeerDB(id).Names()), len(eng.Rules(id)))
	}
	return b.String()
}

// TestClonesAreIsolated streams a different sequence through each of eight
// concurrent clones of one template (run it under -race): every one reports
// what the product engine does, and the template is the size it was. Two
// concurrent first creates of a net build its template once.
func TestClonesAreIsolated(t *testing.T) {
	pn := gen.Pipeline(6, 2)
	tmpl, _, err := cachedTemplate(pn, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := templateSize(tmpl)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(int64(100+g))), 4+g%3)
			d, err := NewOnlineDiagnoser(pn, datalog.Budget{})
			if err != nil {
				errs <- err
				return
			}
			for i := range seq {
				rep, err := d.Append(seq[i:i+1], time.Minute)
				if err != nil {
					errs <- fmt.Errorf("clone %d, append %d: %w", g, i, err)
					return
				}
				want, err := Run(pn, seq[:i+1], EngineProduct, Options{Timeout: time.Minute})
				if err != nil {
					errs <- err
					return
				}
				if !rep.Diagnoses.Equal(want.Diagnoses) {
					errs <- fmt.Errorf("clone %d, append %d: diagnoses %v, product %v", g, i, rep.Diagnoses.Keys(), want.Diagnoses.Keys())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := templateSize(tmpl); after != before {
		t.Fatalf("sessions changed their template:\n%s\nwas\n%s", after, before)
	}

	fresh := freshNet(t)
	hits0, misses0, _ := ProgramCacheStats()
	start := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := NewOnlineDiagnoser(fresh, datalog.Budget{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	hits, misses, entries := ProgramCacheStats()
	if misses-misses0 != 1 || hits-hits0 != 1 {
		t.Fatalf("two concurrent first creates: %d builds and %d hits, want 1 and 1", misses-misses0, hits-hits0)
	}
	if entries < 1 || entries > programCacheSize {
		t.Fatalf("%d cached programs, want 1..%d", entries, programCacheSize)
	}
}

// cloneBytesBound pins what one session of Pipeline(6,2) allocates at
// creation: its own store, relation headers and activation state (428 kB
// measured on linux/amd64). The rewritten program, which every session's
// first append used to rewrite, compile and keep (35.5 MB allocated), is
// not part of it.
const cloneBytesBound = 2 << 20

// templateRules is the number of compiled rules the Pipeline(6,2) template
// hosts across its peers with the standing query, whose configPrefixes
// index is free: 2 506 (9 084 when every append's query bound the six index
// columns and configPrefixes met 2^6 adornments).
const templateRules = 2506

// TestAppendsInstallNothing: on a net whose template is cached, a session's
// appends — its first as much as its second — rewrite no adornment and
// install no rule, two sessions run the very same compiled rules, and
// creating one stays cheap.
func TestAppendsInstallNothing(t *testing.T) {
	pn := gen.Pipeline(6, 2)
	seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(1)), 2)
	open := func() *OnlineDiagnoser {
		d, err := NewOnlineDiagnoser(pn, datalog.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	open() // the template is cached from here on
	d, other := open(), open()
	hosted := func() (n int) {
		for _, id := range d.Session().Engine().Peers() {
			n += len(d.Session().Engine().Rules(id))
		}
		return n
	}
	for i := range seq {
		rules, rewrites := hosted(), len(d.Session().Trace().Snapshot())
		if _, err := d.Append(seq[i:i+1], time.Minute); err != nil {
			t.Fatal(err)
		}
		if n := hosted() - rules; n != 0 {
			t.Fatalf("append %d installed %d rules, want none", i+1, n)
		}
		if keys := d.Session().Trace().Snapshot()[rewrites:]; len(keys) != 0 {
			t.Fatalf("append %d rewrote %v, want nothing", i+1, keys)
		}
	}

	shared := 0
	for _, id := range other.Session().Engine().Peers() {
		mine, theirs := d.Session().Engine().Rules(id), other.Session().Engine().Rules(id)
		if len(mine) != len(theirs) {
			t.Fatalf("peer %s: a session that appended hosts %d rules, one that did not %d", id, len(mine), len(theirs))
		}
		for ri := range theirs {
			if mine[ri] != theirs[ri] {
				t.Fatalf("peer %s, rule %d: two sessions of one net hold two compiled copies", id, ri)
			}
			shared++
		}
	}
	if shared != templateRules {
		t.Fatalf("sessions share %d compiled rules, want the pipeline template's %d", shared, templateRules)
	}

	const n = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		open()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > cloneBytesBound {
		t.Fatalf("creating a session allocates %d bytes, want at most %d", per, cloneBytesBound)
	}
}

// TestCloneAccountingContinuesTheTemplate: a fresh session reports the
// rewriting trace, the materialization totals and the join counters of the
// priming its template did, as if it had done it itself; what priming
// derived counts against the session's own fact budget, so a budget too
// small for the first alarm still opens a session and fails its first
// append with ErrBudget; and the depth gadget, which shapes what priming
// and every later join derive, is part of the cache key.
func TestCloneAccountingContinuesTheTemplate(t *testing.T) {
	pn := petri.Example()
	tmpl, _, err := cachedTemplate(pn, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewOnlineDiagnoser(pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Session().Trace().Snapshot(), tmpl.sess.Trace().Snapshot(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh session's rewriting trace has %d entries, its template's %d (want equal, not empty)", len(got), len(want))
	}
	gd, gr := d.Session().Engine().Totals()
	wd, wr := tmpl.sess.Engine().Totals()
	if gd != wd || gr != wr {
		t.Fatalf("fresh session totals %d derived, %d replicated; template %d, %d", gd, gr, wd, wr)
	}
	gp, ga := d.Session().Engine().JoinCounts()
	wp, wa := tmpl.sess.Engine().JoinCounts()
	if gp != wp || ga != wa {
		t.Fatalf("fresh session join counts %d/%d, template %d/%d", gp, ga, wp, wa)
	}

	tight, err := NewOnlineDiagnoser(pn, datalog.Budget{MaxFacts: wd + 1})
	if err != nil {
		t.Fatalf("a session with a tight budget must still open: %v", err)
	}
	if _, err := tight.Append(seqA1[:1], time.Minute); !errors.Is(err, datalog.ErrBudget) {
		t.Fatalf("first append under a %d-fact budget: %v, want ErrBudget", wd+1, err)
	}

	fresh := freshNet(t)
	_, misses0, _ := ProgramCacheStats()
	for _, depth := range []int{0, 0, 7, 7} {
		if _, err := NewOnlineDiagnoser(fresh, datalog.Budget{MaxTermDepth: depth}); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses, _ := ProgramCacheStats(); misses != misses0+2 {
		t.Fatalf("sessions on one net under two depth bounds, two each, built %d programs, want 2", misses-misses0)
	}
}

// TestTemplateBuildIsTraced: the create that builds a net's template says
// so with one dqsq span once it has a tracer; creates that find it cached
// say nothing, and cost an untraced session nothing.
func TestTemplateBuildIsTraced(t *testing.T) {
	spans := func(d *OnlineDiagnoser) (n int) {
		w := obs.NewChromeTraceWriter(0)
		d.SetTracer(w)
		for _, e := range w.Events() {
			if e.Ph == 'X' && e.Track == "dqsq" && strings.HasPrefix(e.Name, "template ") {
				n++
			}
		}
		return n
	}
	pn := freshNet(t)
	first, err := NewOnlineDiagnoser(pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewOnlineDiagnoser(pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := spans(first), spans(second); a != 1 || b != 0 {
		t.Fatalf("template spans: %d under the create that built it, %d under the next; want 1 and 0", a, b)
	}
	if n := testing.AllocsPerRun(10, func() { second.SetTracer(nil) }); n != 0 {
		t.Fatalf("SetTracer(nil) allocates %v times", n)
	}
}

// TestStreamedDerivesNoMoreThanBatched: with the standing query an append
// only extends the configurations its alarms open, so streaming a sequence
// one alarm per append derives no more facts in all than one append of the
// whole sequence does.
func TestStreamedDerivesNoMoreThanBatched(t *testing.T) {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	for _, tc := range []streamCase{
		{"pipeline(6,2)", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 12)},
		{"telecom(3)", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamed, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			var last *Report
			for i := range tc.seq {
				if last, err = streamed.Append(tc.seq[i:i+1], time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			batched, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			all, err := batched.Append(tc.seq, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !last.Diagnoses.Equal(all.Diagnoses) {
				t.Fatalf("streamed diagnoses %v, batched %v", last.Diagnoses.Keys(), all.Diagnoses.Keys())
			}
			t.Logf("derived: streamed %d, batched %d", last.Derived, all.Derived)
			if last.Derived > all.Derived {
				t.Fatalf("%d one-alarm appends derived %d facts, one append of them %d", len(tc.seq), last.Derived, all.Derived)
			}
		})
	}
}

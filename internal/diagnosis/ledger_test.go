package diagnosis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/dqsq"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/rel"
)

// TestWorkLedger pins the engine's work on four streams and one pattern,
// exactly: the facts the net's template derived when it was primed, the
// facts derived and the messages sent by each one-alarm append, and at the
// end of each stream the tuples the session added to its template by
// relation family, the kernels' probes and attempts and the bytes its
// peers sent (both past what priming the template cost), the unfolding
// nodes it materialized and its diagnosis count. The 45-alarm stream also records its growth: the facts derived
// and the unfolding nodes added over its first and its last third of
// appends. The Section 4.4 pattern a·(b·a)*@p2 on Fig. 1 is one batch dQSQ
// evaluation under the depth gadget: its derived facts, messages, tuples
// by family, probes, attempts, bytes and diagnoses. These counts are deterministic, so a change
// that moves the engine's work shows as a diff of
// testdata/work_ledger.golden (rewrite it with -update and explain the
// diff). Times and allocations are not exact and are not here.
func TestWorkLedger(t *testing.T) {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	var b strings.Builder
	for _, tc := range []streamCase{
		{"fig1 b a c", petri.Example(), seqA1},
		{"pipeline(6,2) x12 seed 1", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 12)},
		{"telecom(3) x6 seed 1", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 6)},
		{"pipeline(6,2) x45 seed 1", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 45)},
	} {
		ledgerStream(t, &b, tc)
	}
	ledgerPattern(t, &b)
	golden(t, "work_ledger.golden", b.String())
}

// ledgerStream appends one stream's section of the ledger to b, with the
// growth lines when the stream has at least 45 appends.
func ledgerStream(t *testing.T, b *strings.Builder, tc streamCase) {
	t.Helper()
	d, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// A clone starts from its template's counters, so a report's
	// cumulative Derived includes what priming the template derived.
	derived, _ := d.Session().Engine().Totals()
	messages := 0
	fmt.Fprintf(b, "== %s\ntemplate\tderived\t%d\nappend\talarm\tderived\tmessages\n", tc.name, derived)
	// cum[i] is the cumulative derived facts and unfolding nodes after i
	// appends.
	events, conds := countNodes(d.Session().Engine())
	cum := [][2]int{{derived, events + conds}}
	var (
		rep   *Report
		round dist.Stats
		bytes int
	)
	d.Session().Engine().SetNetFactory(func() dist.Net { return statsNet{dist.NewNetwork(), &round} })
	for i := range tc.seq {
		if rep, err = d.Append(tc.seq[i:i+1], time.Minute); err != nil {
			t.Fatalf("%s: append %d: %v", tc.name, i+1, err)
		}
		bytes += sentBytes(round)
		fmt.Fprintf(b, "%d\t%s@%s\t%d\t%d\n", i+1, tc.seq[i].Alarm, tc.seq[i].Peer,
			rep.Derived-derived, rep.Messages-messages)
		derived, messages = rep.Derived, rep.Messages
		cum = append(cum, [2]int{rep.Derived, rep.TransFacts + rep.PlaceFacts})
	}
	ledgerTuples(b, d.Session().Engine(), d.tmpl.sess.Engine())
	probes, attempts := d.Session().Engine().JoinCounts()
	primedProbes, primedAttempts := d.tmpl.sess.Engine().JoinCounts()
	ledgerWork(b, probes-primedProbes, attempts-primedAttempts, bytes)
	fmt.Fprintf(b, "nodes\tevents\t%d\nnodes\tconditions\t%d\ndiagnoses\t%d\n",
		rep.TransFacts, rep.PlaceFacts, len(rep.Diagnoses))
	if n := len(tc.seq); n >= 45 {
		fmt.Fprintf(b, "growth\tthird\tderived\tnodes\n")
		for _, third := range []struct {
			name     string
			from, to int
		}{{"first", 0, n / 3}, {"last", n - n/3, n}} {
			fmt.Fprintf(b, "growth\t%s\t%d\t%d\n", third.name,
				cum[third.to][0]-cum[third.from][0], cum[third.to][1]-cum[third.from][1])
		}
	}
	b.WriteString("\n")
}

// ledgerPattern appends the pattern section of the ledger to b: Fig. 1
// under a·(b·a)*@p2, the Section 4.4 pattern program evaluated by dQSQ
// with the depth gadget at 14.
func ledgerPattern(t *testing.T, b *strings.Builder) {
	t.Helper()
	padded, err := petri.Pad2(petri.Example())
	if err != nil {
		t.Fatal(err)
	}
	pat := alarm.Concat(alarm.Sym("a", "p2"),
		alarm.Star(alarm.Concat(alarm.Sym("b", "p2"), alarm.Sym("a", "p2"))))
	prog, query, err := BuildPatternProgram(padded, pat.Compile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dqsq.Run(prog, query, datalog.Budget{MaxTermDepth: 14}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== fig1 pattern a.(b.a)*@p2 depth 14\nderived\t%d\nmessages\t%d\n",
		res.Stats.Derived, res.Stats.Net.MessagesSent)
	ledgerTuples(b, res.Engine, nil)
	probes, attempts := res.Engine.JoinCounts()
	ledgerWork(b, probes, attempts, sentBytes(res.Stats.Net))
	fmt.Fprintf(b, "diagnoses\t%d\n", len(ExtractDiagnoses(res.Store, res.Answers, true)))
}

// ledgerWork writes the join work (stored tuples the kernels probed, body
// matches they found) and the wire-encoded bytes the peers sent.
func ledgerWork(b *strings.Builder, probes, attempts, bytes int) {
	fmt.Fprintf(b, "kernel\tprobes\t%d\nkernel\tattempts\t%d\ndist\tbytes\t%d\n", probes, attempts, bytes)
}

// sentBytes sums a round's wire-encoded payload bytes over its channels.
func sentBytes(stats dist.Stats) int {
	n := 0
	for _, c := range stats.BytesSentByPair {
		n += c
	}
	return n
}

// ledgerTuples writes the tuples eng holds past base (none when base is
// nil) by relation family.
func ledgerTuples(b *strings.Builder, eng, base *ddatalog.Engine) {
	tuples := map[string]int{}
	for _, id := range eng.Peers() {
		eng.PeerDB(id).Each(func(name rel.Name, r *rel.Relation) {
			n := r.Len()
			if base != nil {
				if br := base.PeerDB(id).Lookup(name); br != nil {
					n -= br.Len()
				}
			}
			tuples[family(name)] += n
			tuples["total"] += n
		})
	}
	for _, f := range []string{RelTrans, RelPlaces, RelCut, RelCo, "sup", "other", "total"} {
		fmt.Fprintf(b, "tuples\t%s\t%d\n", f, tuples[f])
	}
}

// family names the ledger family of a stored relation: trans, places,
// cut or co when it holds one of them or is a rewriting relation
// serving one (a supplementary "sup.<peer>.<rel>.…" or an input
// "in-<rel>…"), "sup" for any other rewriting relation, and "other" for
// the rest.
func family(qualified rel.Name) string {
	plain, _, _ := ddatalog.SplitQualified(qualified)
	name, _, _ := strings.Cut(string(plain), "#")
	rewriting := false
	if rest, ok := strings.CutPrefix(name, "sup."); ok {
		// sup.<peer>.<relation>.<rule>_<position>
		parts := strings.Split(rest, ".")
		name, rewriting = parts[len(parts)-2], true
	} else if rest, ok := strings.CutPrefix(name, "in-"); ok {
		name, rewriting = rest, true
	}
	switch name {
	case RelTrans, RelPlaces, RelCut, RelCo:
		return name
	}
	if rewriting {
		return "sup"
	}
	return "other"
}

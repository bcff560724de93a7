package diagnosis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/rel"
)

// TestWorkLedger pins the engine's work on three streams, exactly: the
// facts the net's template derived when it was primed, the facts derived
// and the messages sent by each one-alarm append, and at
// the end of each stream the tuples the session added to its template by
// relation family, the unfolding nodes it materialized and its diagnosis
// count. These counts are deterministic, so a change that moves the
// engine's work shows as a diff of testdata/work_ledger.golden (rewrite it
// with -update and explain the diff). Times and allocations are not
// exact and are not here.
func TestWorkLedger(t *testing.T) {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	var b strings.Builder
	for _, tc := range []streamCase{
		{"fig1 b a c", petri.Example(), seqA1},
		{"pipeline(6,2) x12 seed 1", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 12)},
		{"telecom(3) x6 seed 1", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 6)},
	} {
		ledgerStream(t, &b, tc)
	}
	golden(t, "work_ledger.golden", b.String())
}

// ledgerStream appends one stream's section of the ledger to b.
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
	var rep *Report
	for i := range tc.seq {
		if rep, err = d.Append(tc.seq[i:i+1], time.Minute); err != nil {
			t.Fatalf("%s: append %d: %v", tc.name, i+1, err)
		}
		fmt.Fprintf(b, "%d\t%s@%s\t%d\t%d\n", i+1, tc.seq[i].Alarm, tc.seq[i].Peer,
			rep.Derived-derived, rep.Messages-messages)
		derived, messages = rep.Derived, rep.Messages
	}
	tuples := map[string]int{}
	eng, tmpl := d.Session().Engine(), d.tmpl.sess.Engine()
	for _, id := range eng.Peers() {
		base := tmpl.PeerDB(id)
		eng.PeerDB(id).Each(func(name rel.Name, r *rel.Relation) {
			n := r.Len()
			if br := base.Lookup(name); br != nil {
				n -= br.Len()
			}
			tuples[family(name)] += n
			tuples["total"] += n
		})
	}
	for _, f := range []string{RelTrans, RelPlaces, RelCut, RelCo, "sup", "other", "total"} {
		fmt.Fprintf(b, "tuples\t%s\t%d\n", f, tuples[f])
	}
	fmt.Fprintf(b, "nodes\tevents\t%d\nnodes\tconditions\t%d\ndiagnoses\t%d\n\n",
		rep.TransFacts, rep.PlaceFacts, len(rep.Diagnoses))
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

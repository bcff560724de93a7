package diagnosis

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/petri"
)

// TestSessionJoinsProbeByIndex pins the delta-first join plans at the
// level they pay off: over a whole warm session, one alarm per append, the
// peers' joins hand the matcher at most four stored tuples per body match
// they find (joining in source order walked a whole supplementary relation
// per arriving fact: 5.4 M probes for 0.11 M matches on the pipeline), and
// every append still reports the product engine's diagnoses.
func TestSessionJoinsProbeByIndex(t *testing.T) {
	pipeline, telecom := gen.Pipeline(6, 2), gen.Telecom(3)
	for _, tc := range []struct {
		name string
		pn   *petri.PetriNet
		seq  alarm.Seq
	}{
		{"pipeline(6,2)", pipeline, gen.PipelineSeq(pipeline, rand.New(rand.NewSource(1)), 12)},
		{"telecom(3)", telecom, gen.TelecomSeq(telecom, rand.New(rand.NewSource(1)), 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewOnlineDiagnoser(tc.pn, datalog.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.seq {
				rep, err := d.Append(tc.seq[i:i+1], time.Minute)
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				want, err := Run(tc.pn, tc.seq[:i+1], EngineProduct, Options{Timeout: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Diagnoses.Equal(want.Diagnoses) {
					t.Fatalf("append %d: diagnoses\n%v\n!= product\n%v", i, rep.Diagnoses.Keys(), want.Diagnoses.Keys())
				}
			}
			probes, attempts := d.Session().Engine().JoinCounts()
			t.Logf("%d probes for %d body matches", probes, attempts)
			if attempts == 0 || probes > 4*attempts {
				t.Fatalf("joins probed %d stored tuples for %d body matches, want at most 4 per match", probes, attempts)
			}
		})
	}
}

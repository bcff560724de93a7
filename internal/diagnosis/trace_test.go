package diagnosis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/obs"
	"repro/internal/petri"
)

// TestOnlineDiagnoserTrace drives an instrumented online session and
// checks that the whole stack reports through one tracer: append spans
// (diagnosis), supplementary-relation gauges (dqsq), derivation counters
// (ddatalog) and the unfolding-nodes gauge. The session's appends open no
// subquery — the standing query's rules came with the template — so no
// subquery counter moves.
func TestOnlineDiagnoserTrace(t *testing.T) {
	pn := petri.Example()
	d, err := NewOnlineDiagnoser(pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewChromeTraceWriter(0)
	d.SetTracer(w)

	var rep *Report
	for i, o := range seqA1 {
		if rep, err = d.Append([]alarm.Obs{o}, time.Minute); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}

	appendSpans := 0
	subqueries, supTuples, derived, lastNodes := 0.0, -1.0, 0.0, -1.0
	for _, e := range file.TraceEvents {
		switch {
		case e.Ph == "X" && strings.HasPrefix(e.Name, "append "):
			appendSpans++
		case e.Ph == "C" && e.Name == "dqsq_subqueries_total":
			subqueries = e.Args["value"].(float64) // running total
		case e.Ph == "C" && e.Name == "dqsq_sup_tuples":
			supTuples = e.Args["value"].(float64)
		case e.Ph == "C" && e.Name == "ddatalog_facts_derived_total":
			derived = e.Args["value"].(float64)
		case e.Ph == "C" && e.Name == "diagnosis_unfolding_nodes":
			lastNodes = e.Args["value"].(float64) // gauge: absolute sample
		}
	}
	if appendSpans != len(seqA1) {
		t.Fatalf("append spans = %d, want %d", appendSpans, len(seqA1))
	}
	if subqueries != 0 {
		t.Fatalf("dqsq_subqueries_total = %v, want no subquery opened by an append", subqueries)
	}
	if supTuples <= 0 {
		t.Fatalf("dqsq_sup_tuples = %v, want the supplementary relations sampled", supTuples)
	}
	// Report.Derived counts from the template's state on; the tracer only
	// what the session derived itself.
	tmpl, _, err := cachedTemplate(pn, 0)
	if err != nil {
		t.Fatal(err)
	}
	primed, _ := tmpl.sess.Engine().Totals()
	if derived != float64(rep.Derived-primed) {
		t.Fatalf("ddatalog_facts_derived_total = %v, Report.Derived = %d of which %d by the template", derived, rep.Derived, primed)
	}
	if lastNodes != float64(rep.TransFacts+rep.PlaceFacts) {
		t.Fatalf("diagnosis_unfolding_nodes = %v, want %d", lastNodes, rep.TransFacts+rep.PlaceFacts)
	}
}

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diagnosis"
)

func TestOracleRejectsCorruptedDiagnosis(t *testing.T) {
	w, _ := findWorkload("churn")
	in, err := buildInput(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	final := in.want[len(in.want)-1]
	// Fig. 1, (b,p1)(a,p2)(c,p1): the paper's two explanations, as the
	// product engine names their events.
	pn, seq := familyNet("quickstart", 1)
	rep, err := diagnosis.Run(pn, seq, diagnosis.EngineProduct, diagnosis.Options{})
	if err != nil || len(rep.Diagnoses) != 2 || len(rep.Diagnoses[0]) != 3 {
		t.Fatalf("oracle for the running example: %v, %v", rep, err)
	}
	good := [][]string(rep.Diagnoses)
	body := func(diags [][]string) []byte {
		return mustJSON(map[string]any{"report": map[string]any{"diagnoses": diags, "elapsed_ms": 1.5}})
	}
	// Same set, other enumeration order inside and across diagnoses.
	reordered := [][]string{{good[1][2], good[1][0], good[1][1]}, {good[0][1], good[0][2], good[0][0]}}
	if _, err := checkReport(body(reordered), final); err != nil {
		t.Fatalf("reordered correct answer rejected: %v", err)
	}
	for name, diags := range map[string][][]string{
		"missing diagnosis": {good[0]},
		"extra diagnosis":   {good[0], good[1], {good[0][0]}},
		"missing event":     {good[0], good[1][:2]},
		"changed event":     {good[0], {good[1][0], good[1][1], "f(vi,g(r,6))"}},
		"empty":             {},
	} {
		if _, err := checkReport(body(diags), final); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := checkReport([]byte(`{"error": "no such session"}`), final); err == nil {
		t.Error("body without report accepted")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{99, 90, math.NaN()}, {100, 90, 90}, {999, 99, math.NaN()}, {1000, 99, 990},
		{22, 90, math.NaN()}, {3, 50, 2}, {0, 50, math.NaN()},
	} {
		got := percentile(seq(c.n), c.p)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	// An unsupported percentile reaches the result file as null.
	f := &resultFile{Workloads: map[string]*workloadResult{}}
	w, _ := findWorkload("batch")
	f.add(w, &runResult{Metrics: map[string]float64{"append_ms_p90": math.NaN(), "append_ms_p50": 3}, Samples: map[string]int{}}, false)
	b, err := json.Marshal(f.Workloads["batch"].EndToEnd["append_ms_p90"])
	if err != nil || !strings.Contains(string(b), `"values":[null]`) {
		t.Errorf("unsupported percentile marshals as %s (%v)", b, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %g, %g", q1, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []*span{
		{Layer: "bench", Name: "core.append", StartUS: 0, EndUS: 100},
		{Layer: "diagnosis", Name: "append.v1", StartUS: 10, EndUS: 90},
		{Layer: "ddatalog", Name: "run q", StartUS: 20, EndUS: 80},
		{Layer: "dist-round", Name: "dist: round", StartUS: 25, EndUS: 75},
		// Two handlers side by side on the worker pool, one after them.
		{Layer: "w1", Name: "handle wire.Facts", StartUS: 30, EndUS: 50},
		{Layer: "w2", Name: "handle wire.Facts", StartUS: 40, EndUS: 55},
		{Layer: "w1", Name: "handle wire.Activate", StartUS: 60, EndUS: 70},
		// A second, childless append.
		{Layer: "bench", Name: "core.append", StartUS: 100, EndUS: 130},
	}
	link(spans)
	want := []struct {
		start  float64
		parent float64 // start of the parent span, -1 for none
		self   float64
	}{
		{0, -1, 20}, {10, 0, 20}, {20, 10, 10},
		{25, 20, 50 - (25 + 10)}, // round: 50 long, handlers cover [30,55] and [60,70]
		{30, 25, 20}, {40, 25, 15}, {60, 25, 10},
		{100, -1, 30},
	}
	at := func(start float64) *span {
		for _, s := range spans {
			if s.StartUS == start {
				return s
			}
		}
		t.Fatalf("no span starts at %g", start)
		return nil
	}
	total := 0.0
	for _, w := range want {
		s := at(w.start)
		if s.SelfUS != w.self {
			t.Errorf("span at %g: self %g, want %g", w.start, s.SelfUS, w.self)
		}
		wantParent := 0
		if w.parent >= 0 {
			wantParent = at(w.parent).ID
		}
		if s.Parent != wantParent {
			t.Errorf("span at %g: parent %d, want %d", w.start, s.Parent, wantParent)
		}
		if mainLine[s.Layer] {
			total += s.SelfUS
		}
	}
	// Main-line self times plus the wall time handlers cover add up to
	// the roots: nothing is counted twice, nothing is lost.
	if covered := 25.0 + 10.0; total+covered != 130 {
		t.Errorf("self times add up to %g, want 130", total+covered)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vs ...float64) *series {
		s := &series{Unit: "ms"}
		for i := range vs {
			s.Values = append(s.Values, &vs[i])
		}
		return s
	}
	lower := metricDef{name: "append_ms_p50", unit: "ms", better: "lower", bound: 0.1}
	higher := metricDef{name: "alarms_per_s", unit: "1/s", better: "higher", bound: 0.1}
	exact := metricDef{name: "rel.tuples", unit: "count", exact: true}
	for _, c := range []struct {
		d    metricDef
		a, b *series
		want string
	}{
		{lower, mk(10, 10.2, 9.9), mk(10.5, 10.4, 10.6), "same"},
		{lower, mk(10, 10.2, 9.9), mk(12, 12.1, 11.9), "worse"},
		{lower, mk(10, 10.2, 9.9), mk(8, 8.1, 7.9), "better"},
		{higher, mk(100, 101, 99), mk(80, 81, 79), "worse"},
		{higher, mk(100, 101, 99), mk(120, 121, 119), "better"},
		{lower, mk(10, 14, 7, 12), mk(12, 12.1, 11.9, 12), "unresolved"},
		{exact, mk(42, 57), mk(42, 57), "same"},
		{exact, mk(42, 57), mk(42, 58), "differs"},
		{lower, mk(10), &series{Values: []*float64{nil}}, "n/a"},
	} {
		if got, detail := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q (%s), want %q", c.d.name, got, detail, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// binary reports from, so the contract file cannot drift from the code.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(b, &all); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(all))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, table has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s is %d characters", w.name, len(w.why))
		}
	}
	var contract []metricDef
	for _, d := range endToEnd {
		if d.contract {
			contract = append(contract, d)
		}
	}
	if len(spec.EndToEnd) != len(contract) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d contract metrics in the table", len(spec.EndToEnd), len(contract))
	}
	for i, d := range contract {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload for a moment against real children,
// and one traced pass, so the whole harness is exercised.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	run := func(w workload, traced bool) {
		res, err := runWorkload(context.Background(), runConfig{root: root, w: w, seed: 5, seconds: 0.5, trace: traced, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if traced || d.contract {
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (present %v)", w.name, d.name, v, ok)
				}
			}
			if !traced && d.contract && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, v)
			}
		}
		if traced && (res.Closure < 0.8 || res.Closure > 1.25) {
			t.Errorf("%s: layer self times account for %.0f%% of the append time", w.name, 100*res.Closure)
		}
	}
	for _, w := range workloads {
		run(w, false)
	}
	churn, _ := findWorkload("churn")
	run(churn, true)

	// Nothing survives a run: no scratch directory, hence no child log or
	// data directory.
	left, err := filepath.Glob(filepath.Join(buildDir(root), "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v (%v)", left, err)
	}
}

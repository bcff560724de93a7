package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/petri"
)

// A workload is one traffic mix against one server topology. The
// per-session shape is fixed; how many sessions a run gets through is
// set by its measured seconds.
type workload struct {
	name string
	why  string
	// family names the net the sessions run on; the traced in-process
	// pass runs once per family shape.
	family string
	// topology is what is started: "plain" (one diagnosed), "durable"
	// (diagnosed -data-dir -fsync always) or "pooled" (diagnosed -pool
	// plus two peerd workers).
	topology string
	// clients is the number of closed-loop supervisors (capped at nproc).
	clients int
	// pool is how many distinct sessions are generated from the seed
	// (session i draws from seed+i); a run that needs more cycles them.
	pool int
	// warmup sessions run unmeasured before the measured phase.
	warmup int
	// batch posts a session's whole sequence in one append.
	batch bool
}

// The six workloads. Why each exists is part of the benchmark: for
// every layer there is one workload where it dominates and one where it
// does little.
var workloads = []workload{
	{name: "churn", family: "quickstart", topology: "plain", clients: 2, pool: 1, warmup: 3,
		why: "Fig. 1 net, 3 one-alarm appends per session: http, serve, parser and session build weigh most here, the join least"},
	{name: "durable", family: "quickstart", topology: "durable", clients: 2, pool: 1, warmup: 3,
		why: "churn traffic with -data-dir and -fsync always: adds wal and write-behind snapshot on the ack path, then kill -9 and recover"},
	{name: "pooled", family: "quickstart", topology: "pooled", clients: 2, pool: 1, warmup: 3,
		why: "churn traffic through diagnosed -pool and two peerd workers: adds pool dispatch, wire Session frames and TCP"},
	{name: "pipeline", family: "pipeline", topology: "plain", clients: 1, pool: 32, warmup: 1,
		why: "gen.Pipeline(6,2), 12 alarms one per append: deep cross-peer chain, ddatalog join and term re-encoding dominate"},
	{name: "telecom", family: "telecom", topology: "plain", clients: 1, pool: 64, warmup: 1,
		why: "gen.Telecom(3), 6 firings one per append: shared switch place and conflict, join with shallow terms and few peers"},
	{name: "batch", family: "pipeline", topology: "plain", clients: 1, pool: 32, warmup: 1, batch: true,
		why: "the pipeline streams with all 12 alarms in one append: one evaluation where pipeline pays 12 versioned re-queries"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sessionInput is everything one session sends and everything it must
// get back: the servers only ever see net and alarm text.
type sessionInput struct {
	netText    string
	alarmTexts []string // alarm text of each append, in order
	createBody []byte   // POST /v1/sessions
	appends    [][]byte // POST …/alarms bodies, in order
	alarms     []int    // alarms carried by each append
	want       []string // canonical oracle diagnosis set after each append
}

// canonDiagnoses renders a diagnosis set as a set of sorted lists, so
// two engines that enumerate in different orders compare equal.
func canonDiagnoses(d [][]string) string {
	keys := make([]string, len(d))
	for i, cfg := range d {
		c := append([]string(nil), cfg...)
		sort.Strings(c)
		keys[i] = strings.Join(c, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // marshalling a map of strings cannot fail
	}
	return b
}

// familyNet returns the family's net and the alarm sequence a session
// observes under seed.
func familyNet(family string, seed int64) (*petri.PetriNet, alarm.Seq) {
	rng := rand.New(rand.NewSource(seed))
	switch family {
	case "quickstart":
		return petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1")
	case "pipeline":
		pn := gen.Pipeline(6, 2)
		return pn, gen.PipelineSeq(pn, rng, 12)
	case "telecom":
		pn := gen.Telecom(3)
		return pn, gen.TelecomSeq(pn, rng, 6)
	}
	panic("bench: unknown family " + family)
}

// buildInput generates session i of w and asks the product engine — the
// dedicated algorithm dQSQ is proved equal to (Theorem 4) — for the
// diagnosis set of every prefix the session will post.
func buildInput(w workload, seed int64) (*sessionInput, error) {
	pn, seq := familyNet(w.family, seed)
	netText := parser.FormatNet(pn)
	sys, err := core.LoadNet(netText)
	if err != nil {
		return nil, fmt.Errorf("load %s net: %w", w.family, err)
	}
	in := &sessionInput{netText: netText, createBody: mustJSON(map[string]string{"net": netText, "engine": "dqsq"})}
	step := 1
	if w.batch {
		step = len(seq)
	}
	for end := step; end <= len(seq); end += step {
		text := parser.FormatAlarms(seq[end-step : end])
		in.alarmTexts = append(in.alarmTexts, text)
		in.appends = append(in.appends, mustJSON(map[string]string{"alarms": text}))
		in.alarms = append(in.alarms, step)
		rep, err := sys.Diagnose(seq[:end], core.Product, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle on %s prefix %d: %w", w.family, end, err)
		}
		// A prefix of the supervisor's view may have no explanation yet (an
		// alarm can arrive before the one that caused it); the whole
		// sequence comes from a real execution and always has one.
		if end == len(seq) && len(rep.Diagnoses) == 0 {
			return nil, fmt.Errorf("oracle on %s: no diagnosis for a sequence drawn from a real execution", w.family)
		}
		in.want = append(in.want, canonDiagnoses(rep.Diagnoses))
	}
	return in, nil
}

// buildInputs generates the workload's session pool from seed.
func buildInputs(w workload, seed int64) ([]*sessionInput, error) {
	out := make([]*sessionInput, w.pool)
	for i := range out {
		in, err := buildInput(w, seed+int64(i))
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

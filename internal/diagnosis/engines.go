package diagnosis

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/product"
	"repro/internal/rel"
	"repro/internal/term"
)

// Engine selects a diagnosis strategy.
type Engine int

// The four engines of the reproduction.
const (
	// EngineDirect searches interleavings of the net directly — the
	// ground-truth oracle.
	EngineDirect Engine = iota
	// EngineProduct is the dedicated algorithm of [8] (package product).
	EngineProduct
	// EngineNaive evaluates P_A(N,M,A) with the naive distributed
	// evaluation of Section 3.2 — correct but materializes the whole
	// (depth-bounded) unfolding.
	EngineNaive
	// EngineDQSQ evaluates P_A(N,M,A) with distributed QSQ — the paper's
	// contribution (Section 4.3).
	EngineDQSQ
)

func (e Engine) String() string {
	switch e {
	case EngineDirect:
		return "direct"
	case EngineProduct:
		return "product[8]"
	case EngineNaive:
		return "naive-dDatalog"
	case EngineDQSQ:
		return "dQSQ"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures a diagnosis run.
type Options struct {
	// Budget bounds Datalog evaluation. For EngineNaive on cyclic nets a
	// MaxTermDepth is mandatory (the unfolding is infinite); Run supplies
	// 3*len(seq)+4 when none is set. EngineDQSQ needs no depth bound
	// (Proposition 1) but respects one if given.
	Budget datalog.Budget
	// Timeout bounds distributed runs; 0 means one minute.
	Timeout time.Duration
	// MaxEvents bounds the product unfolding (EngineProduct).
	MaxEvents int
	// Direct bounds the direct search (EngineDirect).
	Direct DirectOptions
	// Tracer observes the distributed engines (per-peer spans, message
	// flows, engine counters). Nil means no tracing; the direct and
	// product engines ignore it.
	Tracer obs.Tracer
}

// tracer returns the configured tracer, obs.Nop when unset.
func (o Options) tracer() obs.Tracer { return obs.Or(o.Tracer) }

// Report is the outcome of a diagnosis run, with the materialization
// metrics the experiments compare (Section 4.3, Theorem 4).
type Report struct {
	Engine    Engine
	Diagnoses Diagnoses
	// TransFacts counts materialized unfolding events: trans facts for the
	// Datalog engines, projected prefix events for the product engine.
	// Zero for the direct engine (it materializes no unfolding).
	TransFacts int
	// PlaceFacts likewise counts materialized unfolding conditions.
	PlaceFacts int
	// Derived counts all rule-derived tuples (Datalog engines).
	Derived int
	// Messages counts network messages (distributed engines).
	Messages int
	Elapsed  time.Duration
	// Truncated reports that a budget or depth bound was hit.
	Truncated bool
}

// Run diagnoses seq in pn with the chosen engine. The direct and product
// engines run on the net as given; the Datalog engines run on its 2-parent
// padding (petri.Pad2) and report event names with the padding stripped,
// so diagnoses are comparable across engines.
func Run(pn *petri.PetriNet, seq alarm.Seq, engine Engine, opt Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Engine: engine}
	switch engine {
	case EngineDirect:
		rep.Diagnoses = Direct(pn, seq, opt.Direct)
	case EngineProduct:
		res, err := product.Run(pn, seq, product.Options{MaxEvents: opt.MaxEvents})
		if err != nil {
			return nil, err
		}
		rep.Diagnoses = toDiagnoses(res.Diagnoses)
		rep.TransFacts = len(res.PrefixEvents)
		rep.PlaceFacts = len(res.PrefixConditions)
		rep.Truncated = res.Truncated
	case EngineNaive, EngineDQSQ:
		if err := runDatalog(pn, seq, engine, opt, rep); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("diagnosis: unknown engine %v", engine)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func toDiagnoses(in [][]string) Diagnoses {
	out := make(Diagnoses, len(in))
	for i, cfg := range in {
		out[i] = append([]string(nil), cfg...)
	}
	return out
}

func runDatalog(pn *petri.PetriNet, seq alarm.Seq, engine Engine, opt Options, rep *Report) error {
	padded, err := petri.Pad2(pn)
	if err != nil {
		return err
	}
	prog, query, err := BuildDiagnosisProgram(padded, seq)
	if err != nil {
		return err
	}
	budget := opt.Budget
	if engine == EngineNaive && budget.MaxTermDepth == 0 {
		// Naive evaluation constructs the unfolding bottom-up; on cyclic
		// nets it diverges without the Section 4.4 depth gadget. This
		// bound covers every event any explanation of seq can use.
		budget.MaxTermDepth = 3*len(seq) + 4
	}

	var rows [][]term.ID
	var store *term.Store
	switch engine {
	case EngineNaive:
		eng, err := ddatalog.NewEngine(prog, budget)
		if err != nil {
			return err
		}
		eng.SetTracer(opt.Tracer)
		res, err := eng.Run(query, opt.Timeout)
		if err != nil {
			return err
		}
		rows, store = res.Answers, res.Store
		rep.Derived = res.Stats.Derived
		rep.Messages = res.Stats.Net.MessagesSent
		rep.Truncated = res.Stats.Truncated
		rep.TransFacts, rep.PlaceFacts = countNodes(eng)
	case EngineDQSQ:
		res, err := dqsq.RunWith(prog, query, budget, opt.Timeout, opt.Tracer)
		if err != nil {
			return err
		}
		rows, store = res.Answers, res.Store
		rep.Derived = res.Stats.Derived
		rep.Messages = res.Stats.Net.MessagesSent
		rep.Truncated = res.Stats.Truncated
		rep.TransFacts, rep.PlaceFacts = countNodes(res.Engine)
	}
	rep.Diagnoses = ExtractDiagnoses(store, rows, true)
	return nil
}

// isPadNode reports whether t is a condition of a Pad2 padding place.
func isPadNode(st *term.Store, t term.ID) bool {
	if st.Kind(t) != term.Comp || st.Name(t) != "g" {
		return false
	}
	args := st.Args(t)
	return len(args) == 2 && petri.PadPlace(petri.NodeID(st.Name(args[1])))
}

// countNodes counts the distinct unfolding nodes an engine materialized:
// events (trans) and conditions (places).
func countNodes(eng *ddatalog.Engine) (trans, places int) {
	t, p := unfoldingNodes(eng)
	return len(t), len(p)
}

// unfoldingNodes collects, in one walk over every peer's relations, the
// unfolding nodes an engine materialized: the distinct first arguments of
// the trans and places relations — every adorned variant of them after
// dQSQ — by pad-stripped name. A peer's copy of another peer's relation
// holds a subset of the owner's tuples, so walking it too adds nothing.
func unfoldingNodes(eng *ddatalog.Engine) (trans, places map[string]bool) {
	trans, places = map[string]bool{}, map[string]bool{}
	for _, id := range eng.Peers() {
		db := eng.PeerDB(id)
		st := eng.PeerStore(id)
		if db == nil {
			continue
		}
		db.Each(func(name rel.Name, r *rel.Relation) {
			plain, _, ok := ddatalog.SplitQualified(name)
			if !ok {
				return
			}
			base, _, _ := strings.Cut(string(plain), "#")
			var nodes map[string]bool
			switch rel.Name(base) {
			case RelTrans:
				nodes = trans
			case RelPlaces:
				nodes = places
			default:
				return
			}
			for _, tup := range r.All() {
				// Padding conditions are an artifact of Pad2, not nodes of
				// the original unfolding; skip them so counts compare
				// against the product engine on the unpadded net.
				if len(tup) > 0 && !isPadNode(st, tup[0]) {
					nodes[StripPads(st, tup[0])] = true
				}
			}
		})
	}
	return trans, places
}

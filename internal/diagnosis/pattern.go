package diagnosis

import (
	"fmt"
	"slices"

	"repro/internal/alarm"
	"repro/internal/ddatalog"
	"repro/internal/petri"
	"repro/internal/term"
)

// stateConst names the automaton-state constant of NFA state q.
func stateConst(q int) string { return fmt.Sprintf("st.%d", q) }

// RelAccept lists the accepting automaton states in pattern diagnosis.
const RelAccept = "accept"

// BuildPatternProgram generates the Section 4.4 variant of the supervisor
// program for alarm-pattern diagnosis: "the structure of the alarm
// sequences of interest can be easily described by a regular automaton
// whose allowed transitions can be encoded in the alarmSeq relation."
//
// The k-ary sequence index of configPrefixes is replaced by a single
// automaton state; alarmSeq holds the NFA's edges and accept its final
// states. The construction of configurations "then follows the same lines
// as above". Because star patterns describe infinite languages, evaluate
// the result with a MaxTermDepth budget (the paper's termination gadget) —
// the configuration id h(z, x) grows by one level per explained alarm, so
// a depth bound caps the number of alarms an explanation may use.
func BuildPatternProgram(pn *petri.PetriNet, nfa *alarm.NFA) (*ddatalog.Program, ddatalog.PAtom, error) {
	// Extension rules: one per peer with automaton edges; the index column
	// is the automaton state, advanced through alarmSeq.
	edgePeers := map[petri.Peer]bool{}
	for _, e := range nfa.Edges {
		edgePeers[e.Obs.Peer] = true
	}
	var peers []petri.Peer
	for _, peer := range pn.Net.Peers() {
		if edgePeers[peer] {
			peers = append(peers, peer)
		}
	}
	p, err := buildSupervisor(pn, peers, func(p *ddatalog.Program) []term.ID {
		// Automaton edges and accepting states; the initial configuration
		// sits at the automaton's start state.
		s := p.Store
		for _, e := range nfa.Edges {
			p.AddFact(ddatalog.At(RelAlarmSeq, SupervisorPeer,
				s.Constant(stateConst(e.From)),
				s.Constant(string(e.Obs.Alarm)),
				s.Constant(string(e.Obs.Peer)),
				s.Constant(stateConst(e.To)),
			))
		}
		accept := make([]int, 0, len(nfa.Accept))
		for q := range nfa.Accept {
			accept = append(accept, q)
		}
		slices.Sort(accept) // map order would make the program text vary by build
		for _, q := range accept {
			p.AddFact(ddatalog.At(RelAccept, SupervisorPeer, s.Constant(stateConst(q))))
		}
		return []term.ID{s.Constant(stateConst(0))}
	})
	if err != nil {
		return nil, ddatalog.PAtom{}, err
	}
	s := p.Store

	// q(z) :- configPrefixes(z, w, y, Q), accept(Q), cut(z, m).
	z, w, y, q := s.Variable("Qz"), s.Variable("Qw"), s.Variable("Qy"), s.Variable("Qq")
	p.AddRule(ddatalog.PRule{
		Head: ddatalog.At(RelQuery, SupervisorPeer, z),
		Body: []ddatalog.PAtom{
			ddatalog.At(RelConfigPrefixes, SupervisorPeer, z, w, y, q),
			ddatalog.At(RelAccept, SupervisorPeer, q),
			cutAtom(s, z),
		},
	})
	query := ddatalog.At(RelQuery, SupervisorPeer, s.Variable("AnsZ"))
	return p, query, nil
}

// DiagnosePattern runs pattern diagnosis with the Datalog encoding under
// the given budget and returns the diagnoses. See BuildPatternProgram for
// the required depth bound.
func DiagnosePattern(pn *petri.PetriNet, nfa *alarm.NFA, opt Options) (Diagnoses, error) {
	padded, err := petri.Pad2(pn)
	if err != nil {
		return nil, err
	}
	prog, query, err := BuildPatternProgram(padded, nfa)
	if err != nil {
		return nil, err
	}
	res, _, err := ddatalogRunForPattern(prog, query, opt)
	if err != nil {
		return nil, err
	}
	return ExtractDiagnoses(res.Store, res.Answers, true), nil
}

// ddatalogRunForPattern evaluates the pattern program naively (patterns
// need the depth gadget anyway, which dQSQ also respects; the naive run
// keeps this entry point simple). The dQSQ path is exercised via
// dqsq.Run(BuildPatternProgram(...)) in the tests and benchmarks.
func ddatalogRunForPattern(prog *ddatalog.Program, query ddatalog.PAtom, opt Options) (*ddatalog.Result, *ddatalog.Engine, error) {
	budget := opt.Budget
	if budget.MaxTermDepth == 0 {
		budget.MaxTermDepth = 16
	}
	return ddatalog.Run(prog, query, budget, opt.Timeout)
}

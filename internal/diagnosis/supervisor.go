package diagnosis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/petri"
	"repro/internal/rel"
	"repro/internal/term"
)

// SupervisorPeer is the supervisor site p0 of Section 4.2.
const SupervisorPeer dist.PeerID = "p0"

// Supervisor relation names.
const (
	RelPetriNet       = "petriNet"       // petriNet@p(t, a, c, c'): transition t emits a, parents c, c'
	RelPetriNetSilent = "petriNetSilent" // silent transitions (Section 4.4 hidden extension)
	RelAlarmSeq       = "alarmSeq"       // alarmSeq(i, a, p, i'): automaton edge / sequence position
	RelConfigPrefixes = "configPrefixes" // configPrefixes(id, parent, event, index...)
	RelCut            = "cut"            // cut(id, condition): produced by id, not yet consumed
	RelQuery          = "q"              // q(id): complete explanations
)

// idxConst names the alarm-position constant c_i of peer p.
func idxConst(p petri.Peer, i int) string {
	return fmt.Sprintf("idx.%s.%d", p, i)
}

// BuildDiagnosisProgram generates P_A(N, M, A): the unfolding program
// Prog(N, M) plus the supervisor rules of Section 4.2 with the k-ary index
// for multiple peers. It returns the program and the located query atom
// q@p0(Z) whose answers are the ids of the configurations explaining the
// sequence (ExtractDiagnoses reads their events off the ids). The net must
// be 2-parent and every alarm-emitting peer of the sequence must exist in
// the net.
//
// Hidden transitions (alarm = petri.Silent) are supported as in Section
// 4.4: they are listed in petriNetSilent and may extend a configuration
// without consuming an alarm position. If the net has silent cycles, use a
// term-depth budget when evaluating.
func BuildDiagnosisProgram(pn *petri.PetriNet, seq alarm.Seq) (*ddatalog.Program, ddatalog.PAtom, error) {
	for _, o := range seq {
		if !hasPeer(pn, o.Peer) {
			return nil, ddatalog.PAtom{}, fmt.Errorf("diagnosis: alarm from unknown peer %q", o.Peer)
		}
	}
	per := seq.PerPeer()
	peers := seq.Peers() // sorted; defines the k-ary index order
	p, err := buildSupervisor(pn, peers, func(p *ddatalog.Program) []term.ID {
		// alarmSeq facts: one linear chain per peer.
		s := p.Store
		var start []term.ID
		for _, peer := range peers {
			for i, a := range per[peer] {
				p.AddFact(ddatalog.At(RelAlarmSeq, SupervisorPeer,
					s.Constant(idxConst(peer, i)),
					s.Constant(string(a)),
					s.Constant(string(peer)),
					s.Constant(idxConst(peer, i+1)),
				))
			}
			start = append(start, s.Constant(idxConst(peer, 0)))
		}
		return start
	})
	if err != nil {
		return nil, ddatalog.PAtom{}, err
	}
	s := p.Store

	// q(z) :- configPrefixes(z, w, y, cfinal...), cut(z, m).
	// The cut atom asks for the final configurations' cut, which holds the
	// postset of their last event (see cutAtom).
	z, w, y := s.Variable("Qz"), s.Variable("Qw"), s.Variable("Qy")
	final := []term.ID{z, w, y}
	for _, peer := range peers {
		final = append(final, s.Constant(idxConst(peer, len(per[peer]))))
	}
	p.AddRule(ddatalog.PRule{
		Head: ddatalog.At(RelQuery, SupervisorPeer, z),
		Body: []ddatalog.PAtom{
			{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: final},
			cutAtom(s, z),
		},
	})

	query := ddatalog.At(RelQuery, SupervisorPeer, s.Variable("AnsZ"))
	return p, query, nil
}

// buildSupervisor generates what every supervisor program shares: Prog(N,M)
// — refusing a net with a peer named like the supervisor — the petriNet
// facts, the initial configuration configPrefixes(h(r), h(r), r,
// start...), the observable and silent extension rules of the index peers
// and the membership rules. index adds the caller's own facts (the alarm
// sequence or the automaton) and returns start, whose length is the
// index's arity k; peers are the peers with observable extension rules.
func buildSupervisor(pn *petri.PetriNet, peers []petri.Peer, index func(*ddatalog.Program) []term.ID) (*ddatalog.Program, error) {
	p, err := BuildUnfoldingProgram(pn)
	if err != nil {
		return nil, err
	}
	for _, peer := range pn.Net.Peers() {
		if dist.PeerID(peer) == SupervisorPeer {
			return nil, fmt.Errorf("diagnosis: peer name %q collides with the supervisor", peer)
		}
	}
	addPetriNetFacts(pn, p)
	start := index(p)
	k := len(start)

	// Initial configuration: configPrefixes(h(r), h(r), r, start...).
	s := p.Store
	hr := s.Compound("h", s.Constant(RootConst))
	init := append([]term.ID{hr, hr, s.Constant(RootConst)}, start...)
	p.AddFact(ddatalog.PAtom{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: init})

	addExtensionRules(pn, p, peers, k, false)
	if hasSilentTransitions(pn) {
		addExtensionRules(pn, p, peers, k, true)
	}
	addMembershipRules(p, k)
	return p, nil
}

func hasPeer(pn *petri.PetriNet, peer petri.Peer) bool {
	for _, q := range pn.Net.Peers() {
		if q == peer {
			return true
		}
	}
	return false
}

func hasSilentTransitions(pn *petri.PetriNet) bool {
	for _, tid := range pn.Net.Transitions() {
		if pn.Net.Transition(tid).Alarm == petri.Silent {
			return true
		}
	}
	return false
}

// addPetriNetFacts publishes each peer's description of its transitions
// ("Each peer pi provides a description of the transitions in its Petri
// net ... in the atom petriNet@pi(c, a, c', c”)").
func addPetriNetFacts(pn *petri.PetriNet, p *ddatalog.Program) {
	s := p.Store
	for _, tid := range pn.Net.Transitions() {
		t := pn.Net.Transition(tid)
		args := []term.ID{s.Constant(string(tid))}
		if t.Alarm != petri.Silent {
			args = append(args, s.Constant(string(t.Alarm)))
		}
		args = append(args, s.Constant(string(t.Pre[0])), s.Constant(string(t.Pre[1])))
		relName := rel.Name(RelPetriNet)
		if t.Alarm == petri.Silent {
			relName = RelPetriNetSilent
		}
		p.AddFact(ddatalog.PAtom{Rel: relName, Peer: dist.PeerID(t.Peer), Args: args})
	}
}

// addExtensionRules generates, per emitting peer, the configPrefixes
// extension rule of Section 4.2 (k-ary index form). With silent=true it
// generates the Section 4.4 variant that consumes no alarm position.
func addExtensionRules(pn *petri.PetriNet, p *ddatalog.Program, peers []petri.Peer, k int, silent bool) {
	s := p.Store
	// Silent rules are generated per net peer (any peer may hide
	// transitions); observable rules per emitting peer of the sequence.
	rulePeers := peers
	if silent {
		rulePeers = nil
		for _, q := range pn.Net.Peers() {
			rulePeers = append(rulePeers, q)
		}
	}
	for j, peer := range rulePeers {
		z, w, y := s.Variable("Cz"), s.Variable("Cw"), s.Variable("Cy")
		x, u, v := s.Variable("Cx"), s.Variable("Cu"), s.Variable("Cv")
		a, t := s.Variable("Ca"), s.Variable("Ct")
		c1, c2 := s.Variable("Cc1"), s.Variable("Cc2")
		idx := make([]term.ID, k)
		for l := 0; l < k; l++ {
			idx[l] = s.Variable(fmt.Sprintf("Ci%d", l))
		}

		prefixArgs := append([]term.ID{z, w, y}, idx...)
		body := []ddatalog.PAtom{
			{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: prefixArgs},
		}
		headIdx := append([]term.ID(nil), idx...)
		if silent {
			body = append(body, ddatalog.At(RelPetriNetSilent, dist.PeerID(peer), t, c1, c2))
		} else {
			// The index column this peer's rule advances: its position in
			// the k-ary vector for sequence diagnosis, or the single
			// shared automaton-state column for pattern diagnosis (k==1).
			col := j
			if k == 1 {
				col = 0
			}
			nextIdx := s.Variable("Cnext")
			headIdx[col] = nextIdx
			body = append(body,
				ddatalog.At(RelAlarmSeq, SupervisorPeer, idx[col], a, s.Constant(string(peer)), nextIdx),
				ddatalog.At(RelPetriNet, dist.PeerID(peer), t, a, c1, c2),
			)
		}
		// Both parents must lie in z's cut. A cut condition was produced by
		// an event of z, so this also proves the paper's guards
		// transInConf(z, u) and transInConf(z, v).
		gu := s.Compound("g", u, c1)
		gv := s.Compound("g", v, c2)
		body = append(body,
			ddatalog.At(RelCut, SupervisorPeer, z, gu),
			ddatalog.At(RelCut, SupervisorPeer, z, gv),
			ddatalog.At(RelTrans, dist.PeerID(peer), x, gu, gv),
		)
		head := append([]term.ID{s.Compound("h", z, x), z, x}, headIdx...)
		p.AddRule(ddatalog.PRule{
			Head: ddatalog.PAtom{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: head},
			Body: body,
		})
	}
}

// addMembershipRules generates the cut that replaces the paper's notParent
// (a deviation, recorded in DESIGN.md): the conditions configuration
// z = w·y has produced and not yet consumed. A safe net's cut has at most
// |P| members.
//
//	cut(z, m) :- configPrefixes(z, w, f(t, u, v), i...), cut(w, m), m != u, m != v.
//	cut(z, m) :- configPrefixes(z, w, y, i...), places@p(m, y).  (one rule per peer with places)
//
// The first carries w's cut forward minus y's parents u and v, which y's
// term f(t, u, v) names, so it needs no peer's trans. The second adds y's
// postset, and
// with the initial configPrefixes(h(r), h(r), r, c0...) it seeds the
// root's cut with the initial marking. A peer may hold conditions and no
// events (all the transitions around its places belong to its
// neighbours): its conditions are no less part of a cut.
func addMembershipRules(p *ddatalog.Program, k int) {
	s := p.Store
	z, w, y, m := s.Variable("Mz"), s.Variable("Mw"), s.Variable("My"), s.Variable("Mm")
	t, u, v := s.Variable("Mt"), s.Variable("Mu"), s.Variable("Mv")
	idx := make([]term.ID, k)
	for l := 0; l < k; l++ {
		idx[l] = s.Variable(fmt.Sprintf("Mi%d", l))
	}
	p.AddRule(ddatalog.PRule{
		Head: ddatalog.At(RelCut, SupervisorPeer, z, m),
		Body: []ddatalog.PAtom{
			{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: append([]term.ID{z, w, s.Compound("f", t, u, v)}, idx...)},
			ddatalog.At(RelCut, SupervisorPeer, w, m),
		},
		Neqs: []datalog.Neq{{X: m, Y: u}, {X: m, Y: v}},
	})

	peers := map[dist.PeerID]bool{}
	for _, rule := range p.Rules {
		if rule.Head.Rel == RelPlaces {
			peers[rule.Head.Peer] = true
		}
	}
	for _, f := range p.Facts {
		if f.Rel == RelPlaces {
			peers[f.Peer] = true
		}
	}
	var peerList []dist.PeerID
	for q := range peers {
		peerList = append(peerList, q)
	}
	sort.Slice(peerList, func(i, j int) bool { return peerList[i] < peerList[j] })
	prefix := append([]term.ID{z, w, y}, idx...)
	for _, q := range peerList {
		p.AddRule(ddatalog.PRule{
			Head: ddatalog.At(RelCut, SupervisorPeer, z, m),
			Body: []ddatalog.PAtom{
				{Rel: RelConfigPrefixes, Peer: SupervisorPeer, Args: prefix},
				ddatalog.At(RelPlaces, q, m, y),
			},
		})
	}
}

// cutAtom is the query's cut(z, m) atom. Every configuration has a
// non-empty cut, so it filters no answer. It makes the evaluation derive
// the cut of every configuration the query reads, and with it the
// conditions the configuration's last event produced. The extension rules
// ask for a cut only to extend it, so without this atom dQSQ would
// materialize the prefix of [8] minus the postsets of the events that end
// the configurations explaining the alarms (Theorem 4). The rewriting
// drops m at once, so each configuration adds one supplementary tuple.
func cutAtom(s *term.Store, z term.ID) ddatalog.PAtom {
	return ddatalog.At(RelCut, SupervisorPeer, z, s.Variable("Qm"))
}

// StripPads renders an unfolding node term with the padding of petri.Pad2
// erased: arguments of an event term f(t, ...) that are conditions of a
// pad place are dropped, recursively, so that event names on the padded
// net coincide with names on the original net.
func StripPads(store *term.Store, t term.ID) string {
	var render func(t term.ID) string
	render = func(t term.ID) string {
		if store.Kind(t) != term.Comp {
			return store.Name(t)
		}
		args := store.Args(t)
		parts := make([]string, 0, len(args))
		for i, a := range args {
			if store.Name(t) == "f" && i > 0 && isPadNode(store, a) {
				continue
			}
			parts = append(parts, render(a))
		}
		return store.Name(t) + "(" + strings.Join(parts, ",") + ")"
	}
	return render(t)
}

// ExtractDiagnoses converts q(z) answer rows into a diagnosis set. A
// configuration id lists its events: h(z, x) is configuration z extended
// by event x, down to the root's h(r). Configurations reached through
// different interleavings (different ids, same event set) are
// deduplicated. With stripPads, event names are normalized back to the
// unpadded net's canonical names.
func ExtractDiagnoses(store *term.Store, rows [][]term.ID, stripPads bool) Diagnoses {
	render := store.String
	if stripPads {
		render = func(t term.ID) string { return StripPads(store, t) }
	}
	seen := map[string]bool{}
	var out Diagnoses
	for _, row := range rows {
		if len(row) != 1 {
			continue
		}
		cfg := []string{}
		for z := row[0]; store.Kind(z) == term.Comp && len(store.Args(z)) == 2; z = store.Args(z)[0] {
			cfg = append(cfg, render(store.Args(z)[1]))
		}
		sort.Strings(cfg)
		key := strings.Join(cfg, ";")
		if !seen[key] {
			seen[key] = true
			out = append(out, cfg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], ";") < strings.Join(out[j], ";")
	})
	return out
}

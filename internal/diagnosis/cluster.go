package diagnosis

// Multi-process diagnosis: the driver ships the system description (net +
// alarms, as text) to every peerd node, each node rebuilds the identical
// Datalog program locally and hosts its assigned peers, and the evaluation
// runs over the cluster transport. Program construction is deterministic,
// so shipping the description instead of the compiled rules keeps the wire
// format independent of engine internals.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dist"
	"repro/internal/dqsq"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/petri"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PrepareDatalog parses a shipped system description and builds the
// Datalog evaluation for it: the padded net's diagnosis program, the
// query, and the budget with the engine's defaults applied. Driver and
// members both call it on the same text, so every node derives the same
// program. Only the Datalog engines (naive, dqsq) can run distributed.
func PrepareDatalog(netText, alarmsText string, engine Engine, budget datalog.Budget) (*ddatalog.Program, ddatalog.PAtom, datalog.Budget, error) {
	var zero ddatalog.PAtom
	pn, err := parser.Net(netText)
	if err != nil {
		return nil, zero, budget, err
	}
	seq, err := parser.Alarms(alarmsText)
	if err != nil {
		return nil, zero, budget, err
	}
	padded, err := petri.Pad2(pn)
	if err != nil {
		return nil, zero, budget, err
	}
	prog, query, err := BuildDiagnosisProgram(padded, seq)
	if err != nil {
		return nil, zero, budget, err
	}
	if engine == EngineNaive && budget.MaxTermDepth == 0 {
		budget.MaxTermDepth = 3*len(seq) + 4 // the Section 4.4 depth gadget
	}
	switch engine {
	case EngineNaive:
	case EngineDQSQ:
		rw, err := dqsq.Rewrite(prog, query)
		if err != nil {
			return nil, zero, budget, err
		}
		prog, query = rw.Program, rw.Query
	default:
		return nil, zero, budget, fmt.Errorf("diagnosis: engine %v cannot run distributed", engine)
	}
	return prog, query, budget, nil
}

// Cluster describes a distributed run's topology from the driver's side.
// The same Cluster serves any number of RunDistributed calls (the driver
// endpoint is created once, on first use); Close it when done.
type Cluster struct {
	// Transport is the driver's own transport, not yet started.
	Transport transport.Transport
	// Nodes are the member node names, in assignment order.
	Nodes []string
	// Addrs maps every node name — the driver's included — to its dial
	// address, shipped to members so they can route to each other. Leave
	// nil for transports that address by name alone (the in-proc mesh).
	Addrs map[string]string
	// Assign maps peer names to member nodes. Leave nil to spread the
	// net's peers over the nodes round-robin; the supervisor (the query's
	// peer) always stays with the driver, next to the answer collector.
	Assign map[string]string
	// Retries is how many times RunDistributed re-ships the job and
	// re-runs the evaluation after a member failure (a member restarted
	// mid-round reports exactly such a failure: it holds no job of the
	// round's generation). Each re-ship bumps the job generation, so
	// frames of the failed attempt cannot leak into the retry. 0 means
	// no retries.
	Retries int

	mu  sync.Mutex
	drv *dist.Driver

	// Traces harvested from members across RunDistributed calls, keyed by
	// node name (see ProcessTraces). They populate only when
	// Options.Tracer is enabled: the job then ships with Trace set and
	// members record and return their spans.
	traces map[string]*obs.ProcessTrace
}

// Close shuts down the driver transport.
func (cl *Cluster) Close() error {
	return cl.Transport.Close()
}

// driver returns the lazily created driver endpoint. The assignment is
// fixed on first use: transports start exactly once.
func (cl *Cluster) driver(pn *petri.PetriNet) (*dist.Driver, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.drv != nil {
		return cl.drv, nil
	}
	if len(cl.Nodes) == 0 {
		return nil, errors.New("diagnosis: cluster has no member nodes")
	}
	if cl.Assign == nil {
		cl.Assign = RoundRobinAssign(pn, cl.Nodes)
	}
	nodeSet := make(map[string]bool, len(cl.Nodes))
	for _, n := range cl.Nodes {
		nodeSet[n] = true
	}
	assign := make(map[dist.PeerID]string, len(cl.Assign))
	for peer, node := range cl.Assign {
		if !nodeSet[node] {
			return nil, fmt.Errorf("diagnosis: peer %q assigned to unknown node %q", peer, node)
		}
		assign[dist.PeerID(peer)] = node
	}
	drv, err := dist.NewDriver(cl.Transport, cl.Nodes, assign)
	if err != nil {
		return nil, err
	}
	cl.drv = drv
	return drv, nil
}

// RoundRobinAssign spreads the net's peers over the member nodes in
// round-robin order. The supervisor peer is not a net peer and is never
// assigned: it stays with the driver.
func RoundRobinAssign(pn *petri.PetriNet, nodes []string) map[string]string {
	out := make(map[string]string)
	if len(nodes) == 0 {
		return out
	}
	for i, peer := range pn.Net.Peers() {
		out[string(peer)] = nodes[i%len(nodes)]
	}
	return out
}

// RunDistributed diagnoses seq over the cluster: it ships the system
// description to every member, hosts the unassigned peers (at least the
// supervisor) locally, and evaluates the query with the cluster rounds as
// the network. The report's Diagnoses, Derived and Messages match a
// single-process Run of the same engine exactly; TransFacts/PlaceFacts
// are left zero — the per-peer databases they count live on the members.
//
// A failed evaluation (member crash, timeout, refused job) is retried up
// to cl.Retries times; every attempt re-ships the job under a fresh
// generation and rebuilds every engine, so a retry is exact, never a
// continuation of the failed attempt's partial state.
func RunDistributed(pn *petri.PetriNet, seq alarm.Seq, engine Engine, opt Options, cl *Cluster) (*Report, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		rep, err := runDistributedOnce(pn, seq, engine, opt, cl)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		if attempt >= cl.Retries {
			return nil, lastErr
		}
	}
}

// runDistributedOnce is one ship-and-evaluate attempt.
func runDistributedOnce(pn *petri.PetriNet, seq alarm.Seq, engine Engine, opt Options, cl *Cluster) (*Report, error) {
	start := time.Now()
	netText := parser.FormatNet(pn)
	alarmsText := parser.FormatAlarms(seq)
	prog, query, budget, err := PrepareDatalog(netText, alarmsText, engine, opt.Budget)
	if err != nil {
		return nil, err
	}
	drv, err := cl.driver(pn)
	if err != nil {
		return nil, err
	}

	hosted := make([]dist.PeerID, 0)
	byNode := make(map[string][]string)
	for _, id := range prog.Peers() {
		if node, ok := cl.Assign[string(id)]; ok {
			byNode[node] = append(byNode[node], string(id))
		} else {
			hosted = append(hosted, id)
		}
	}

	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = time.Minute
	}
	base := wire.Job{
		NetText:   netText,
		Alarms:    alarmsText,
		Engine:    uint32(engine),
		MaxDepth:  uint32(opt.Budget.MaxTermDepth),
		MaxFacts:  uint32(opt.Budget.MaxFacts),
		TimeoutMS: uint32(timeout / time.Millisecond),
		Driver:    cl.Transport.Self(),
	}
	if opt.Tracer != nil && opt.Tracer.Enabled() {
		// Members see Trace and record their own spans, shipping them back
		// in Telemetry frames.
		base.Trace = true
	}
	peerNames := make([]string, 0, len(cl.Assign))
	for peer := range cl.Assign {
		peerNames = append(peerNames, peer)
	}
	sort.Strings(peerNames)
	for _, peer := range peerNames {
		base.Peers = append(base.Peers, wire.Assign{Key: peer, Val: cl.Assign[peer]})
	}
	nodeNames := make([]string, 0, len(cl.Addrs))
	for node := range cl.Addrs {
		nodeNames = append(nodeNames, node)
	}
	sort.Strings(nodeNames)
	for _, node := range nodeNames {
		base.Nodes = append(base.Nodes, wire.Assign{Key: node, Val: cl.Addrs[node]})
	}
	jobs := make(map[string]wire.Job, len(cl.Nodes))
	for _, node := range cl.Nodes {
		j := base
		h := append([]string(nil), byNode[node]...)
		sort.Strings(h)
		j.Hosted = h
		jobs[node] = j
	}
	if err := drv.ShipJob(jobs, timeout); err != nil {
		return nil, err
	}

	eng, err := ddatalog.NewEngineHosted(prog, budget, hosted)
	if err != nil {
		return nil, err
	}
	eng.SetTracer(opt.Tracer)
	var (
		roundsMu sync.Mutex
		rounds   []*dist.DriverRound
	)
	eng.SetNetFactory(func() dist.Net {
		r := drv.NewRound()
		roundsMu.Lock()
		rounds = append(rounds, r)
		roundsMu.Unlock()
		return r
	})
	res, err := eng.Run(query, opt.Timeout)
	// Harvest member telemetry even from a failed attempt: the spans that
	// did arrive are exactly what explains the failure.
	roundsMu.Lock()
	for _, r := range rounds {
		cl.absorbTelemetry(r.ClusterTelemetry())
	}
	roundsMu.Unlock()
	if err != nil {
		return nil, err
	}
	rep := &Report{Engine: engine}
	rep.Diagnoses = ExtractDiagnoses(res.Store, res.Answers, true)
	rep.Derived = res.Stats.Derived
	rep.Messages = res.Stats.Net.MessagesSent
	rep.Truncated = res.Stats.Truncated
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Node is the member side of distributed diagnosis: one peerd process.
// Create it with NewNode, block in Serve, stop it with Close. A node keeps
// nothing on disk: everything it holds is rebuilt from the job the driver
// ships, so a restarted node simply waits for the next one (the dead
// round's frames make it tell the driver to re-ship; see dist.Member).
type Node struct {
	m      *dist.Member
	tr     transport.Transport
	tracer obs.Tracer
}

// NewNode creates the member endpoint over tr (starting it), reporting to
// the named driver node.
func NewNode(tr transport.Transport, driver string) (*Node, error) {
	m, err := dist.NewMember(tr, driver)
	if err != nil {
		return nil, err
	}
	return &Node{m: m, tr: tr}, nil
}

// SetTracer attaches the node's own tracer — typically the peerd admin
// endpoint's trace writer and metrics sink — to every engine this node
// hosts, regardless of whether the driver requested tracing. Call before
// Serve.
func (n *Node) SetTracer(t obs.Tracer) {
	n.tracer = t
}

// installJobRouting applies a job's peer assignment and node address book.
func (n *Node) installJobRouting(job wire.Job) {
	assign := make(map[dist.PeerID]string, len(job.Peers))
	for _, a := range job.Peers {
		assign[dist.PeerID(a.Key)] = a.Val
	}
	n.m.SetAssign(assign)
	for _, nd := range job.Nodes {
		if nd.Key != n.tr.Self() {
			n.tr.AddRoute(nd.Key, nd.Val)
		}
	}
}

// Close stops Serve and closes the transport. Idempotent.
func (n *Node) Close() error {
	return n.m.Close()
}

// Serve loops over the driver's jobs: rebuild the program from the
// shipped description, host the assigned peers, evaluate rounds until the
// round loop is preempted by the next job or the node is closed.
func (n *Node) Serve() error {
	defer n.m.Close()
	for job := range n.m.Jobs() {
		if closed := n.serveJob(job); closed {
			return nil
		}
	}
	return nil
}

// ServeNode is the one-call form of NewNode + Serve, for processes whose
// lifetime is the service's (cmd/peerd).
func ServeNode(tr transport.Transport, driver string) error {
	n, err := NewNode(tr, driver)
	if err != nil {
		return err
	}
	return n.Serve()
}

// serveJob hosts one job's peers until the member closes (true) or a new
// job preempts this one (false).
func (n *Node) serveJob(job wire.Job) bool {
	m := n.m
	budget := datalog.Budget{MaxTermDepth: int(job.MaxDepth), MaxFacts: int(job.MaxFacts)}
	prog, _, budget, err := PrepareDatalog(job.NetText, job.Alarms, Engine(job.Engine), budget)
	if err != nil {
		m.SendJobOK(job.Gen, err.Error()) //nolint:errcheck
		return false
	}
	hosted := make([]dist.PeerID, 0, len(job.Hosted))
	for _, p := range job.Hosted {
		hosted = append(hosted, dist.PeerID(p))
	}
	eng, err := ddatalog.NewEngineHosted(prog, budget, hosted)
	if err != nil {
		m.SendJobOK(job.Gen, err.Error()) //nolint:errcheck
		return false
	}
	// The driver's trace context: when the job ships with Trace set, this
	// node records its spans into a per-job buffer and returns them in a
	// Telemetry frame at every round boundary. The node's own tracer (the
	// admin endpoint's) keeps observing either way. The buffer is drained
	// every round, so its bound is per round, and it is wide: the merged
	// timeline wants each round whole, not a flight recorder's tail.
	var jobTW *obs.ChromeTraceWriter
	if job.Trace {
		jobTW = obs.NewChromeTraceWriter(1 << 16)
		eng.SetTracer(obs.Multi(n.tracer, jobTW))
	} else if n.tracer != nil {
		eng.SetTracer(n.tracer)
	}
	n.installJobRouting(job)
	if err := m.SendJobOK(job.Gen, ""); err != nil {
		return true
	}
	timeout := time.Duration(job.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	for {
		r := m.NextRound()
		_, err := eng.RunMember(r, timeout)
		switch {
		case errors.Is(err, dist.ErrClusterClosed):
			return true
		case errors.Is(err, dist.ErrRoundPreempted):
			return false
		}
		derived, replicated := eng.Totals()
		if jobTW != nil {
			shipTelemetry(r, jobTW)
		}
		r.Finish(map[string]uint64{ //nolint:errcheck // a closing transport ends the loop on the next round
			"derived":    uint64(derived),
			"replicated": uint64(replicated),
		})
	}
}

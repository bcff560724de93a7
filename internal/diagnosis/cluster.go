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

// maxReships bounds how often RunDistributed re-ships a job whose round
// a restarted member lost.
const maxReships = 2

// RunDistributed diagnoses seq over the cluster: it ships the system
// description to every member, hosts the unassigned peers (at least the
// supervisor) locally, and evaluates the query with the job's cluster
// round as the network. The report's Diagnoses, Derived and Messages
// match a single-process Run of the same engine exactly;
// TransFacts/PlaceFacts are left zero — the per-peer databases they count
// live on the members.
//
// An attempt whose round a member lost (dist.ErrRoundLost: the member
// restarted mid-round) is re-shipped, up to maxReships times. Every
// attempt ships under a fresh generation and rebuilds every engine, so a
// re-run is exact, never a continuation of the lost attempt's partial
// state. Any other failure (budget, timeout, a refused job) is returned.
func RunDistributed(pn *petri.PetriNet, seq alarm.Seq, engine Engine, opt Options, cl *Cluster) (*Report, error) {
	for attempt := 0; ; attempt++ {
		rep, err := runDistributedOnce(pn, seq, engine, opt, cl)
		if attempt == maxReships || !errors.Is(err, dist.ErrRoundLost) {
			return rep, err
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
	eng, err := ddatalog.NewEngineHosted(prog, budget, hosted)
	if err != nil {
		return nil, err
	}
	eng.SetTracer(opt.Tracer)
	r, err := drv.ShipJob(jobs, timeout)
	if err != nil {
		return nil, err
	}
	eng.SetNetFactory(func() dist.Net { return r })
	res, err := eng.Run(query, opt.Timeout)
	// Harvest member telemetry even from a failed attempt: the spans that
	// did arrive are exactly what explains the failure.
	cl.absorbTelemetry(r.ClusterTelemetry())
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
	tracer obs.Tracer
}

// NewNode creates the member endpoint over tr (starting it), reporting to
// the named driver node.
func NewNode(tr transport.Transport, driver string) (*Node, error) {
	m, err := dist.NewMember(tr, driver)
	if err != nil {
		return nil, err
	}
	return &Node{m: m}, nil
}

// SetTracer attaches the node's own tracer — typically the peerd admin
// endpoint's trace writer and metrics sink — to every engine this node
// hosts, regardless of whether the driver requested tracing. Call before
// Serve.
func (n *Node) SetTracer(t obs.Tracer) {
	n.tracer = t
}

// Close stops Serve and closes the transport. Idempotent.
func (n *Node) Close() error {
	return n.m.Close()
}

// Serve evaluates the driver's jobs, one round each, until the node is
// closed.
func (n *Node) Serve() error {
	defer n.m.Close()
	for job := range n.m.Jobs() {
		n.serveJob(job)
	}
	return nil
}

// serveJob rebuilds the job's program from the shipped description, hosts
// the assigned peers in the job's one round — registered before the job
// is acknowledged, so no frame of the job arrives unheard — and reports
// to the driver once the round ends.
func (n *Node) serveJob(job wire.Job) {
	m := n.m
	budget := datalog.Budget{MaxTermDepth: int(job.MaxDepth), MaxFacts: int(job.MaxFacts)}
	prog, _, budget, err := PrepareDatalog(job.NetText, job.Alarms, Engine(job.Engine), budget)
	if err != nil {
		m.SendJobOK(job.Gen, err.Error()) //nolint:errcheck
		return
	}
	hosted := make([]dist.PeerID, 0, len(job.Hosted))
	for _, p := range job.Hosted {
		hosted = append(hosted, dist.PeerID(p))
	}
	eng, err := ddatalog.NewEngineHosted(prog, budget, hosted)
	if err != nil {
		m.SendJobOK(job.Gen, err.Error()) //nolint:errcheck
		return
	}
	// The driver's trace context: when the job ships with Trace set, this
	// node records its spans into a per-job buffer and returns them in one
	// Telemetry frame when the round ends. The node's own tracer (the
	// admin endpoint's) keeps observing either way. The buffer is wide:
	// the merged timeline wants the job whole, not a flight recorder's
	// tail.
	var jobTW *obs.ChromeTraceWriter
	if job.Trace {
		jobTW = obs.NewChromeTraceWriter(1 << 16)
		eng.SetTracer(obs.Multi(n.tracer, jobTW))
	} else if n.tracer != nil {
		eng.SetTracer(n.tracer)
	}
	timeout := time.Duration(job.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	r := m.Round(job)
	eng.RunMember(r, timeout) //nolint:errcheck // the round keeps its error for Finish
	if jobTW != nil {
		shipTelemetry(r, jobTW)
	}
	derived, replicated := eng.Totals()
	r.Finish(map[string]uint64{ //nolint:errcheck // a closing transport ends Serve
		"derived":    uint64(derived),
		"replicated": uint64(replicated),
	})
}

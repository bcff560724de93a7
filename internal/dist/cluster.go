package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file runs a Network as one node of a multi-process cluster. One
// node is the driver: it ships each job, seeds the job's one evaluation
// round, runs the termination-detection coordinator, and aggregates the
// round statistics. Every other node is a member: it hosts a subset of
// the peers and reacts to messages until the driver stops the round.
//
// Termination is the same message-counting argument the single-process
// Network uses, run over sampled per-node counters (the "standard
// termination detection algorithms" the paper defers to): the coordinator
// polls every node for (messages sent, messages processed, locally idle)
// and declares quiescence after two consecutive waves in which every node
// was idle, the samples did not change between the waves, and the sends
// balance the processings globally. The second wave starts only after all
// first-wave replies arrived, so the constant monotonic counters pin both
// samples to a common instant: nothing was in flight anywhere.

// ErrClusterClosed is returned when a round is started on a closed member.
var ErrClusterClosed = errors.New("dist: cluster endpoint closed")

// ErrRoundPreempted stops a member's round when a newer job arrives. The
// driver has then given up on the round's job without stopping it: some
// member refused the job or did not acknowledge it in time, so the round
// never started, or the driver process died and a new one shipped.
var ErrRoundPreempted = errors.New("dist: round preempted by a new job")

// ErrRoundLost ends a driver round when a member holds no job of the
// round's generation: it restarted after acknowledging the job, and a
// member keeps nothing across a restart. Re-shipping the job is the cure.
var ErrRoundLost = errors.New("member restarted; round state lost")

// pollInterval is the coordinator's fallback re-poll period; waves are
// normally triggered by idle notifications, the timer only covers lost
// nudges.
const pollInterval = 5 * time.Millisecond

// doneGrace bounds how long a round waits for member end-of-round reports
// after the evaluation itself has ended.
const doneGrace = 10 * time.Second

// Straggler detection: a node whose mean per-phase latency exceeds
// stragglerFactor× the cluster median — by at least stragglerMinGap, so
// microsecond jitter on fast rounds never qualifies — is reported via the
// driver's structured logger at the end of the round.
const (
	stragglerFactor = 3
	stragglerMinGap = 2 * time.Millisecond
)

// flowBase derives a node's flow-ID base from its name: a 32-bit FNV-1a
// hash shifted into the top half of the sequence space. Different nodes
// draw from disjoint ranges (barring a hash collision, which costs only a
// confused trace arrow), so flow IDs are unique cluster-wide and the
// send/receive halves of a cross-node hop bind in a merged trace.
func flowBase(node string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(node))
	return uint64(h.Sum32()) << 32
}

// Driver is the long-lived driver endpoint of a cluster: it owns the
// driver side of the transport. Create it with NewDriver (which installs
// the transport handler); each ShipJob ships one job and hands back the
// job's one DriverRound, which the evaluator runs as its network.
type Driver struct {
	tr     transport.Transport
	nodes  []string
	assign map[PeerID]string
	logger *slog.Logger

	mu     sync.Mutex
	gen    uint64 // current job generation; bumped by every ShipJob
	cur    *DriverRound
	jobOKs map[string]wire.JobOK
}

// NewDriver creates the driver endpoint over tr, coordinating the given
// member nodes, with assign routing each remotely hosted peer to its
// node. It starts the transport.
func NewDriver(tr transport.Transport, nodes []string, assign map[PeerID]string) (*Driver, error) {
	d := &Driver{
		tr:     tr,
		nodes:  append([]string(nil), nodes...),
		assign: assign,
		logger: slog.Default(),
		jobOKs: make(map[string]wire.JobOK),
	}
	if err := tr.Start(d.handle); err != nil {
		return nil, err
	}
	return d, nil
}

// SetLogger installs the structured logger used for cluster health events
// (straggler reports). slog.Default() until set; nil restores it.
func (d *Driver) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.Default()
	}
	d.mu.Lock()
	d.logger = l
	d.mu.Unlock()
}

func (d *Driver) handle(from string, f wire.Frame) {
	// Frames of another generation belong to a job that has been
	// superseded (or to a round that died with a restarted node and is
	// being replayed by the transport); they are dropped at the door.
	d.mu.Lock()
	gen := d.gen
	d.mu.Unlock()
	if g, tagged := wire.FrameGen(f); tagged && g != gen {
		return
	}
	if ok, isJobOK := f.(wire.JobOK); isJobOK {
		d.mu.Lock()
		d.jobOKs[from] = ok
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	cur := d.cur
	d.mu.Unlock()
	if cur != nil {
		cur.dispatch(from, f)
	}
	// Frames with no active round are stale (a late Status after the round
	// ended); dropping them is safe — every round starts from fresh state.
}

// ShipJob sends each node its job, waits for every acknowledgement and
// returns the job's round, to be run once as the evaluator's network: its
// unknown-peer sends are routed to their assigned nodes, and its
// termination is decided by the cluster-wide coordinator. ShipJob bumps
// the cluster's job generation and stamps it into every job and the
// round: from here on, frames of earlier generations are dead to both
// sides.
func (d *Driver) ShipJob(jobs map[string]wire.Job, timeout time.Duration) (*DriverRound, error) {
	d.mu.Lock()
	d.gen++
	gen := d.gen
	d.jobOKs = make(map[string]wire.JobOK)
	d.mu.Unlock()
	r := &DriverRound{
		d:        d,
		gen:      gen,
		net:      NewNetwork(),
		wake:     make(chan struct{}, 1),
		statuses: make(map[string]wire.Status),
		dones:    make(map[string]wire.Done),
		extras:   make(map[string]uint64),
		statLat:  make(map[string]latSample),
		doneLat:  make(map[string]latSample),
	}
	r.net.SetSeqBase(flowBase(d.tr.Self()))
	r.net.SetRoute(func(m Message) {
		node, ok := d.assign[m.To]
		if !ok {
			panic(fmt.Sprintf("dist: peer %q hosted nowhere (not local, not assigned)", m.To))
		}
		if err := d.tr.Send(node, wire.Data{Gen: gen, Flow: m.Flow(), From: string(m.From), To: string(m.To), Payload: m.Payload.(wire.Payload)}); err != nil {
			// The transport is closing; the round is ending anyway.
			r.net.Stop(err)
		}
	})
	r.net.SetExternal(r.wakeUp)
	for _, node := range d.nodes {
		job, ok := jobs[node]
		if !ok {
			return nil, fmt.Errorf("dist: no job for node %q", node)
		}
		job.Gen = gen
		if err := d.tr.Send(node, job); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		d.mu.Lock()
		got := len(d.jobOKs)
		for node, ok := range d.jobOKs {
			if ok.Err != "" {
				d.mu.Unlock()
				return nil, fmt.Errorf("dist: node %q refused job: %s", node, ok.Err)
			}
		}
		d.mu.Unlock()
		if got == len(d.nodes) {
			return r, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: %d of %d nodes acknowledged the job before deadline", got, len(d.nodes))
		}
		time.Sleep(time.Millisecond)
	}
}

// DriverRound is one cluster-wide evaluation: a dist.Net whose Run seeds
// the cluster, detects global quiescence, stops every member, and folds
// the members' statistics into its own.
type DriverRound struct {
	d   *Driver
	gen uint64 // job generation the round belongs to
	net *Network

	wake chan struct{}

	mu        sync.Mutex
	epoch     uint64
	statuses  map[string]wire.Status
	dones     map[string]wire.Done
	stopSent  bool
	stopAt    time.Time // when the stop broadcast went out
	waveAt    time.Time // when the current wave's polls went out
	extras    map[string]uint64
	telemetry []wire.Telemetry
	statLat   map[string]latSample // per node: Poll→Status reply latency
	doneLat   map[string]latSample // per node: Stop→Done report latency
	memErr    error
}

// latSample accumulates one node's latency observations for one phase.
type latSample struct {
	sum time.Duration
	n   int
}

// AddPeer registers a locally hosted peer.
func (r *DriverRound) AddPeer(id PeerID, h Handler) { r.net.AddPeer(id, h) }

// SetTracer forwards the tracer to the local network.
func (r *DriverRound) SetTracer(t obs.Tracer) { r.net.SetTracer(t) }

func (r *DriverRound) wakeUp() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *DriverRound) dispatch(from string, f wire.Frame) {
	switch fr := f.(type) {
	case wire.Data:
		m := Message{From: PeerID(fr.From), To: PeerID(fr.To), Payload: fr.Payload}
		m.SetFlow(fr.Flow)
		r.net.Inject(m)
	case wire.Status:
		r.mu.Lock()
		if fr.Epoch != 0 && fr.Epoch == r.epoch {
			r.statuses[from] = fr
			if !r.waveAt.IsZero() {
				s := r.statLat[from]
				s.sum += time.Since(r.waveAt)
				s.n++
				r.statLat[from] = s
			}
		}
		r.mu.Unlock()
		r.wakeUp()
	case wire.Telemetry:
		r.mu.Lock()
		r.telemetry = append(r.telemetry, fr)
		r.mu.Unlock()
	case wire.Done:
		r.mu.Lock()
		if _, dup := r.dones[from]; !dup {
			r.dones[from] = fr
			if !r.stopAt.IsZero() {
				s := r.doneLat[from]
				s.sum += time.Since(r.stopAt)
				s.n++
				r.doneLat[from] = s
			}
		}
		early := !r.stopSent
		r.mu.Unlock()
		if early {
			// A member ended the round unilaterally (budget abort, member
			// timeout, lost round): end it everywhere.
			switch fr.Err {
			case "":
				r.fail(errors.New("dist: member finished round early"))
			case ErrRoundLost.Error():
				r.fail(ErrRoundLost)
			default:
				r.fail(errors.New(fr.Err))
			}
		}
		r.wakeUp()
	}
}

// fail records the first member-reported error and stops the local net.
func (r *DriverRound) fail(err error) {
	r.mu.Lock()
	if r.memErr == nil {
		r.memErr = err
	}
	r.mu.Unlock()
	r.net.Stop(err)
}

// Run seeds the round (remote seeds route through the transport), runs
// the coordinator until the cluster quiesces, stops every member, and
// returns the cluster-wide statistics: the local run's stats plus every
// member's reported share.
func (r *DriverRound) Run(initial []Message, timeout time.Duration) (Stats, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	d := r.d
	d.mu.Lock()
	d.cur = r
	d.mu.Unlock()

	coordDone := make(chan struct{})
	coordStop := make(chan struct{})
	go func() {
		defer close(coordDone)
		r.coordinate(coordStop)
	}()

	stats, err := r.net.Run(initial, timeout)

	close(coordStop)
	<-coordDone
	r.broadcastStop(err)

	derr := r.collectDones(timeout)
	d.mu.Lock()
	d.cur = nil
	d.mu.Unlock()

	r.mu.Lock()
	if err == nil {
		err = r.memErr
	}
	if err == nil {
		err = derr
	}
	for _, done := range r.dones {
		stats.MessagesSent += int(done.Sent)
		for _, pc := range done.Processed {
			stats.Processed[PeerID(pc.Peer)] += int(pc.Count)
		}
		for _, pc := range done.ByPair {
			stats.MessagesByPair[Pair{From: PeerID(pc.From), To: PeerID(pc.To)}] += int(pc.Count)
		}
		for _, pc := range done.BytesSent {
			stats.BytesSentByPair[Pair{From: PeerID(pc.From), To: PeerID(pc.To)}] += int(pc.Count)
		}
		for _, kv := range done.Extras {
			r.extras[kv.Key] += kv.Val
		}
	}
	r.mu.Unlock()
	r.reportStragglers()
	return stats, err
}

// roundLatency is one node's driver-observed latency summary for one
// phase of one round: the mean of its samples, the cluster median of the
// per-node means it was judged against, and whether the straggler check
// flagged it. Two phases are measured per round: how fast a node answers
// quiescence polls (status-reply) and how fast it files its end-of-round
// report after the stop broadcast (done-report).
type roundLatency struct {
	Node      string
	Phase     string // "status-reply" or "done-report"
	Mean      time.Duration
	Samples   int
	Median    time.Duration // zero when fewer than two nodes reported
	Straggler bool
}

// latencySummary folds the raw per-phase samples into per-node means and
// straggler flags, sorted by phase then node: a node is a straggler when
// its mean exceeds stragglerFactor× the cluster median by at least
// stragglerMinGap (so microsecond jitter on fast rounds never qualifies),
// judged only when at least two nodes reported.
func (r *DriverRound) latencySummary() []roundLatency {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []roundLatency
	phases := []struct {
		name    string
		perNode map[string]latSample
	}{
		{"status-reply", r.statLat},
		{"done-report", r.doneLat},
	}
	for _, ph := range phases {
		nodes := make([]string, 0, len(ph.perNode))
		means := make(map[string]time.Duration, len(ph.perNode))
		all := make([]time.Duration, 0, len(ph.perNode))
		for node, s := range ph.perNode {
			if s.n == 0 {
				continue
			}
			m := s.sum / time.Duration(s.n)
			nodes = append(nodes, node)
			means[node] = m
			all = append(all, m)
		}
		sort.Strings(nodes)
		var median time.Duration
		judged := len(all) >= 2 // a median over one node flags nothing
		if judged {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			median = all[len(all)/2]
		}
		for _, node := range nodes {
			mean := means[node]
			out = append(out, roundLatency{
				Node:      node,
				Phase:     ph.name,
				Mean:      mean,
				Samples:   ph.perNode[node].n,
				Median:    median,
				Straggler: judged && mean > stragglerFactor*median && mean-median > stragglerMinGap,
			})
		}
	}
	return out
}

// reportStragglers logs a structured warning for every node the round's
// latency summary flags.
func (r *DriverRound) reportStragglers() {
	r.d.mu.Lock()
	logger := r.d.logger
	r.d.mu.Unlock()
	for _, l := range r.latencySummary() {
		if !l.Straggler {
			continue
		}
		logger.Warn("dist: straggler detected",
			"node", l.Node,
			"phase", l.Phase,
			"gen", r.gen,
			"mean_ms", float64(l.Mean)/float64(time.Millisecond),
			"median_ms", float64(l.Median)/float64(time.Millisecond),
			"samples", l.Samples,
		)
	}
}

// ClusterTelemetry returns the telemetry frames the members shipped for
// the round (one trace-event batch each), in arrival order. Valid after
// Run returns: members send their sample before the Done report the
// round waits for, and the transport preserves per-sender FIFO, so every
// sample of the round has arrived by then.
func (r *DriverRound) ClusterTelemetry() []wire.Telemetry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.Telemetry(nil), r.telemetry...)
}

// ClusterExtras returns the evaluator-defined extras summed over every
// member's end-of-round report. Valid after Run returns.
func (r *DriverRound) ClusterExtras() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.extras))
	for k, v := range r.extras {
		out[k] = v
	}
	return out
}

// broadcastStop tells every member the round is over (idempotent).
func (r *DriverRound) broadcastStop(err error) {
	r.mu.Lock()
	if r.stopSent {
		r.mu.Unlock()
		return
	}
	r.stopSent = true
	r.stopAt = time.Now()
	r.mu.Unlock()
	msg := wire.Stop{Gen: r.gen}
	if err != nil {
		msg.Err = err.Error()
	}
	for _, node := range r.d.nodes {
		r.d.tr.Send(node, msg) //nolint:errcheck // closing transport ends the round anyway
	}
}

// collectDones waits for every member's end-of-round report.
func (r *DriverRound) collectDones(timeout time.Duration) error {
	if timeout < doneGrace {
		timeout = doneGrace
	}
	deadline := time.After(timeout)
	for {
		r.mu.Lock()
		got := len(r.dones)
		r.mu.Unlock()
		if got == len(r.d.nodes) {
			return nil
		}
		select {
		case <-r.wake:
		case <-deadline:
			return fmt.Errorf("dist: %d of %d members reported before deadline", got, len(r.d.nodes))
		}
	}
}

// nodeCount is one node's counter sample within a wave.
type nodeCount struct {
	node      string
	sent      uint64
	processed uint64
}

// coordinate runs quiescence waves until two consecutive all-idle waves
// sample identical, globally balanced counters, then stops the round.
func (r *DriverRound) coordinate(stop <-chan struct{}) {
	var prev []nodeCount
	epoch := uint64(0)
	for {
		select {
		case <-stop:
			return
		case <-r.wake:
		case <-time.After(pollInterval):
		}
		epoch++
		r.mu.Lock()
		r.epoch = epoch
		r.statuses = make(map[string]wire.Status)
		r.waveAt = time.Now()
		r.mu.Unlock()
		for _, node := range r.d.nodes {
			if err := r.d.tr.Send(node, wire.Poll{Gen: r.gen, Epoch: epoch}); err != nil {
				return
			}
		}
		if !r.awaitStatuses(stop, epoch) {
			return
		}
		wave := r.waveVector()
		if wave != nil && prev != nil && wavesEqual(prev, wave) && balanced(wave) {
			r.broadcastStop(nil)
			r.net.Stop(nil)
			return
		}
		prev = wave
	}
}

// awaitStatuses blocks until every member replied to the given epoch.
// Returns false if the round was stopped first.
func (r *DriverRound) awaitStatuses(stop <-chan struct{}, epoch uint64) bool {
	for {
		r.mu.Lock()
		got := len(r.statuses)
		r.mu.Unlock()
		if got == len(r.d.nodes) {
			return true
		}
		if r.net.Stopped() {
			return false
		}
		select {
		case <-stop:
			return false
		case <-r.wake:
		case <-time.After(pollInterval):
		}
	}
}

// waveVector assembles the wave's per-node samples (members first, the
// driver's own network last). It returns nil unless every node — this one
// included — was idle at its sample.
func (r *DriverRound) waveVector() []nodeCount {
	r.mu.Lock()
	statuses := r.statuses
	r.mu.Unlock()
	wave := make([]nodeCount, 0, len(statuses)+1)
	for _, node := range r.d.nodes {
		st, ok := statuses[node]
		if !ok || !st.Idle {
			return nil
		}
		wave = append(wave, nodeCount{node: node, sent: st.Sent, processed: st.Processed})
	}
	// The driver samples itself after every reply arrived, so its counters
	// are at least as fresh as the members'.
	sent, processed, idle := r.net.Counters()
	if !idle {
		return nil
	}
	wave = append(wave, nodeCount{node: "", sent: sent, processed: processed})
	return wave
}

func wavesEqual(a, b []nodeCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// balanced reports Σsent == Σprocessed over the wave: combined with two
// identical all-idle waves, no message is in flight anywhere.
func balanced(wave []nodeCount) bool {
	var sent, processed uint64
	for _, n := range wave {
		sent += n.sent
		processed += n.processed
	}
	return sent == processed
}

// Member is the long-lived member endpoint of one cluster node. Create it
// with NewMember (which installs the transport handler); for each job
// received from Jobs, build the job's one round with Round, register the
// hosted peers on it, Run it (which acknowledges the job), then report
// with SendTelemetry and Finish.
type Member struct {
	tr     transport.Transport
	driver string
	jobs   chan wire.Job

	mu     sync.Mutex
	gen    uint64       // generation of the newest job received
	lost   uint64       // newest generation refused with a Done (see handle)
	cur    *MemberRound // the round of job gen, while it runs
	closed bool
}

// NewMember creates the member endpoint over tr, reporting to the named
// driver node. It starts the transport.
func NewMember(tr transport.Transport, driver string) (*Member, error) {
	m := &Member{tr: tr, driver: driver, jobs: make(chan wire.Job, 1)}
	if err := tr.Start(m.handle); err != nil {
		return nil, err
	}
	return m, nil
}

// Jobs delivers the jobs the driver ships. The channel is closed by Close.
func (m *Member) Jobs() <-chan wire.Job { return m.jobs }

// SendJobOK acknowledges the job of generation gen to the driver; errText
// non-empty refuses it.
func (m *Member) SendJobOK(gen uint64, errText string) error {
	return m.tr.Send(m.driver, wire.JobOK{Gen: gen, Node: m.tr.Self(), Err: errText})
}

func (m *Member) handle(from string, f wire.Frame) {
	if job, isJob := f.(wire.Job); isJob {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		var cur *MemberRound
		accepted := false
		select {
		case m.jobs <- job:
			accepted = true
			cur, m.cur = m.cur, nil // the superseded round hears nothing more
			m.gen = job.Gen
		default:
		}
		m.mu.Unlock()
		if !accepted {
			m.SendJobOK(job.Gen, "member busy with a previous job") //nolint:errcheck
		} else if cur != nil {
			cur.net.Stop(ErrRoundPreempted)
		}
		return
	}
	gen, tagged := wire.FrameGen(f)
	m.mu.Lock()
	if tagged && gen > m.gen {
		// A generation newer than this member's job: the driver starts a
		// round only after every member acked its job, so the job — and
		// the round state — died with an earlier process under this name.
		// Tell the driver once per generation, as soon as there is a route
		// to it (ending the round with a clear error instead of a timeout,
		// so it re-ships); drop the frame either way.
		if gen != m.lost && m.tr.Send(m.driver, wire.Done{Gen: gen, Err: ErrRoundLost.Error()}) == nil {
			m.lost = gen
		}
		m.mu.Unlock()
		return
	}
	// A frame of an older generation is a transport replay from a job
	// that was superseded; one of the current job with no round running
	// arrived after the round ended. Both are dropped: a job's round is
	// registered before the job is acknowledged, so no frame of it can
	// arrive early.
	cur := m.cur
	m.mu.Unlock()
	if cur != nil && gen == cur.gen {
		cur.dispatch(from, f)
	}
}

// Close shuts the member down: the current round (if any) is stopped, the
// job channel is closed, and the transport is closed.
func (m *Member) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	cur := m.cur
	m.mu.Unlock()
	close(m.jobs)
	if cur != nil {
		cur.net.Stop(ErrClusterClosed)
	}
	return m.tr.Close()
}

// Round builds the member side of job's one round. The round routes sends
// to peers hosted elsewhere by the job's peer assignment (peers absent
// from it route to the driver, where synthetic peers like the collector
// live), teaches the transport the job's address book, and stamps the
// job's generation on every frame it sends, so a driver that has since
// re-shipped ignores stragglers.
func (m *Member) Round(job wire.Job) *MemberRound {
	assign := make(map[PeerID]string, len(job.Peers))
	for _, a := range job.Peers {
		assign[PeerID(a.Key)] = a.Val
	}
	for _, nd := range job.Nodes {
		if nd.Key != m.tr.Self() {
			m.tr.AddRoute(nd.Key, nd.Val)
		}
	}
	r := &MemberRound{m: m, gen: job.Gen, net: NewNetwork()}
	r.net.SetSeqBase(flowBase(m.tr.Self()))
	r.net.SetRoute(func(msg Message) {
		node, ok := assign[msg.To]
		if !ok {
			node = m.driver
		}
		if err := m.tr.Send(node, wire.Data{Gen: r.gen, Flow: msg.Flow(), From: string(msg.From), To: string(msg.To), Payload: msg.Payload.(wire.Payload)}); err != nil {
			r.net.Stop(err)
		}
	})
	r.net.SetExternal(func() {
		// An unsolicited epoch-0 status nudges the coordinator to start a
		// wave. Runs under the network lock: Counters would deadlock, and
		// the nudge carries no sample — the coordinator polls for one.
		m.tr.Send(m.driver, wire.Status{Gen: r.gen, Epoch: 0, Idle: true}) //nolint:errcheck
	})
	return r
}

// MemberRound is one job's round on a member: a dist.Net whose Run reacts
// to routed messages until the driver (or a local failure) stops it.
type MemberRound struct {
	m   *Member
	gen uint64 // job generation the round belongs to
	net *Network

	stats Stats
	err   error
}

// AddPeer registers a locally hosted peer.
func (r *MemberRound) AddPeer(id PeerID, h Handler) { r.net.AddPeer(id, h) }

// SetTracer forwards the tracer to the local network.
func (r *MemberRound) SetTracer(t obs.Tracer) { r.net.SetTracer(t) }

func (r *MemberRound) dispatch(from string, f wire.Frame) {
	switch fr := f.(type) {
	case wire.Data:
		m := Message{From: PeerID(fr.From), To: PeerID(fr.To), Payload: fr.Payload}
		m.SetFlow(fr.Flow)
		r.net.Inject(m)
	case wire.Poll:
		sent, processed, idle := r.net.Counters()
		r.m.tr.Send(r.m.driver, wire.Status{Gen: r.gen, Epoch: fr.Epoch, Sent: sent, Processed: processed, Idle: idle}) //nolint:errcheck
	case wire.Stop:
		if fr.Err != "" {
			r.net.Stop(errors.New(fr.Err))
		} else {
			r.net.Stop(nil)
		}
	}
}

// Run accepts the round's job and blocks until the driver stops the round
// (or the timeout trips). Accepting registers the round, so the job's
// frames reach it, and then acknowledges the job: register the hosted
// peers before Run, since the driver starts the round once every member
// acknowledged. A job superseded before Run is not acknowledged, and Run
// returns ErrRoundPreempted. initial must be empty: rounds are seeded by
// the driver.
func (r *MemberRound) Run(initial []Message, timeout time.Duration) (Stats, error) {
	if len(initial) != 0 {
		panic("dist: member rounds take no seeds")
	}
	m := r.m
	m.mu.Lock()
	switch {
	case m.closed:
		m.mu.Unlock()
		return Stats{}, ErrClusterClosed
	case m.gen != r.gen:
		m.mu.Unlock()
		return Stats{}, ErrRoundPreempted
	}
	m.cur = r
	m.mu.Unlock()

	stats, err := Stats{}, m.SendJobOK(r.gen, "")
	if err == nil {
		stats, err = r.net.Run(nil, timeout)
	}

	m.mu.Lock()
	if m.cur == r {
		m.cur = nil
	}
	m.mu.Unlock()
	r.stats, r.err = stats, err
	return stats, err
}

// SendTelemetry ships an observability sample to the driver, stamped with
// the round's generation and this node's name. Call it after Run returned
// and before Finish: the driver's round is still collecting then, and the
// per-sender FIFO transport guarantees the sample lands before the Done
// report the driver waits for.
func (r *MemberRound) SendTelemetry(t wire.Telemetry) error {
	t.Gen = r.gen
	t.Node = r.m.tr.Self()
	return r.m.tr.Send(r.m.driver, t)
}

// Finish sends the member's end-of-round report to the driver, carrying
// the error that ended the round, if any. Call it after Run returned;
// extras carries evaluator counters (e.g. facts
// derived on this node) for the driver to aggregate.
func (r *MemberRound) Finish(extras map[string]uint64) error {
	done := wire.Done{Gen: r.gen, Sent: uint64(r.stats.MessagesSent)}
	if r.err != nil && !errors.Is(r.err, ErrClusterClosed) {
		done.Err = r.err.Error()
	}
	peers := make([]string, 0, len(r.stats.Processed))
	for id := range r.stats.Processed {
		peers = append(peers, string(id))
	}
	sort.Strings(peers)
	for _, p := range peers {
		done.Processed = append(done.Processed, wire.PeerCount{Peer: p, Count: uint64(r.stats.Processed[PeerID(p)])})
	}
	done.ByPair = pairCounts(r.stats.MessagesByPair)
	done.BytesSent = pairCounts(r.stats.BytesSentByPair)
	keys := make([]string, 0, len(extras))
	for k := range extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		done.Extras = append(done.Extras, wire.KV{Key: k, Val: extras[k]})
	}
	return r.m.tr.Send(r.m.driver, done)
}

// pairCounts flattens a per-pair counter map in deterministic order.
func pairCounts(m map[Pair]int) []wire.PairCount {
	pairs := make([]Pair, 0, len(m))
	for p := range m {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].From != pairs[j].From {
			return pairs[i].From < pairs[j].From
		}
		return pairs[i].To < pairs[j].To
	})
	out := make([]wire.PairCount, len(pairs))
	for i, p := range pairs {
		out[i] = wire.PairCount{From: string(p.From), To: string(p.To), Count: uint64(m[p])}
	}
	return out
}

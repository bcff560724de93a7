package diagnosis

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/transport"
	"repro/internal/wire"
)

type clusterCase struct {
	name string
	pn   *petri.PetriNet
	seq  alarm.Seq
}

func clusterCases() []clusterCase {
	return []clusterCase{
		{"quickstart", petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1")},
		{"telecom", gen.Telecom(3), gen.TelecomSeqFixed()},
	}
}

// serveOn starts a member node serving on tr and wires its shutdown into
// the test cleanup.
func serveOn(t *testing.T, tr transport.Transport, driver string) {
	t.Helper()
	n, err := NewNode(tr, driver)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Serve() //nolint:errcheck
	}()
	t.Cleanup(func() {
		n.Close()
		<-done
	})
}

// startMesh builds a driver plus two member nodes over an in-process mesh.
func startMesh(t *testing.T) *Cluster {
	t.Helper()
	mesh := transport.NewMesh()
	cl := &Cluster{Transport: mesh.Node("driver"), Nodes: []string{"n1", "n2"}}
	t.Cleanup(func() { cl.Close() })
	for _, name := range cl.Nodes {
		serveOn(t, mesh.Node(name), "driver")
	}
	return cl
}

// startTCP builds the same topology over loopback sockets. Members learn
// every route from the shipped job's address book; only the driver's own
// routes are configured up front.
func startTCP(t *testing.T) (*Cluster, []*transport.TCP) {
	t.Helper()
	names := []string{"driver", "n1", "n2"}
	trs := make(map[string]*transport.TCP, len(names))
	addrs := make(map[string]string, len(names))
	for _, name := range names {
		tr, err := transport.ListenTCP(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		trs[name] = tr
		addrs[name] = tr.Addr()
	}
	cl := &Cluster{Transport: trs["driver"], Nodes: []string{"n1", "n2"}, Addrs: addrs}
	t.Cleanup(func() { cl.Close() })
	for _, name := range cl.Nodes {
		trs["driver"].AddRoute(name, addrs[name])
		serveOn(t, trs[name], "driver")
	}
	return cl, []*transport.TCP{trs["driver"], trs["n1"], trs["n2"]}
}

// bytesByPair adds up the dist_bytes_total{from,to} samples of the traces
// of one run's processes: what each process's networks charged the sends of
// the peers it hosts, whether the message stayed in the process, as term
// IDs, or left it through a socket, encoded.
func bytesByPair(traces ...[]obs.Event) map[string]int64 {
	sum := make(map[string]int64)
	for _, events := range traces {
		for _, e := range events {
			if e.Ph == 'C' && strings.HasPrefix(e.Name, "dist_bytes_total{") {
				sum[e.Name] += e.Value
			}
		}
	}
	return sum
}

// TestDistributedEquivalence is the subsystem's acceptance test: for both
// example systems and both Datalog engines, a distributed run — over the
// in-process mesh and over real TCP loopback — must return exactly the
// configuration set, materialized-fact count and message count of the
// single-process evaluation, and charge every sender→receiver channel
// exactly the bytes the single process charged it, where all hops carry
// IDs: a member's hops between its own peers, sized on its store, and its
// hops through the transport, sized as encoded, add up to the same figure.
// The counts are sets (per distinct tuple, per subscription), so they are
// insensitive to scheduling and rule order and any loss or duplication in
// the cluster runtime would show.
func TestDistributedEquivalence(t *testing.T) {
	for _, c := range clusterCases() {
		for _, engine := range []Engine{EngineNaive, EngineDQSQ} {
			baseTrace := obs.NewChromeTraceWriter(-1)
			base, err := Run(c.pn, c.seq, engine, Options{Tracer: baseTrace})
			if err != nil {
				t.Fatal(err)
			}
			baseBytes := bytesByPair(baseTrace.Events())
			if len(baseBytes) == 0 {
				t.Fatalf("%s/%v: baseline charged no bytes", c.name, engine)
			}
			if len(base.Diagnoses) == 0 {
				t.Fatalf("%s/%v: baseline found no diagnoses", c.name, engine)
			}
			for _, substrate := range []string{"mesh", "tcp"} {
				t.Run(fmt.Sprintf("%s/%v/%s", c.name, engine, substrate), func(t *testing.T) {
					var cl *Cluster
					if substrate == "mesh" {
						cl = startMesh(t)
					} else {
						cl, _ = startTCP(t)
					}
					trace := obs.NewChromeTraceWriter(-1)
					rep, err := RunDistributed(c.pn, c.seq, engine, Options{Tracer: trace}, cl)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Diagnoses.Equal(base.Diagnoses) {
						t.Errorf("diagnoses = %v, want %v", rep.Diagnoses, base.Diagnoses)
					}
					if rep.Derived != base.Derived {
						t.Errorf("derived = %d, want %d", rep.Derived, base.Derived)
					}
					if rep.Messages != base.Messages {
						t.Errorf("messages = %d, want %d", rep.Messages, base.Messages)
					}
					traces := [][]obs.Event{trace.Events()}
					for _, p := range cl.ProcessTraces() {
						if p.Dropped != 0 {
							t.Fatalf("member %s dropped %d trace events", p.Name, p.Dropped)
						}
						traces = append(traces, p.Events)
					}
					if got := bytesByPair(traces...); !reflect.DeepEqual(got, baseBytes) {
						t.Errorf("bytes by channel over %d processes = %v, single process %v", len(traces), got, baseBytes)
					}
				})
			}
		}
	}
}

// TestDistributedClusterReuse runs several jobs through one cluster: the
// job hand-over (the next job's fresh round and engines) must leave each evaluation as exact as a fresh cluster's. The telecom job
// also exercises empty member rounds: its peers are not in the first
// net's assignment, so the members host nothing and the driver evaluates
// alone while the coordinator still polls them.
func TestDistributedClusterReuse(t *testing.T) {
	cl := startMesh(t)
	cases := clusterCases()
	for _, run := range []struct {
		c      clusterCase
		engine Engine
	}{
		{cases[0], EngineNaive},
		{cases[0], EngineDQSQ},
		{cases[1], EngineNaive},
		{cases[0], EngineNaive},
	} {
		base, err := Run(run.c.pn, run.c.seq, run.engine, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDistributed(run.c.pn, run.c.seq, run.engine, Options{}, cl)
		if err != nil {
			t.Fatalf("%s/%v: %v", run.c.name, run.engine, err)
		}
		if !rep.Diagnoses.Equal(base.Diagnoses) || rep.Derived != base.Derived || rep.Messages != base.Messages {
			t.Errorf("%s/%v: got %d diagnoses/%d derived/%d messages, want %d/%d/%d",
				run.c.name, run.engine, len(rep.Diagnoses), rep.Derived, rep.Messages,
				len(base.Diagnoses), base.Derived, base.Messages)
		}
	}
}

// TestDistributedSurvivesConnDrops drops every live TCP connection —
// repeatedly, while frames are in flight — during an evaluation. The
// transport's replay must deliver every frame exactly once, so the run
// still returns the exact single-process results: a lost fact would
// change the counts (or hang quiescence), a duplicated one would
// double-count a message.
func TestDistributedSurvivesConnDrops(t *testing.T) {
	c := clusterCases()[1] // telecom: the longer evaluation
	base, err := Run(c.pn, c.seq, EngineNaive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, trs := startTCP(t)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			// Wait (event-driven, on the transport's own counters) until
			// more traffic flowed, so each drop lands mid-conversation.
			target := trs[0].Stats().FramesReceived + 10
			for trs[0].Stats().FramesReceived < target {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
			for _, tr := range trs {
				tr.DropConns()
			}
		}
	}()
	rep, err := RunDistributed(c.pn, c.seq, EngineNaive, Options{}, cl)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diagnoses.Equal(base.Diagnoses) {
		t.Errorf("diagnoses = %v, want %v", rep.Diagnoses, base.Diagnoses)
	}
	if rep.Derived != base.Derived {
		t.Errorf("derived = %d, want %d", rep.Derived, base.Derived)
	}
	if rep.Messages != base.Messages {
		t.Errorf("messages = %d, want %d", rep.Messages, base.Messages)
	}
}

// jobCounter is a driver transport that counts the Job frames it sends.
type jobCounter struct {
	transport.Transport
	jobs atomic.Int32
}

func (c *jobCounter) Send(node string, f wire.Frame) error {
	if _, ok := f.(wire.Job); ok {
		c.jobs.Add(1)
	}
	return c.Transport.Send(node, f)
}

// TestDistributedBudgetShipsOnce: a run that exhausts its fact budget
// fails with the budget error and ships its job once. Only a round a
// member lost is worth re-shipping; a budget failure would recur.
func TestDistributedBudgetShipsOnce(t *testing.T) {
	mesh := transport.NewMesh()
	tr := &jobCounter{Transport: mesh.Node("driver")}
	cl := &Cluster{Transport: tr, Nodes: []string{"n1", "n2"}}
	t.Cleanup(func() { cl.Close() })
	for _, name := range cl.Nodes {
		serveOn(t, mesh.Node(name), "driver")
	}
	c := clusterCases()[1]
	_, err := RunDistributed(c.pn, c.seq, EngineNaive, Options{Budget: datalog.Budget{MaxFacts: 50}}, cl)
	if err == nil || !strings.Contains(err.Error(), datalog.ErrBudget.Error()) {
		t.Fatalf("RunDistributed over a 50-fact budget: %v, want %v", err, datalog.ErrBudget)
	}
	if got := tr.jobs.Load(); got != int32(len(cl.Nodes)) {
		t.Fatalf("the driver sent %d Job frames, want %d: one job per member, shipped once", got, len(cl.Nodes))
	}
}

// lossyMember answers the driver as a member hosting no peers whose
// first lose jobs die with it: it acknowledges each of them and then
// reports the round lost, as a member restarted since would.
func lossyMember(t *testing.T, tr transport.Transport, lose int) {
	t.Helper()
	var mu sync.Mutex
	jobs := 0
	err := tr.Start(func(from string, f wire.Frame) {
		mu.Lock()
		defer mu.Unlock()
		switch fr := f.(type) {
		case wire.Job:
			jobs++
			tr.Send(from, wire.JobOK{Gen: fr.Gen, Node: tr.Self()}) //nolint:errcheck
		case wire.Poll:
			if jobs <= lose {
				tr.Send(from, wire.Done{Gen: fr.Gen, Err: dist.ErrRoundLost.Error()}) //nolint:errcheck
			} else {
				tr.Send(from, wire.Status{Gen: fr.Gen, Epoch: fr.Epoch, Idle: true}) //nolint:errcheck
			}
		case wire.Stop:
			if jobs > lose {
				tr.Send(from, wire.Done{Gen: fr.Gen}) //nolint:errcheck
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
}

// TestDistributedReshipsLostRound: a round a member lost is re-shipped
// under a fresh generation, and the re-run is exact; a member that loses
// every round gets the job 1+maxReships times, and the run fails with
// dist.ErrRoundLost.
func TestDistributedReshipsLostRound(t *testing.T) {
	c := clusterCases()[0]
	base, err := Run(c.pn, c.seq, EngineNaive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lose := range []int{1, maxReships + 1} {
		mesh := transport.NewMesh()
		tr := &jobCounter{Transport: mesh.Node("driver")}
		// n1 hosts every net peer; n2 hosts none and loses its rounds.
		cl := &Cluster{Transport: tr, Nodes: []string{"n1", "n2"}, Assign: RoundRobinAssign(c.pn, []string{"n1"})}
		serveOn(t, mesh.Node("n1"), "driver")
		lossyMember(t, mesh.Node("n2"), lose)
		rep, err := RunDistributed(c.pn, c.seq, EngineNaive, Options{Timeout: 30 * time.Second}, cl)
		cl.Close()
		ships := min(lose, maxReships) + 1
		if got := tr.jobs.Load(); got != int32(ships*len(cl.Nodes)) {
			t.Fatalf("lose %d: the driver sent %d Job frames, want %d (%d shipments)", lose, got, ships*len(cl.Nodes), ships)
		}
		if lose > maxReships {
			if !errors.Is(err, dist.ErrRoundLost) {
				t.Fatalf("lose %d: %v, want %v", lose, err, dist.ErrRoundLost)
			}
			continue
		}
		if err != nil {
			t.Fatalf("lose %d: %v", lose, err)
		}
		if !rep.Diagnoses.Equal(base.Diagnoses) || rep.Derived != base.Derived || rep.Messages != base.Messages {
			t.Fatalf("lose %d: got %d diagnoses/%d derived/%d messages, want %d/%d/%d", lose,
				len(rep.Diagnoses), rep.Derived, rep.Messages, len(base.Diagnoses), base.Derived, base.Messages)
		}
	}
}

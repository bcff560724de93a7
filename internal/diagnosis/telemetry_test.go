package diagnosis

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/alarm"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/transport"
)

// TestDistributedTelemetry is the cluster-telemetry acceptance test over
// the in-process mesh: a traced distributed run must harvest per-member
// traces, and the merged cluster timeline must span
// all three processes with the driver's flow-begins binding to member
// flow-ends.
func TestDistributedTelemetry(t *testing.T) {
	cl := startMesh(t)
	tw := obs.NewChromeTraceWriter(0)
	rep, err := RunDistributed(petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1"),
		EngineNaive, Options{Tracer: tw}, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) == 0 {
		t.Fatal("no diagnoses")
	}

	procs := cl.ProcessTraces()
	if len(procs) != 2 || procs[0].Name != "n1" || procs[1].Name != "n2" {
		t.Fatalf("ProcessTraces nodes = %v, want [n1 n2]", procs)
	}
	for _, p := range procs {
		if len(p.Events) == 0 {
			t.Errorf("member %s shipped no trace events", p.Name)
		}
		if p.Offset != 0 {
			t.Errorf("member %s offset = %d, want 0 on the mesh", p.Name, p.Offset)
		}
	}

	// The merged file: driver + both members, three pids, and at least one
	// flow arrow whose halves live in different processes.
	var buf bytes.Buffer
	all := append([]obs.ProcessTrace{tw.Export("driver")}, procs...)
	if err := obs.WriteClusterJSON(&buf, all); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	sends := map[float64]float64{} // flow id -> pid
	bound := false
	for _, raw := range file["traceEvents"].([]any) {
		e := raw.(map[string]any)
		pids[e["pid"].(float64)] = true
		switch e["ph"] {
		case "s":
			sends[e["id"].(float64)] = e["pid"].(float64)
		case "f":
			if spid, ok := sends[e["id"].(float64)]; ok && spid != e["pid"].(float64) {
				bound = true
			}
		}
	}
	if len(pids) != 3 {
		t.Fatalf("merged trace spans %d pids, want 3", len(pids))
	}
	if !bound {
		t.Fatal("no cross-process flow arrow in the merged trace")
	}
}

// TestDistributedTelemetryOff: without a driver tracer the job ships with
// Trace unset and members stay silent — no telemetry accumulates.
func TestDistributedTelemetryOff(t *testing.T) {
	cl := startMesh(t)
	if _, err := RunDistributed(petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1"),
		EngineNaive, Options{}, cl); err != nil {
		t.Fatal(err)
	}
	if procs := cl.ProcessTraces(); len(procs) != 0 {
		t.Fatalf("untraced run accumulated %d process traces", len(procs))
	}
}

// TestNodeTracer: a node-level tracer (the peerd admin endpoint's) sees
// the member's spans even when the driver did not request tracing.
func TestNodeTracer(t *testing.T) {
	mesh := transport.NewMesh()
	cl := &Cluster{Transport: mesh.Node("driver"), Nodes: []string{"n1"}}
	t.Cleanup(func() { cl.Close() })

	nodeTW := obs.NewChromeTraceWriter(0)
	n, err := NewNode(mesh.Node("n1"), "driver")
	if err != nil {
		t.Fatal(err)
	}
	n.SetTracer(nodeTW)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Serve() //nolint:errcheck
	}()
	t.Cleanup(func() {
		n.Close()
		<-done
	})

	if _, err := RunDistributed(petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1"),
		EngineNaive, Options{}, cl); err != nil {
		t.Fatal(err)
	}
	if nodeTW.Len() == 0 {
		t.Fatal("node tracer saw no events from an untraced job")
	}
}

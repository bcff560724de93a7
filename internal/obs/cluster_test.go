package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestDrainEvents: a drain returns the ring's events oldest first and
// empties it; the dropped count is cumulative across drains.
func TestDrainEvents(t *testing.T) {
	w := NewChromeTraceWriter(3)
	w.Instant("t", "a") // overwritten by the fourth event
	w.Counter("t", "c_total", 5)
	w.FlowBegin("t", "msg", 42)
	w.Instant("u", "newest")

	events, dropped := w.DrainEvents()
	if len(events) != 3 || dropped != 1 {
		t.Fatalf("drain: %d events, %d dropped, want 3/1", len(events), dropped)
	}
	if events[0].Track != "t" || events[0].Ph != 'C' || events[0].Value != 5 {
		t.Fatalf("event[0] = %+v", events[0])
	}
	if events[1].Ph != 's' || events[1].ID != 42 {
		t.Fatalf("event[1] = %+v", events[1])
	}
	if events[2].Track != "u" || events[2].Name != "newest" || events[2].Ph != 'i' {
		t.Fatalf("event[2] = %+v", events[2])
	}
	// Wall-clock form: timestamps are epoch µs, not trace-relative.
	if events[0].Wall < 1_000_000_000_000_000 {
		t.Fatalf("event Wall = %d, not epoch microseconds", events[0].Wall)
	}

	// The drain frees the ring: three more events overwrite nothing, a
	// fourth overwrites the oldest of them; dropped stays cumulative.
	if w.Len() != 0 {
		t.Fatalf("len after drain = %d", w.Len())
	}
	for _, name := range []string{"b", "c", "d"} {
		w.Instant("t", name)
	}
	if w.Dropped() != 1 {
		t.Fatalf("dropped = %d after refilling a drained ring, want 1", w.Dropped())
	}
	w.Instant("t", "e")
	events, dropped = w.DrainEvents()
	var names []string
	for _, ev := range events {
		names = append(names, ev.Name)
	}
	if got := strings.Join(names, " "); got != "c d e" || dropped != 2 {
		t.Fatalf("second drain: %q, %d dropped, want \"c d e\", 2", got, dropped)
	}
}

func TestWriteClusterJSON(t *testing.T) {
	// Two processes whose clocks disagree by 1s: the member's events are
	// stamped 1_000_000µs ahead, and Offset carries the estimate.
	driver := ProcessTrace{Name: "driver", Events: []Event{
		{Track: "p1", Name: "round", Ph: 'X', Wall: 10_000_100, Dur: 400},
		{Track: "p1", Name: "msg", Ph: 's', Wall: 10_000_200, ID: 7},
		{Track: "p1", Name: "sent_total", Ph: 'C', Wall: 10_000_250, Value: 2},
		{Track: "p1", Name: "sent_total", Ph: 'C', Wall: 10_000_300, Value: 3},
	}}
	member := ProcessTrace{Name: "m0", Offset: 1_000_000, Dropped: 4, Events: []Event{
		{Track: "p2", Name: "msg", Ph: 'f', Wall: 11_000_300, ID: 7},
		{Track: "p2", Name: "handle", Ph: 'X', Wall: 11_000_310, Dur: 50},
		{Track: "p2", Name: "depth", Ph: 'G', Wall: 11_000_320, Value: 9},
	}}

	var buf bytes.Buffer
	if err := WriteClusterJSON(&buf, []ProcessTrace{driver, member}); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	events := file["traceEvents"].([]any)

	byPhase := map[string][]map[string]any{}
	pids := map[float64]bool{}
	for _, raw := range events {
		e := raw.(map[string]any)
		byPhase[e["ph"].(string)] = append(byPhase[e["ph"].(string)], e)
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids = %v, want 2 processes", pids)
	}
	// Metadata: 2 process_name + 2 thread_name.
	if len(byPhase["M"]) != 4 {
		t.Fatalf("metadata events = %d, want 4", len(byPhase["M"]))
	}

	// Offset alignment: the driver's first event defines ts 0; the
	// member's flow-end lands 200µs later on the merged axis (its 1s of
	// clock skew is subtracted), not 1.0002s later.
	ts := map[string]float64{}
	for _, ph := range []string{"X", "s", "f"} {
		for _, e := range byPhase[ph] {
			ts[e["name"].(string)+"/"+ph] = e["ts"].(float64)
		}
	}
	if ts["round/X"] != 0 {
		t.Fatalf("driver round ts = %v, want 0", ts["round/X"])
	}
	if ts["msg/f"] != 200 {
		t.Fatalf("member flow-end ts = %v, want 200 (offset-corrected)", ts["msg/f"])
	}
	if ts["handle/X"] != 210 {
		t.Fatalf("member handle ts = %v, want 210", ts["handle/X"])
	}

	// Flow halves bind by ID across the two pids.
	s, f := byPhase["s"][0], byPhase["f"][0]
	if s["id"].(float64) != 7 || f["id"].(float64) != 7 {
		t.Fatalf("flow ids: s=%v f=%v", s["id"], f["id"])
	}
	if s["pid"].(float64) == f["pid"].(float64) {
		t.Fatal("flow halves landed in the same process")
	}
	if f["bp"] != "e" {
		t.Fatalf("flow-end bp = %v", f["bp"])
	}

	// Counters accumulate per process; gauges stay absolute.
	var cVals []float64
	for _, e := range byPhase["C"] {
		cVals = append(cVals, e["args"].(map[string]any)["value"].(float64))
	}
	if len(cVals) != 3 || cVals[0] != 2 || cVals[1] != 5 || cVals[2] != 9 {
		t.Fatalf("counter samples = %v, want [2 5 9]", cVals)
	}

	other, ok := file["otherData"].(map[string]any)
	if !ok || other["droppedEvents"].(float64) != 4 {
		t.Fatalf("droppedEvents: %v", file["otherData"])
	}
}

func TestExportSnapshot(t *testing.T) {
	w := NewChromeTraceWriter(0)
	w.Instant("t", "a")
	pt := w.Export("driver")
	if pt.Name != "driver" || len(pt.Events) != 1 || pt.Dropped != 0 {
		t.Fatalf("export = %+v", pt)
	}
	if w.Len() != 1 {
		t.Fatal("Export must not drain the buffer")
	}
}

package diagnosis

// Cluster telemetry: members record trace events while evaluating, ship
// them to the driver in one wire.Telemetry frame when the job's round
// ends, and the driver folds them — offset-corrected by the transport's handshake
// clock estimates — into per-process traces that obs.WriteClusterJSON
// merges into one cluster timeline.

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/wire"
)

// eventToWire converts a recorded trace event to its wire form.
func eventToWire(ev obs.Event) wire.TraceEvent {
	return wire.TraceEvent{
		Track: ev.Track, Name: ev.Name, Ph: ev.Ph,
		Wall: ev.Wall, Dur: ev.Dur, Value: ev.Value, ID: ev.ID,
	}
}

// eventFromWire converts a shipped trace event back to the obs form.
func eventFromWire(ev wire.TraceEvent) obs.Event {
	return obs.Event{
		Track: ev.Track, Name: ev.Name, Ph: ev.Ph,
		Wall: ev.Wall, Dur: ev.Dur, Value: ev.Value, ID: ev.ID,
	}
}

// shipTelemetry drains the member's per-job trace buffer and sends the
// job's trace sample to the driver. Called between RunMember and Finish:
// the driver's round is still collecting, and per-sender FIFO guarantees
// the sample precedes the Done report the driver waits for.
func shipTelemetry(r *dist.MemberRound, tw *obs.ChromeTraceWriter) {
	events, dropped := tw.DrainEvents()
	tel := wire.Telemetry{Dropped: uint64(dropped)}
	tel.Events = make([]wire.TraceEvent, len(events))
	for i, ev := range events {
		tel.Events[i] = eventToWire(ev)
	}
	r.SendTelemetry(tel) //nolint:errcheck // a closing transport ends Serve anyway
}

// absorbTelemetry folds member telemetry frames harvested from a job's
// round into the cluster's accumulated per-node traces.
func (cl *Cluster) absorbTelemetry(tels []wire.Telemetry) {
	if len(tels) == 0 {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.traces == nil {
		cl.traces = make(map[string]*obs.ProcessTrace)
	}
	for _, tel := range tels {
		pt := cl.traces[tel.Node]
		if pt == nil {
			pt = &obs.ProcessTrace{Name: tel.Node}
			cl.traces[tel.Node] = pt
		}
		// Refresh the offset estimate each time: the transport may have
		// re-handshaked (reconnect) since the last sample.
		pt.Offset = cl.Transport.ClockOffsetMicros(tel.Node)
		for _, ev := range tel.Events {
			pt.Events = append(pt.Events, eventFromWire(ev))
		}
		if d := int64(tel.Dropped); d > pt.Dropped {
			pt.Dropped = d // cumulative on the member; keep the max
		}
	}
}

// ProcessTraces returns the member traces accumulated by RunDistributed
// calls on this cluster, sorted by node name and offset-corrected onto
// the driver's clock. Pass them, together with the driver's own trace
// (ChromeTraceWriter.Export), to obs.WriteClusterJSON for one merged
// cluster timeline.
func (cl *Cluster) ProcessTraces() []obs.ProcessTrace {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	names := make([]string, 0, len(cl.traces))
	for name := range cl.traces {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.ProcessTrace, 0, len(names))
	for _, name := range names {
		pt := cl.traces[name]
		out = append(out, obs.ProcessTrace{
			Name: pt.Name, Offset: pt.Offset, Dropped: pt.Dropped,
			Events: append([]obs.Event(nil), pt.Events...),
		})
	}
	return out
}

// TraceDropped sums the member-side dropped trace-event counts across the
// cluster (the driver's own writer keeps its own count).
func (cl *Cluster) TraceDropped() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var total int64
	for _, pt := range cl.traces {
		total += pt.Dropped
	}
	return total
}

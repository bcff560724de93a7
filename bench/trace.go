package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one traced interval: a call the benchmark made into a layer's
// public function, or a span the program emitted through its obs.Tracer
// hook while serving that call. Spans of one append share its id.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: no parent
	Append  int     `json:"append"` // 0: outside any append
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

func (s *span) dur() float64 { return s.EndUS - s.StartUS }

// Tracks whose spans run one after another on the goroutine that called
// Append, and therefore nest. Every other track is a peer: its handler
// spans run on the dist worker pool, possibly side by side, and are
// leaves under the round that scheduled them.
var mainLine = map[string]bool{"bench": true, "diagnosis": true, "dqsq": true, "ddatalog": true, "dist-round": true}

// recorder keeps spans and counters in memory. It implements
// obs.Tracer, the hook the program already offers, so installing it
// changes no program file.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []*span
	current  int                // id of the append in flight, set by the bench
	counters map[string]int64   // totals by name
	byAppend []map[string]int64 // counters by append id
	gauges   map[string]int64   // last sample by name
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counters: map[string]int64{}, gauges: map[string]int64{},
		byAppend: []map[string]int64{{}}}
}

// tracer returns the obs.Tracer to install. obs.Span.End reports only
// to the tracer that obs itself stamped on the span, which obs.Multi
// does for its members; a second, discarding member makes Multi keep
// its fan-out form.
func (r *recorder) tracer() obs.Tracer { return obs.Multi(r, discard{}) }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }

// beginAppend opens the next append's id; spans and counters recorded
// until endAppend belong to it.
func (r *recorder) beginAppend() {
	r.mu.Lock()
	r.byAppend = append(r.byAppend, map[string]int64{})
	r.current = len(r.byAppend) - 1
	r.mu.Unlock()
}

func (r *recorder) endAppend() {
	r.mu.Lock()
	r.current = 0
	r.mu.Unlock()
}

// call records a bench-side span around fn, a call into a layer.
func (r *recorder) call(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add("bench", name, start, end)
	return end.Sub(start)
}

func (r *recorder) add(layer, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, &span{Layer: layer, Name: name, Append: r.current, StartUS: r.us(start), EndUS: r.us(end)})
	r.mu.Unlock()
}

func (r *recorder) Enabled() bool                    { return true }
func (r *recorder) Begin(_, _ string) obs.Span       { return obs.Span{} } // Multi opens spans itself
func (r *recorder) Instant(_, _ string)              {}
func (r *recorder) FlowBegin(string, string, uint64) {}
func (r *recorder) FlowEnd(string, string, uint64)   {}

func (r *recorder) End(s obs.Span) {
	if s.Name == "peer" {
		return // per-peer lifetime frame of a round, not work
	}
	r.add(s.Track, s.Name, s.Start, time.Now())
}

func (r *recorder) Counter(_, name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.byAppend[r.current][name] += delta
	r.mu.Unlock()
}

func (r *recorder) Gauge(_, name string, value int64) {
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// discard is an enabled tracer that keeps nothing.
type discard struct{}

func (discard) Enabled() bool                    { return true }
func (discard) Begin(string, string) obs.Span    { return obs.Span{} }
func (discard) End(obs.Span)                     {}
func (discard) Instant(string, string)           {}
func (discard) Counter(string, string, int64)    {}
func (discard) Gauge(string, string, int64)      {}
func (discard) FlowBegin(string, string, uint64) {}
func (discard) FlowEnd(string, string, uint64)   {}

// link numbers the spans, gives each its parent — the innermost
// main-line span whose interval holds it — and computes self times.
func link(spans []*span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].EndUS > spans[j].EndUS
	})
	children := make(map[int][]*span)
	var stack []*span
	for i, s := range spans {
		s.ID = i + 1
		for len(stack) > 0 && stack[len(stack)-1].EndUS < s.EndUS {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent = p.ID
			children[p.ID] = append(children[p.ID], s)
		}
		if mainLine[s.Layer] {
			stack = append(stack, s)
		}
	}
	for _, s := range spans {
		s.SelfUS = s.dur() - covered(s, children[s.ID])
	}
}

// covered is the part of p's interval its children cover; children that
// ran side by side are counted once.
func covered(p *span, kids []*span) float64 {
	total, reach := 0.0, p.StartUS
	for _, k := range kids { // already in start order
		lo, hi := k.StartUS, k.EndUS
		if lo < reach {
			lo = reach
		}
		if hi > p.EndUS {
			hi = p.EndUS
		}
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeTrace stores the spans and counters of one family's traced pass.
func writeTrace(root, workloadName string, r *recorder) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string           `json:"workload"`
		Spans    []*span          `json:"spans"`
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}{workloadName, r.spans, r.counters, r.gauges}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workloadName+".json"), b, 0o644)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/pool"
	"repro/internal/rel"
	"repro/internal/serve"
	"repro/internal/term"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced pass: one client, in-process, on one session of the
// workload's family. The benchmark opens a span around every call it
// makes into a layer's public function and receives, through the
// program's obs.Tracer hook, the spans and counters the layers below
// already emit. rel, term and wire are replayed on the tuples the
// finished session holds, so their per-tuple costs are measured on the
// workload's real data.

const evalBudget = 120 * time.Second

// elapsedUS reads the engine time an append body reports.
func elapsedUS(body []byte) (float64, error) {
	var rb reportBody
	if err := json.Unmarshal(body, &rb); err != nil || rb.Report == nil {
		return 0, fmt.Errorf("append body without report: %.200s", body)
	}
	return rb.Report.ElapsedMS * 1e3, nil
}

// reps is how often a cheap set-up call (parse, build, save, load) is
// repeated for its median.
const reps = 9

// servePass drives serve.Server.ServeHTTP on a recorder with the bodies
// the HTTP clients send. It returns the median create time, each
// append's time outside the engine, and the mean append response size.
func servePass(in *sessionInput) (createUS float64, outsideUS []float64, respBytes float64, err error) {
	srv := serve.NewServer(serve.Config{EvalTimeout: evalBudget, SweepEvery: -1})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // no in-flight work remains
	do := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(w, req)
		return w, time.Since(start)
	}
	var creates []float64
	var id string
	for i := 0; i < reps; i++ {
		w, d := do("POST", "/v1/sessions", in.createBody)
		var created reportBody
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
			return 0, nil, 0, fmt.Errorf("in-process create: status %d", w.Code)
		}
		creates = append(creates, usOf(d))
		if id != "" {
			do("DELETE", "/v1/sessions/"+id, nil)
		}
		id = created.ID
	}
	var bytesTotal float64
	for i, ab := range in.appends {
		w, d := do("POST", "/v1/sessions/"+id+"/alarms", ab)
		if w.Code != http.StatusOK {
			return 0, nil, 0, fmt.Errorf("in-process append %d: status %d", i, w.Code)
		}
		if _, err := checkReport(w.Body.Bytes(), in.want[i]); err != nil {
			return 0, nil, 0, fmt.Errorf("in-process append %d: %w", i, err)
		}
		e, err := elapsedUS(w.Body.Bytes())
		if err != nil {
			return 0, nil, 0, err
		}
		outsideUS = append(outsideUS, usOf(d)-e)
		bytesTotal += float64(w.Body.Len())
	}
	return median(creates), outsideUS, bytesTotal / float64(len(in.appends)), nil
}

// corePass runs the session through core with rec's tracer installed
// (nil: untraced) and returns each append's time and the finished handle.
func corePass(in *sessionInput, rec *recorder) ([]float64, *core.Incremental, error) {
	call := func(name string, fn func()) time.Duration {
		if rec != nil {
			return rec.call(name, fn)
		}
		start := time.Now()
		fn()
		return time.Since(start)
	}
	var sys *core.System
	var inc *core.Incremental
	var err error
	for i := 0; i < reps && err == nil; i++ {
		call("parser.net", func() { sys, err = core.LoadNet(in.netText) })
	}
	if err != nil {
		return nil, nil, err
	}
	opt := core.Options{}
	if rec != nil {
		opt.Tracer = rec.tracer()
	}
	for i := 0; i < reps && err == nil; i++ {
		call("core.new", func() { inc, err = sys.NewIncremental(core.DQSQ, opt) })
	}
	if err != nil {
		return nil, nil, err
	}
	var appendUS []float64
	for i, text := range in.alarmTexts {
		if rec != nil {
			rec.beginAppend()
		}
		var seq alarm.Seq
		var rep *core.Report
		call("parser.alarms", func() { seq, err = core.ParseAlarms(text) })
		if err == nil {
			appendUS = append(appendUS, usOf(call("core.append", func() { rep, err = inc.Append(seq, evalBudget) })))
		}
		if rec != nil {
			rec.endAppend()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core append %d: %w", i, err)
		}
		if got := canonDiagnoses(rep.Diagnoses); got != in.want[i] {
			return nil, nil, fmt.Errorf("core append %d: diagnoses %q, oracle says %q", i, got, in.want[i])
		}
	}
	return appendUS, inc, nil
}

// sequentialPass runs the session on the online diagnoser with the dist
// worker pool pinned to one worker. It returns the summed append time
// and the diagnoser, whose engine holds the session's tuples.
func sequentialPass(in *sessionInput) (float64, *diagnosis.OnlineDiagnoser, error) {
	sys, err := core.LoadNet(in.netText)
	if err != nil {
		return 0, nil, err
	}
	d, err := diagnosis.NewOnlineDiagnoser(sys.PN, core.Budget{})
	if err != nil {
		return 0, nil, err
	}
	d.SetParallelism(1)
	total := 0.0
	for i, text := range in.alarmTexts {
		seq, err := core.ParseAlarms(text)
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		if _, err := d.Append(seq, evalBudget); err != nil {
			return 0, nil, fmt.Errorf("sequential append %d: %w", i, err)
		}
		total += usOf(time.Since(start))
	}
	return total, d, nil
}

// replayTuples measures rel, term and wire per tuple on every tuple the
// finished session holds.
func replayTuples(d *diagnosis.OnlineDiagnoser, m map[string]float64) {
	eng := d.Session().Engine()
	var tuples, insertNS, dedupNS, probeNS, extNS, intNS, encNS, decNS, wireBytes float64
	var buf []byte
	for _, peer := range eng.Peers() {
		db, store := eng.PeerDB(peer), eng.PeerStore(peer)
		fresh := term.NewStore()
		for _, name := range db.Names() {
			r := db.Lookup(name)
			all := r.All()
			if len(all) == 0 {
				continue
			}
			tuples += float64(len(all))
			copyRel := rel.New(r.Arity())
			start := time.Now()
			for _, t := range all {
				copyRel.InsertPos(t)
			}
			insertNS += float64(time.Since(start).Nanoseconds())
			start = time.Now()
			for _, t := range all {
				copyRel.InsertPos(t)
			}
			dedupNS += float64(time.Since(start).Nanoseconds())
			mask := uint64(1)<<uint(r.Arity()) - 1
			start = time.Now()
			for _, t := range all {
				copyRel.Scan(mask, t, 0, copyRel.Len(), func(int, []term.ID) bool { return true })
			}
			probeNS += float64(time.Since(start).Nanoseconds())

			for _, t := range all {
				start = time.Now()
				ext := store.ExternalizeTuple(t)
				extNS += float64(time.Since(start).Nanoseconds())
				start = time.Now()
				fresh.InternalizeTuple(ext)
				intNS += float64(time.Since(start).Nanoseconds())

				frame := wire.Data{From: string(peer), To: "bench", Payload: wire.Facts{Qual: name, Arity: r.Arity(), Tuple: ext}}
				start = time.Now()
				buf = wire.AppendFrame(buf[:0], 1, frame)
				encNS += float64(time.Since(start).Nanoseconds())
				start = time.Now()
				wire.DecodeFrame(buf) //nolint:errcheck // decoding what was just encoded
				decNS += float64(time.Since(start).Nanoseconds())
				wireBytes += float64(len(buf))
			}
		}
	}
	m["rel.tuples"] = tuples
	if tuples == 0 {
		return
	}
	m["rel.insert_ns"] = insertNS / tuples
	m["rel.dedup_ns"] = dedupNS / tuples
	m["rel.probe_ns"] = probeNS / tuples
	m["term.externalize_ns"] = extNS / tuples
	m["term.internalize_ns"] = intNS / tuples
	m["wire.encode_ns_per_fact"] = encNS / tuples
	m["wire.decode_ns_per_fact"] = decNS / tuples
	m["wire.bytes_per_fact"] = wireBytes / tuples
}

// walPass appends n records shaped like the server's append records
// (kind, session id, alarm text) to a fresh log under the given fsync
// policy and returns the median append time.
func walPass(dir string, in *sessionInput, policy wal.Policy, n int) (float64, error) {
	log, err := wal.Open(dir, wal.Options{Fsync: policy})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var us []float64
	for i := 0; i < n; i++ {
		payload := []byte("\x02s000001-0123456789abcdef" + in.alarmTexts[i%len(in.alarmTexts)])
		start := time.Now()
		if _, err := log.Append(payload); err != nil {
			return 0, err
		}
		us = append(us, usOf(time.Since(start)))
	}
	return median(us), nil
}

// snapshotPass checkpoints and restores the finished session.
func snapshotPass(dir string, inc *core.Incremental, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "session.dsnp")
	var save, load []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		n, err := core.SaveIncremental(path, inc)
		if err != nil {
			return err
		}
		save = append(save, usOf(time.Since(start)))
		m["snapshot.bytes"] = float64(n)
		start = time.Now()
		if _, err := core.LoadIncremental(path); err != nil {
			return err
		}
		load = append(load, usOf(time.Since(start)))
	}
	m["snapshot.save_us"], m["snapshot.load_us"] = median(save), median(load)
	return nil
}

// poolPass runs the session once straight against the worker-side
// backend and once through a pool frontend over an in-process mesh. The
// difference of the two, each net of the engine time its body reports,
// is what pool dispatch adds to an append.
func poolPass(in *sessionInput) (float64, error) {
	outside := func(appendFn func(text string) ([]byte, error)) (float64, error) {
		var us []float64
		for i, text := range in.alarmTexts {
			start := time.Now()
			body, err := appendFn(text)
			d := time.Since(start)
			if err != nil {
				return 0, fmt.Errorf("append %d: %w", i, err)
			}
			e, err := elapsedUS(body)
			if err != nil {
				return 0, err
			}
			us = append(us, usOf(d)-e)
		}
		return median(us), nil
	}
	newBackend := func() *serve.PoolBackend {
		return serve.NewPoolBackend(serve.NewStore(serve.StoreConfig{}, nil), nil)
	}
	backend := newBackend()
	if _, err := backend.Create("local", in.netText, "dqsq", 0); err != nil {
		return 0, err
	}
	direct, err := outside(func(text string) ([]byte, error) { return backend.Append("local", text, evalBudget) })
	if err != nil {
		return 0, fmt.Errorf("backend %w", err)
	}

	mesh := transport.NewMesh()
	worker := pool.NewWorker(pool.WorkerConfig{Transport: mesh.Node("w1"), Backend: newBackend()})
	if err := worker.Start(); err != nil {
		return 0, err
	}
	defer worker.Close()
	p, err := pool.New(pool.Config{Transport: mesh.Node("fe"), Workers: []string{"w1"}})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	res := p.Create(in.netText, "dqsq", 0, evalBudget)
	var created reportBody
	if err := json.Unmarshal(res.Body, &created); err != nil || res.Code != wire.SessOK {
		return 0, fmt.Errorf("pooled create: code %d: %s", res.Code, res.Err)
	}
	pooled, err := outside(func(text string) ([]byte, error) {
		res := p.Append(created.ID, text, evalBudget)
		if res.Code != wire.SessOK {
			return nil, fmt.Errorf("code %d: %s", res.Code, res.Err)
		}
		return res.Body, nil
	})
	if err != nil {
		return 0, fmt.Errorf("pooled %w", err)
	}
	return pooled - direct, nil
}

// spanStats folds the linked spans of the traced pass into per-layer
// numbers: times and counts per alarm.
// It returns each layer's self time summed over the session, in µs.
func spanStats(rec *recorder, alarms int, m map[string]float64) map[string]float64 {
	link(rec.spans)
	appends := len(rec.byAppend) - 1
	type perAppend struct {
		coreSelf, diagSelf, runSelf, roundSelf float64 // self times
		facts, install, activate, other        float64 // handler busy time by payload
		handlerWall                            float64 // part of the rounds some handler covers
	}
	pa := make([]perAppend, appends+1)
	var netUS, newUS, alarmsUS []float64
	for _, s := range rec.spans {
		a := &pa[s.Append]
		switch {
		case s.Layer == "bench":
			switch s.Name {
			case "parser.net":
				netUS = append(netUS, s.dur())
			case "core.new":
				newUS = append(newUS, s.dur())
			case "parser.alarms":
				alarmsUS = append(alarmsUS, s.dur())
			case "core.append":
				a.coreSelf += s.SelfUS
			}
		case s.Layer == "diagnosis":
			a.diagSelf += s.SelfUS
		case s.Layer == "ddatalog":
			a.runSelf += s.SelfUS
		case s.Layer == "dist-round":
			a.roundSelf += s.SelfUS
			a.handlerWall += s.dur() - s.SelfUS
		case s.Name == "handle wire.Facts":
			a.facts += s.dur()
		case s.Name == "handle wire.Install":
			a.install += s.dur()
		case s.Name == "handle wire.Activate":
			a.activate += s.dur()
		case !mainLine[s.Layer]:
			a.other += s.dur()
		}
	}
	col := func(f func(perAppend) float64) []float64 {
		out := make([]float64, 0, appends)
		for _, a := range pa[1:] {
			out = append(out, f(a))
		}
		return out
	}
	// Set-up calls cost the same every time: medians. Engine layers cost
	// what the prefix makes them cost, a thousandfold apart between the
	// appends of one stream: totals over the session, per alarm.
	mean := func(f func(perAppend) float64) float64 { return sum(col(f)) / float64(alarms) }
	m["parser.net_us"] = median(netUS)
	m["core.new_us"] = median(newUS)
	m["parser.alarms_us"] = median(alarmsUS)
	m["core.append_self_us"] = mean(func(a perAppend) float64 { return a.coreSelf })
	m["diagnosis.append_self_us"] = mean(func(a perAppend) float64 { return a.diagSelf })
	m["ddatalog.run_self_us"] = mean(func(a perAppend) float64 { return a.runSelf })
	m["dist.round_self_us"] = mean(func(a perAppend) float64 { return a.roundSelf })
	m["ddatalog.handle_facts_us"] = mean(func(a perAppend) float64 { return a.facts })
	m["ddatalog.handle_install_us"] = mean(func(a perAppend) float64 { return a.install })
	m["ddatalog.handle_activate_us"] = mean(func(a perAppend) float64 { return a.activate })
	m["ddatalog.handle_other_us"] = mean(func(a perAppend) float64 { return a.other })
	// Online dQSQ rewrites lazily, inside the Activate handler that first
	// asks a peer for an adorned relation; the program emits no span of
	// its own for it, so the handler's time stands for the rewrite.
	activate := col(func(a perAppend) float64 { return a.activate })
	m["dqsq.rewrite_us_first"] = activate[0]
	m["dqsq.rewrite_us_later"] = 0
	if len(activate) > 1 {
		m["dqsq.rewrite_us_later"] = sum(activate[1:]) / float64(len(activate)-1)
	}

	perAlarm := func(name string) float64 { return float64(rec.counters[name]) / float64(alarms) }
	m["dqsq.subqueries_per_alarm"] = perAlarm("dqsq_subqueries_total")
	m["ddatalog.derived_per_alarm"] = perAlarm("ddatalog_facts_derived_total")
	m["ddatalog.replicated_per_alarm"] = perAlarm("ddatalog_facts_replicated_total")
	m["ddatalog.rules_installed_per_alarm"] = perAlarm("ddatalog_rules_installed_total")
	var msgs, bytes int64
	for name, v := range rec.counters {
		switch {
		case strings.HasPrefix(name, "dist_messages_total{"):
			msgs += v
		case strings.HasPrefix(name, "dist_bytes_total{"):
			bytes += v
		}
	}
	m["dist.messages_per_alarm"] = float64(msgs) / float64(alarms)
	m["dist.bytes_per_alarm"] = float64(bytes) / float64(alarms)
	m["diagnosis.unfolding_nodes"] = float64(rec.gauges["diagnosis_unfolding_nodes"])
	handlers := sum(col(func(a perAppend) float64 { return a.facts + a.install + a.activate + a.other }))
	m["ddatalog.ns_per_derived"] = 0
	if d := rec.counters["ddatalog_facts_derived_total"]; d > 0 {
		m["ddatalog.ns_per_derived"] = handlers * 1e3 / float64(d)
	}

	// Handlers of different peers run side by side on the dist workers,
	// so their busy times add up to more than the wall time they cover.
	// For the shares, each payload kind gets the covered wall time in
	// proportion to its busy time.
	wall := func(a perAppend, busy float64) float64 {
		if all := a.facts + a.install + a.activate + a.other; all > 0 {
			return a.handlerWall * busy / all
		}
		return 0
	}
	sums := map[string]float64{
		"parser":    sum(alarmsUS),
		"core":      sum(col(func(a perAppend) float64 { return a.coreSelf })),
		"diagnosis": sum(col(func(a perAppend) float64 { return a.diagSelf })),
		"dqsq":      sum(col(func(a perAppend) float64 { return wall(a, a.activate) })),
		"ddatalog":  sum(col(func(a perAppend) float64 { return a.runSelf + wall(a, a.facts+a.install+a.other) })),
		"dist":      sum(col(func(a perAppend) float64 { return a.roundSelf })),
	}
	return sums
}

// layerPass runs every in-process pass for one session and returns the
// per-layer metrics it can give, plus each layer's self time summed over
// the session; the caller adds what needs the child processes.
func layerPass(scratch string, in *sessionInput) (m, sums map[string]float64, rec *recorder, err error) {
	m = make(map[string]float64)
	alarms := 0
	for _, n := range in.alarms {
		alarms += n
	}

	createUS, serveOutside, respBytes, err := servePass(in)
	if err != nil {
		return nil, nil, nil, err
	}
	m["serve.append_self_us"] = median(serveOutside)
	m["serve.resp_bytes_per_append"] = respBytes

	// Untraced, traced, traced, untraced, so that a drift in machine speed
	// weighs on both sides alike; short streams repeat the cycle, up to
	// eight times or three seconds, to average the box's noise out. The
	// spans come from the first traced pass.
	var untracedUS, tracedUS, recordedUS float64
	var inc *core.Incremental
	cycles := 0
	for start := time.Now(); cycles < 8 && (cycles == 0 || time.Since(start) < 3*time.Second); cycles++ {
		for _, traced := range []bool{false, true, true, false} {
			var r *recorder
			if traced {
				r = newRecorder()
			}
			us, handle, err := corePass(in, r)
			if err != nil {
				return nil, nil, nil, err
			}
			if traced && rec == nil {
				rec, recordedUS = r, sum(us)
			}
			if traced {
				tracedUS += sum(us)
			} else {
				untracedUS += sum(us)
				inc = handle
			}
		}
	}
	untraced := untracedUS / float64(2*cycles)
	sums = spanStats(rec, alarms, m)
	sums["serve"] = sum(serveOutside)
	sums["recorded_total"] = recordedUS
	m["trace.overhead_ratio"] = tracedUS / untracedUS
	m["diagnosis.diagnoses"] = float64(len(inc.Report().Diagnoses))
	// What create does beyond parsing the net and building the handle.
	m["serve.create_self_us"] = createUS - m["parser.net_us"] - m["core.new_us"]

	sequential, d, err := sequentialPass(in)
	if err != nil {
		return nil, nil, nil, err
	}
	m["dist.parallel_gain"] = sequential / untraced
	replayTuples(d, m)

	if m["wal.append_us_always"], err = walPass(filepath.Join(scratch, "wal-always"), in, wal.SyncAlways, 64); err != nil {
		return nil, nil, nil, err
	}
	if m["wal.append_us_never"], err = walPass(filepath.Join(scratch, "wal-never"), in, wal.SyncNever, 512); err != nil {
		return nil, nil, nil, err
	}
	if err := snapshotPass(filepath.Join(scratch, "snap"), inc, m); err != nil {
		return nil, nil, nil, err
	}
	if m["pool.dispatch_self_us"], err = poolPass(in); err != nil {
		return nil, nil, nil, err
	}
	return m, sums, rec, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// samples is what the closed-loop clients observe in one phase. Every
// HTTP request is one attempted operation; one that is refused, fails
// or answers with a diagnosis set other than the oracle's is failed and
// contributes no latency.
type samples struct {
	attempted, failed int
	alarms            int       // alarms acknowledged with the right diagnosis
	createMS          []float64 // POST /v1/sessions
	appendMS          []float64 // every POST …/alarms
	firstMS           []float64 // first append of a session
	lastMS            []float64 // last append of a session (deepest prefix)
	streamS           []float64 // create sent -> last diagnosis received
	outsideUS         []float64 // append latency minus the engine time the response reports
	errs              []string  // first few failure descriptions
	wall              time.Duration
}

func (s *samples) merge(o *samples) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.alarms += o.alarms
	s.createMS = append(s.createMS, o.createMS...)
	s.appendMS = append(s.appendMS, o.appendMS...)
	s.firstMS = append(s.firstMS, o.firstMS...)
	s.lastMS = append(s.lastMS, o.lastMS...)
	s.streamS = append(s.streamS, o.streamS...)
	s.outsideUS = append(s.outsideUS, o.outsideUS...)
	s.errs = append(s.errs, o.errs...)
}

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// reportBody is the part of an append or GET response the client checks.
type reportBody struct {
	ID     string `json:"id"`
	Report *struct {
		Diagnoses [][]string `json:"diagnoses"`
		ElapsedMS float64    `json:"elapsed_ms"`
	} `json:"report"`
}

// checkReport compares a response body's diagnosis set with the oracle.
func checkReport(body []byte, want string) (*reportBody, error) {
	var rb reportBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return nil, fmt.Errorf("bad body: %w", err)
	}
	if rb.Report == nil {
		return nil, fmt.Errorf("no report in body")
	}
	if got := canonDiagnoses(rb.Report.Diagnoses); got != want {
		return nil, fmt.Errorf("diagnoses %q, oracle says %q", got, want)
	}
	return &rb, nil
}

// client is one closed-loop supervisor: it sends a request and waits
// for the answer before sending the next.
type client struct {
	http *http.Client
	base string
}

// do sends one request and returns status, body and the latency from
// send to the last body byte.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, out, lat, err
}

func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runSession drives one session: create, every append in order, GET,
// and DELETE unless keep. It returns the session id ("" if the create
// failed) and the GET body.
func (c *client) runSession(in *sessionInput, s *samples, keep bool) (string, []byte) {
	start := time.Now()
	s.attempted++
	status, body, lat, err := c.do("POST", "/v1/sessions", in.createBody)
	var created reportBody
	if err == nil && status == http.StatusCreated {
		err = json.Unmarshal(body, &created)
	}
	if err != nil || status != http.StatusCreated || created.ID == "" {
		s.fail("create: status %d err %v", status, err)
		return "", nil
	}
	s.createMS = append(s.createMS, ms(lat))
	path := "/v1/sessions/" + created.ID

	ok := true
	for i, ab := range in.appends {
		s.attempted++
		status, body, lat, err := c.do("POST", path+"/alarms", ab)
		if err != nil || status != http.StatusOK {
			s.fail("append %d: status %d err %v body %.200s", i, status, err, body)
			ok = false
			break
		}
		rb, err := checkReport(body, in.want[i])
		if err != nil {
			s.fail("append %d: %v", i, err)
			ok = false
			continue
		}
		s.alarms += in.alarms[i]
		s.appendMS = append(s.appendMS, ms(lat))
		s.outsideUS = append(s.outsideUS, usOf(lat)-rb.Report.ElapsedMS*1e3)
		if i == 0 {
			s.firstMS = append(s.firstMS, ms(lat))
		}
		if i == len(in.appends)-1 {
			s.lastMS = append(s.lastMS, ms(lat))
		}
	}
	if ok {
		s.streamS = append(s.streamS, time.Since(start).Seconds())
	}

	s.attempted++
	status, getBody, _, err := c.do("GET", path, nil)
	if err != nil || status != http.StatusOK {
		s.fail("get: status %d err %v", status, err)
	} else if ok {
		if _, err := checkReport(getBody, in.want[len(in.want)-1]); err != nil {
			s.fail("get: %v", err)
		}
	}
	if keep {
		return created.ID, getBody
	}
	s.attempted++
	if status, _, _, err := c.do("DELETE", path, nil); err != nil || status != http.StatusNoContent {
		s.fail("delete: status %d err %v", status, err)
	}
	return created.ID, getBody
}

// newHTTPClient returns a client that keeps at most `conns` connections
// to the server, so the load never exceeds the stated client count.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   150 * time.Second,
	}
}

// runPhase runs `clients` closed-loop supervisors against base. Each
// takes the next session of the pool, runs it to the end, and takes
// another while the phase is younger than d; with stopAfter > 0 the
// phase instead ends after exactly that many sessions. Sessions always
// run whole, so the mix of stream positions is the same in every phase.
func runPhase(ctx context.Context, base string, inputs []*sessionInput, clients int, d time.Duration, stopAfter int) *samples {
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	parts := make([]*samples, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &samples{}
		wg.Add(1)
		go func(s *samples) {
			defer wg.Done()
			c := &client{http: hc, base: base}
			for {
				n := int(next.Add(1)) - 1
				if ctx.Err() != nil || (stopAfter > 0 && n >= stopAfter) {
					return
				}
				if stopAfter <= 0 && n >= clients && time.Since(start) >= d {
					return
				}
				c.runSession(inputs[n%len(inputs)], s, false)
			}
		}(parts[i])
	}
	wg.Wait()
	total := &samples{wall: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// retained is one session left alive for the recovery check.
type retained struct {
	id   string
	body string // GET body before the kill, elapsed_ms and clocks scrubbed
}

// scrub renders a GET body without the fields that legitimately differ
// between two reads of the same session state: the evaluation's own
// stopwatch, the last-used clock and the snapshot age.
func scrub(body []byte) string {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return string(body)
	}
	delete(v, "last_used")
	delete(v, "snapshot_age_seconds")
	if rep, ok := v["report"].(map[string]any); ok {
		delete(rep, "elapsed_ms")
	}
	return string(mustJSON(v))
}

// retainSessions runs n sessions without deleting them and records the
// body each one's GET returns.
func retainSessions(base string, in *sessionInput, n int, s *samples) []retained {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{http: hc, base: base}
	var out []retained
	for i := 0; i < n; i++ {
		if id, body := c.runSession(in, s, true); id != "" && body != nil {
			out = append(out, retained{id: id, body: scrub(body)})
		}
	}
	return out
}

// checkRetained GETs every retained session and compares the body with
// the one recorded before the kill; a lost or different session fails.
func checkRetained(base string, kept []retained, s *samples) {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := &client{http: hc, base: base}
	for _, r := range kept {
		s.attempted++
		status, body, _, err := c.do("GET", "/v1/sessions/"+r.id, nil)
		switch {
		case err != nil || status != http.StatusOK:
			s.fail("recovered get %s: status %d err %v", r.id, status, err)
		case scrub(body) != r.body:
			s.fail("recovered session %s differs from its pre-kill body", r.id)
		}
	}
}

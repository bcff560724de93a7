package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/petri"
)

// TestConcurrentSessions hammers the service with 24 concurrent clients —
// each creating a session, streaming the quickstart alarms, reading it
// back and (half the time) deleting it — while the table cap forces LRU
// evictions and a sweeper goroutine expires idle sessions. It then shuts
// the server down under load. Run with -race; the assertions are loose on
// purpose (evicted sessions legitimately 404 mid-stream): the test's job
// is ordering, not semantics.
func TestConcurrentSessions(t *testing.T) {
	const clients = 24

	s := NewServer(Config{
		Store:       StoreConfig{MaxSessions: 10, TTL: 50 * time.Millisecond},
		EvalTimeout: time.Minute,
		SweepEvery:  -1,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	netText := parser.FormatNet(petri.Example())
	engines := []string{"dqsq", "direct", "naive", "product"}

	stopSweep := make(chan struct{})
	var sweepWG sync.WaitGroup
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		for {
			select {
			case <-stopSweep:
				return
			case <-time.After(5 * time.Millisecond):
				s.Store().Sweep(time.Now())
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var created createResponse
			code := doJSON(t, "POST", ts.URL+"/v1/sessions",
				createRequest{Net: netText, Engine: engines[c%len(engines)]}, &created)
			if code != http.StatusCreated {
				if code != http.StatusServiceUnavailable {
					t.Errorf("client %d: create status %d", c, code)
				}
				return
			}
			url := ts.URL + "/v1/sessions/" + created.ID
			for _, a := range quickstartAlarms {
				var resp appendResponse
				switch code := doJSON(t, "POST", url+"/alarms", appendRequest{Alarms: a}, &resp); code {
				case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
					// ok / evicted mid-stream / draining
				default:
					t.Errorf("client %d: append %q status %d", c, a, code)
				}
			}
			if code := doJSON(t, "GET", url, nil, nil); code != http.StatusOK &&
				code != http.StatusNotFound && code != http.StatusServiceUnavailable {
				t.Errorf("client %d: get status %d", c, code)
			}
			if c%2 == 0 {
				if code := doJSON(t, "DELETE", url, nil, nil); code != http.StatusNoContent &&
					code != http.StatusNotFound && code != http.StatusServiceUnavailable {
					t.Errorf("client %d: delete status %d", c, code)
				}
			}
		}(c)
	}

	wg.Wait()
	close(stopSweep)
	sweepWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	if n := s.Store().Len(); n != 0 {
		t.Fatalf("%d sessions survive shutdown", n)
	}
}

// TestMetricsScrapeDuringEviction: scraping /metrics samples gauges that
// acquire the store mutex, while creates that evict used to bump counters
// (acquiring the metrics mutex) from inside the store's locked section —
// a lock-order inversion that deadlocked both paths. This test hammers
// the two concurrently; under the old ordering it hangs.
func TestMetricsScrapeDuringEviction(t *testing.T) {
	m := NewMetrics()
	st := NewStore(StoreConfig{MaxSessions: 2}, m)
	defer st.Clear()
	netText := exampleNetText(t)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			if _, err := st.Create(netText, "direct", 0, time.Now()); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		m.WriteText(io.Discard)
	}
	if got := m.Counter("diagnosed_sessions_evicted_total"); got != 38 {
		t.Fatalf("evicted counter = %d, want 38", got)
	}
	if n := st.Len(); n != 2 {
		t.Fatalf("store holds %d sessions, want 2", n)
	}
}

// TestConcurrentAppendsOneSession: many goroutines appending to the SAME
// session serialize on its mutex without racing; the alarm count adds up.
func TestConcurrentAppendsOneSession(t *testing.T) {
	_, ts := newTestServer(t, Config{EvalTimeout: time.Minute})
	sess := createSession(t, ts, createRequest{Net: exampleNetText(t), Engine: "direct"})
	url := ts.URL + "/v1/sessions/" + sess.ID + "/alarms"

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := doJSON(t, "POST", url, appendRequest{Alarms: "b@p1"}, nil); code != http.StatusOK {
				t.Errorf("append status %d", code)
			}
		}()
	}
	wg.Wait()

	var info sessionResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if info.Alarms != 8 {
		t.Fatalf("alarms = %d, want 8", info.Alarms)
	}
}

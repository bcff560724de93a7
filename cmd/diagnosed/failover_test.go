package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/petri"
)

// getJSON fetches url into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// scrapeMetric reads one metric value line off /metrics ("name value").
func scrapeMetric(t *testing.T, base, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			if _, err := fmt.Sscan(fields[1], &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestDiagnosedFailoverSmoke is the end-to-end failover acceptance: a
// primary streams sessions to a live follower, dies by SIGKILL
// mid-stream, the follower is promoted via the admin endpoint, and the
// promoted server must hold every acknowledged append — its diagnoses
// byte-identical to an uninterrupted in-process run — and accept new
// writes under the bumped epoch.
func TestDiagnosedFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "diagnosed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}

	pAddr, fAddr := freeAddr(t), freeAddr(t)
	replAddr := freeAddr(t)
	pBase, fBase := "http://"+pAddr, "http://"+fAddr

	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		return cmd
	}

	primary := spawn("-addr", pAddr, "-data-dir", filepath.Join(dir, "primary"),
		"-replicate-listen", replAddr)
	waitReady(t, pBase)
	spawn("-addr", fAddr, "-data-dir", filepath.Join(dir, "follower"),
		"-follow", replAddr, "-repl-heartbeat", "50ms")
	waitReady(t, fBase)

	// Two sessions over the paper's running example; the reference run
	// mirrors session one's appends on a warm in-process handle.
	alarms := []string{"b@p1", "a@p2", "c@p1"}
	netText := parser.FormatNet(petri.Example())
	sys, err := core.LoadNet(netText)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := sys.NewIncremental(core.DQSQ, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want *core.Report
	for _, a := range alarms {
		seq, err := core.ParseAlarms(a)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = inc.Append(seq, 0); err != nil {
			t.Fatal(err)
		}
	}

	var sessA, sessB struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, pBase+"/v1/sessions", map[string]string{"net": netText, "engine": "dqsq"}, &sessA); code != http.StatusCreated {
		t.Fatalf("create A: status %d", code)
	}
	if code := postJSON(t, pBase+"/v1/sessions", map[string]string{"net": netText, "engine": "dqsq"}, &sessB); code != http.StatusCreated {
		t.Fatalf("create B: status %d", code)
	}
	for _, a := range alarms {
		if code := postJSON(t, pBase+"/v1/sessions/"+sessA.ID+"/alarms",
			map[string]string{"alarms": a}, nil); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}
	if code := postJSON(t, pBase+"/v1/sessions/"+sessB.ID+"/alarms",
		map[string]string{"alarms": alarms[0]}, nil); code != http.StatusOK {
		t.Fatalf("append B: status %d", code)
	}

	// Wait for the follower to hold every acknowledged append (both
	// sessions at full alarm count), then kill -9 the primary.
	waitFollower := func(id string, alarmCount int) {
		deadline := time.Now().Add(15 * time.Second)
		for {
			var got struct {
				Alarms int `json:"alarms"`
			}
			if code := getJSON(t, fBase+"/v1/sessions/"+id, &got); code == http.StatusOK && got.Alarms == alarmCount {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower never caught up on %s (want %d alarms)", id, alarmCount)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFollower(sessA.ID, len(alarms))
	waitFollower(sessB.ID, 1)

	primary.Process.Kill() //nolint:errcheck
	primary.Wait()         //nolint:errcheck

	// The follower refuses writes until promoted.
	if code := postJSON(t, fBase+"/v1/sessions/"+sessB.ID+"/alarms",
		map[string]string{"alarms": alarms[1]}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-promote append: status %d, want 503", code)
	}
	var promoted struct {
		Epoch uint64 `json:"epoch"`
	}
	if code := postJSON(t, fBase+"/v1/admin/promote", struct{}{}, &promoted); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if promoted.Epoch < 2 {
		t.Fatalf("promote epoch %d, want >= 2", promoted.Epoch)
	}
	if v, ok := scrapeMetric(t, fBase, "repl_epoch"); ok && v < 2 {
		t.Fatalf("repl_epoch gauge %v after promote", v)
	}

	// Zero acked loss: session A's diagnosis on the promoted node is
	// byte-identical to the uninterrupted reference run.
	var got struct {
		Alarms int `json:"alarms"`
		Report *wireReport
	}
	if code := getJSON(t, fBase+"/v1/sessions/"+sessA.ID, &got); code != http.StatusOK {
		t.Fatalf("post-promote GET A: status %d", code)
	}
	if got.Alarms != len(alarms) {
		t.Fatalf("promoted node holds %d alarms for A, want %d", got.Alarms, len(alarms))
	}
	if !reflect.DeepEqual(got.Report.Diagnoses, [][]string(want.Diagnoses)) {
		t.Fatalf("diagnoses diverge across failover:\ngot  %v\nwant %v", got.Report.Diagnoses, want.Diagnoses)
	}
	if got.Report.Derived != want.Derived || got.Report.Messages != want.Messages {
		t.Fatalf("counters diverge across failover: got %d derived/%d messages, want %d/%d",
			got.Report.Derived, got.Report.Messages, want.Derived, want.Messages)
	}

	// The promoted primary serves new writes.
	if code := postJSON(t, fBase+"/v1/sessions/"+sessB.ID+"/alarms",
		map[string]string{"alarms": alarms[1]}, nil); code != http.StatusOK {
		t.Fatalf("post-promote append: status %d", code)
	}
	var fresh struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, fBase+"/v1/sessions", map[string]string{"net": netText}, &fresh); code != http.StatusCreated {
		t.Fatalf("post-promote create: status %d", code)
	}
}

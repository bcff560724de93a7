package main

import (
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/petri"
)

// TestDiagnosedWALKillSmoke is the zero-loss acceptance for the WAL:
// with -fsync=always and fewer appends than earn a checkpoint record,
// every acknowledged append exists only as its own record in the
// write-ahead log when the process is killed with SIGKILL. The restarted server must replay the session to the
// exact state an uninterrupted run reaches — same diagnoses, same
// derived-fact count, same message count — and keep serving appends.
func TestDiagnosedWALKillSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "diagnosed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "data")
	addr := freeAddr(t)
	base := "http://" + addr

	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, append([]string{"-addr", addr, "-data-dir", dataDir}, args...)...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		waitReady(t, base)
		return cmd
	}

	alarms := []string{"b@p1", "a@p2", "c@p1"}

	// Uninterrupted reference over the full sequence.
	sys, err := core.LoadNet(parser.FormatNet(petri.Example()))
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

	srv := start("-fsync", "always")
	var created struct {
		ID string `json:"id"`
	}
	code := postJSON(t, base+"/v1/sessions",
		map[string]string{"net": parser.FormatNet(petri.Example()), "engine": "dqsq"}, &created)
	if code != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", code, created.ID)
	}
	for _, a := range alarms[:2] {
		if code := postJSON(t, base+"/v1/sessions/"+created.ID+"/alarms",
			map[string]string{"alarms": a}, nil); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}

	// Kill -9 the instant the second append is acknowledged: no
	// checkpoint exists, so recovery replays the fsynced create and append
	// records alone.
	srv.Process.Kill() //nolint:errcheck
	srv.Wait()         //nolint:errcheck

	start("-fsync", "always")
	var got struct {
		Alarms int         `json:"alarms"`
		Report *wireReport `json:"report"`
	}
	resp, err := http.Get(base + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed session GET: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Alarms != 2 {
		t.Fatalf("replayed session has %d alarms, want 2 (acknowledged appends lost)", got.Alarms)
	}

	var final struct {
		Report *wireReport `json:"report"`
	}
	if code := postJSON(t, base+"/v1/sessions/"+created.ID+"/alarms",
		map[string]string{"alarms": alarms[2]}, &final); code != http.StatusOK {
		t.Fatalf("append after restart: status %d", code)
	}
	if !reflect.DeepEqual(final.Report.Diagnoses, [][]string(want.Diagnoses)) {
		t.Fatalf("diagnoses diverge after kill -9 + WAL replay:\ngot  %v\nwant %v",
			final.Report.Diagnoses, want.Diagnoses)
	}
	if final.Report.Derived != want.Derived || final.Report.Messages != want.Messages {
		t.Fatalf("counters diverge after kill -9 + WAL replay: got %d derived/%d messages, want %d/%d",
			final.Report.Derived, final.Report.Messages, want.Derived, want.Messages)
	}
}

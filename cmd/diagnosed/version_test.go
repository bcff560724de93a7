package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/petri"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// TestDiagnosedOldSnapshotFallsBackToWAL: a data dir left by a build that
// wrote snapshot format 3 — a session's whole state, where format 4 holds
// what it added past its net's template — holds session files this build
// refuses (ErrVersion, no shim). The boot logs the session as not restored
// and the write-ahead log recreates it: GET answers what the uninterrupted
// server answered. The format-3 file is a real session snapshot of this
// build with its header patched.
func TestDiagnosedOldSnapshotFallsBackToWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "diagnosed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	dataDir, copyDir := filepath.Join(dir, "data"), filepath.Join(dir, "copy")
	addr := freeAddr(t)
	base := "http://" + addr

	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, append([]string{"-addr", addr, "-fsync", "always"}, args...)...)
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
	kill := func(cmd *exec.Cmd) {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	}
	// body is the session's GET body without what depends on the clock of
	// the process that answers.
	body := func(id string) map[string]any {
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET session: status %d: %s", resp.StatusCode, raw)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "last_used")
		delete(m, "snapshot_age_seconds")
		if rep, ok := m["report"].(map[string]any); ok {
			delete(rep, "elapsed_ms")
		}
		return m
	}

	// The uninterrupted run. Its snapshots are stalled, so the log is never
	// compacted: it holds the whole session.
	srv := start("-data-dir", dataDir, "-snapshot-delay", "1h")
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/v1/sessions",
		map[string]string{"net": parser.FormatNet(petri.Example()), "engine": "dqsq"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for _, a := range []string{"b@p1", "a@p2"} {
		if code := postJSON(t, base+"/v1/sessions/"+created.ID+"/alarms", map[string]string{"alarms": a}, nil); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}
	want := body(created.ID)
	kill(srv)

	// A server over a copy of the log writes the session's snapshot.
	if out, err := exec.Command("cp", "-r", dataDir, copyDir).CombinedOutput(); err != nil {
		t.Fatalf("cp -r: %v\n%s", err, out)
	}
	srv = start("-data-dir", copyDir)
	snap := filepath.Join(copyDir, created.ID+".dsnp")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if sess, err := serve.LoadSessionFile(snap, nil); err == nil && sess.Alarms() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot %s never reached 2 alarms", snap)
		}
	}
	kill(srv)

	file, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if file[len(snapshot.Magic)] != snapshot.Major {
		t.Fatalf("snapshot header says major %d, this build writes %d", file[len(snapshot.Magic)], snapshot.Major)
	}
	file[len(snapshot.Magic)] = 3
	old := filepath.Join(dataDir, created.ID+".dsnp")
	if err := os.WriteFile(old, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.LoadSessionFile(old, nil); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("loading a format-3 session file: %v, want ErrVersion", err)
	}

	start("-data-dir", dataDir)
	if got := body(created.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("session rebuilt from the log next to a format-3 snapshot:\n%v\nuninterrupted:\n%v", got, want)
	}
}

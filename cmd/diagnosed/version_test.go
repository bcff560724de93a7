package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/parser"
	"repro/internal/petri"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// TestDiagnosedOldSnapshotFallsBackToWAL: a checkpoint record this
// build can no longer decode — here one in snapshot format 3, a
// session's whole state, where format 4 holds what it added past its
// net's template (ErrVersion, no shim) — is logged as not restored, and
// the session's create and append records still in the log rebuild it:
// GET answers what the uninterrupted server answered. The format-3
// record is the drain's real checkpoint record with its container's
// header patched, written back under its own sequence number.
func TestDiagnosedOldSnapshotFallsBackToWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "diagnosed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "data")
	walDir := filepath.Join(dataDir, "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	var stderr bytes.Buffer
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-fsync", "always", "-data-dir", dataDir)
		cmd.Stderr = &stderr
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

	// The uninterrupted run; its drain checkpoints the session.
	srv := start()
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
	srv.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	if err := srv.Wait(); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}

	// Rewrite the log with the checkpoint record's container in format 3.
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := l.FirstSeq()
	var payloads [][]byte
	patched := 0
	err = l.ReadRange(first, l.LastSeq(), func(_ uint64, p []byte) error {
		r := snapshot.NewReader(p)
		if kind := r.Byte(); kind == 4 { // a checkpoint record
			id, written, container := r.String(), r.Int(), r.Bytes()
			if err := r.Finish(); err != nil {
				return err
			}
			if container[len(snapshot.Magic)] != snapshot.Major {
				t.Fatalf("checkpoint header says major %d, this build writes %d", container[len(snapshot.Magic)], snapshot.Major)
			}
			container = append([]byte(nil), container...)
			container[len(snapshot.Magic)] = 3
			w := &snapshot.Writer{}
			w.Byte(4)
			w.String(id)
			w.Int(written)
			w.Bytes(container)
			p = w.Body()
			patched++
		}
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	l.Close()
	if err != nil || patched != 1 {
		t.Fatalf("rewriting the log: %v, %d checkpoint records patched, want 1", err, patched)
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	l, err = wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SkipTo(first); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	stderr.Reset()
	srv = start()
	if got := body(created.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("session rebuilt from the log next to a format-3 checkpoint:\n%v\nuninterrupted:\n%v", got, want)
	}
	srv.Process.Kill() //nolint:errcheck
	srv.Wait()         //nolint:errcheck // the stderr copy is complete once Wait returns
	if !strings.Contains(stderr.String(), "checkpoint not restored") {
		t.Fatalf("the format-3 checkpoint was not refused:\n%s", stderr.String())
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/petri"
)

// TestPoolWorkerKillMigration is the end-to-end pool acceptance: a
// diagnosed frontend schedules sessions onto three peerd workers, one
// worker dies by SIGKILL mid-session and another drains via SIGTERM,
// and every session must keep answering with zero acknowledged-append
// loss — final diagnoses identical to an uninterrupted in-process run.
func TestPoolWorkerKillMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	diagnosedBin := filepath.Join(dir, "diagnosed")
	peerdBin := filepath.Join(dir, "peerd")
	if out, err := exec.Command("go", "build", "-o", diagnosedBin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", peerdBin, "repro/cmd/peerd").CombinedOutput(); err != nil {
		t.Fatalf("go build peerd: %v\n%s", err, out)
	}

	spawn := func(bin string, args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+dir) // the frontend's private log dir, which a kill leaves behind
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		})
		return cmd
	}

	// Three workers, each with a pool transport and an admin endpoint.
	workerAddrs := make([]string, 3)
	adminAddrs := make([]string, 3)
	workerCmds := make([]*exec.Cmd, 3)
	for i := range workerAddrs {
		workerAddrs[i] = freeAddr(t)
		adminAddrs[i] = freeAddr(t)
		workerCmds[i] = spawn(peerdBin,
			"-name", "pool-w"+string(rune('1'+i)),
			"-pool", workerAddrs[i],
			"-admin", adminAddrs[i])
	}
	for _, a := range adminAddrs {
		waitReady(t, "http://"+a)
	}

	feAddr := freeAddr(t)
	feBase := "http://" + feAddr
	spawn(diagnosedBin, "-addr", feAddr, "-pool", strings.Join(workerAddrs, ","))
	waitReady(t, feBase)

	// Reference: the full alarm sequence on a warm in-process engine.
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

	// One session per worker (least-loaded spreads them), first alarm
	// acknowledged everywhere before any failure is injected.
	ids := make([]string, 3)
	for i := range ids {
		var created struct {
			ID string `json:"id"`
		}
		if code := postJSON(t, feBase+"/v1/sessions", map[string]string{"net": netText, "engine": "dqsq"}, &created); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids[i] = created.ID
	}
	appendAll := func(alarm string) {
		t.Helper()
		for _, id := range ids {
			if code := postJSON(t, feBase+"/v1/sessions/"+id+"/alarms",
				map[string]string{"alarms": alarm}, nil); code != http.StatusOK {
				t.Fatalf("append %q to %s: status %d", alarm, id, code)
			}
		}
	}
	appendAll(alarms[0])

	// Kill -9 one worker and SIGTERM-drain another: at most one worker
	// is untouched, so migration provably happened for most sessions.
	workerCmds[0].Process.Kill()                  //nolint:errcheck
	workerCmds[0].Wait()                          //nolint:errcheck
	workerCmds[1].Process.Signal(syscall.SIGTERM) //nolint:errcheck

	// The drained worker's /healthz must say so — 503 with a "draining"
	// body, distinguishable from the killed worker (which refuses TCP).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + adminAddrs[1] + "/healthz")
		if err == nil {
			body := make([]byte, 64)
			n, _ := resp.Body.Read(body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body[:n]), "draining") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("drained worker's /healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every session — including those homed on the dead and draining
	// workers — absorbs the remaining alarms without losing the first.
	for _, a := range alarms[1:] {
		appendAll(a)
	}
	for _, id := range ids {
		var got struct {
			Alarms int `json:"alarms"`
			Report *wireReport
		}
		if code := getJSON(t, feBase+"/v1/sessions/"+id, &got); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if got.Alarms != len(alarms) {
			t.Fatalf("session %s holds %d alarms, want %d (an acknowledged append was lost)", id, got.Alarms, len(alarms))
		}
		if !reflect.DeepEqual(got.Report.Diagnoses, [][]string(want.Diagnoses)) {
			t.Fatalf("session %s diagnoses diverge after worker failure:\ngot  %v\nwant %v", id, got.Report.Diagnoses, want.Diagnoses)
		}
		if got.Report.Derived != want.Derived || got.Report.Messages != want.Messages {
			t.Fatalf("session %s counters diverge: got %d derived/%d messages, want %d/%d",
				id, got.Report.Derived, got.Report.Messages, want.Derived, want.Messages)
		}
	}

	// The survivors absorbed at least one migration (the frontend's
	// metric counts both the kill recovery and the drain).
	if v, ok := scrapeMetric(t, feBase, "pool_migrations_total"); !ok || v < 1 {
		t.Fatalf("pool_migrations_total = %v (present %v), want >= 1", v, ok)
	}
	// New placements still work with one worker dead and one draining.
	var fresh struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, feBase+"/v1/sessions", map[string]string{"net": netText}, &fresh); code != http.StatusCreated {
		t.Fatalf("post-failure create: status %d", code)
	}
}

var (
	scrubElapsed = regexp.MustCompile(`"elapsed_ms": [0-9eE.+-]+`)
	scrubID      = regexp.MustCompile(`"id": "[^"]*"`)
	scrubTimes   = regexp.MustCompile(`"(created|last_used)": "[^"]*"`)
)

// scrub blanks the fields that legitimately differ between two servers
// (ids, timestamps, elapsed wall time); everything else must match.
func scrub(body string) string {
	body = scrubElapsed.ReplaceAllString(body, `"elapsed_ms": X`)
	body = scrubID.ReplaceAllString(body, `"id": "X"`)
	return scrubTimes.ReplaceAllString(body, `"$1": "X"`)
}

// rawDo issues one request and returns its status and exact body.
func rawDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestPoolFrontendRestart kills a pool frontend running on a data dir
// with -9 and restarts it there, on the same two peerd workers. Its
// sessions — one past a checkpoint record, one with none, one poisoned
// and one deleted — must come back from the frontend's log: each live
// session's next append and its state read the same as on a local
// server that was never interrupted, and the deleted one stays gone.
func TestPoolFrontendRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	diagnosedBin := filepath.Join(dir, "diagnosed")
	peerdBin := filepath.Join(dir, "peerd")
	if out, err := exec.Command("go", "build", "-o", diagnosedBin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", peerdBin, "repro/cmd/peerd").CombinedOutput(); err != nil {
		t.Fatalf("go build peerd: %v\n%s", err, out)
	}
	spawn := func(bin string, args ...string) *exec.Cmd {
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
	var workers []string
	for i := 1; i <= 2; i++ {
		poolAddr, adminAddr := freeAddr(t), freeAddr(t)
		spawn(peerdBin, "-name", fmt.Sprintf("w%d", i), "-pool", poolAddr, "-admin", adminAddr)
		waitReady(t, "http://"+adminAddr)
		workers = append(workers, poolAddr)
	}
	dataDir := filepath.Join(dir, "data")
	feAddr, localAddr := freeAddr(t), freeAddr(t)
	fe, local := "http://"+feAddr, "http://"+localAddr
	startFrontend := func() *exec.Cmd {
		cmd := spawn(diagnosedBin, "-addr", feAddr, "-pool", strings.Join(workers, ","), "-data-dir", dataDir)
		waitReady(t, fe)
		return cmd
	}
	frontend := startFrontend()
	spawn(diagnosedBin, "-addr", localAddr)
	waitReady(t, local)

	// both sends one request to the frontend and the local server, and
	// fails unless both answer want with the same scrubbed body.
	ids := map[string][2]string{}
	both := func(method, name, path, body string, want int) string {
		t.Helper()
		id := ids[name]
		fCode, fBody := rawDo(t, method, fe+strings.ReplaceAll(path, "ID", id[0]), body)
		lCode, lBody := rawDo(t, method, local+strings.ReplaceAll(path, "ID", id[1]), body)
		if fCode != want || lCode != want || scrub(fBody) != scrub(lBody) {
			t.Fatalf("%s %s %s: frontend %d %s\nlocal %d %s\nwant %d", name, method, path, fCode, fBody, lCode, lBody, want)
		}
		return fBody
	}
	netJSON, err := json.Marshal(parser.FormatNet(petri.Example()))
	if err != nil {
		t.Fatal(err)
	}
	create := func(name, extra string) {
		t.Helper()
		body := `{"net": ` + string(netJSON) + `, "engine": "dqsq"` + extra + `}`
		_, fBody := rawDo(t, "POST", fe+"/v1/sessions", body)
		_, lBody := rawDo(t, "POST", local+"/v1/sessions", body)
		var f, l struct{ ID string }
		if json.Unmarshal([]byte(fBody), &f) != nil || json.Unmarshal([]byte(lBody), &l) != nil || f.ID == "" || l.ID == "" {
			t.Fatalf("create %s: frontend %s\nlocal %s", name, fBody, lBody)
		}
		ids[name] = [2]string{f.ID, l.ID}
	}
	appendTo := func(name, alarm string, want int) {
		t.Helper()
		both("POST", name, "/v1/sessions/ID/alarms", `{"alarms": "`+alarm+`"}`, want)
	}
	cycle := []string{"a@p2", "b@p2"} // peer p2 cycles through transitions v and vi

	// 16 appends earn "checkpointed" a checkpoint record; the budget
	// poisons "poisoned" on its second append, which logs one too.
	create("checkpointed", "")
	create("plain", "")
	create("poisoned", `, "max_facts": 300`)
	create("deleted", "")
	for i := 0; i < checkpointEvery; i++ {
		appendTo("checkpointed", cycle[i%2], http.StatusOK)
	}
	appendTo("plain", "a@p2", http.StatusOK)
	appendTo("poisoned", "b@p1", http.StatusOK)
	appendTo("poisoned", "a@p2", http.StatusTooManyRequests)
	appendTo("deleted", "a@p2", http.StatusOK)
	both("DELETE", "deleted", "/v1/sessions/ID", "", http.StatusNoContent)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n, ok := scrapeMetric(t, fe, "snapshot_write_seconds_count"); ok && n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint records never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	appendTo("checkpointed", cycle[0], http.StatusOK) // past its checkpoint
	appendTo("plain", "b@p2", http.StatusOK)

	frontend.Process.Kill() //nolint:errcheck
	frontend.Wait()         //nolint:errcheck
	startFrontend()

	appendTo("checkpointed", cycle[1], http.StatusOK)
	appendTo("plain", "a@p2", http.StatusOK)
	appendTo("poisoned", "c@p1", http.StatusTooManyRequests)
	for _, name := range []string{"checkpointed", "plain", "poisoned"} {
		body := both("GET", name, "/v1/sessions/ID", "", http.StatusOK)
		if name == "poisoned" && !strings.Contains(body, `"exhausted": true`) {
			t.Fatalf("poisoned session came back healthy: %s", body)
		}
	}
	if code, body := rawDo(t, "GET", fe+"/v1/sessions/"+ids["deleted"][0], ""); code != http.StatusNotFound {
		t.Fatalf("deleted session after restart: status %d %s, want 404", code, body)
	}
}

// checkpointEvery is the server's checkpoint cadence in appends.
const checkpointEvery = 16

// TestPoolRefusesReplication: a pool frontend neither ships its log to
// followers nor follows a primary (a follower would evaluate the pooled
// sessions in-process), so diagnosed refuses the combination at startup
// with exit status 2.
func TestPoolRefusesReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "diagnosed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnosed").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnosed: %v\n%s", err, out)
	}
	for _, repl := range [][]string{{"-replicate-listen", "127.0.0.1:0"}, {"-follow", "127.0.0.1:1"}} {
		args := append([]string{"-addr", freeAddr(t), "-pool", "127.0.0.1:1", "-data-dir", t.TempDir()}, repl...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "no -pool") {
			t.Fatalf("diagnosed %v: %v\n%s", args, err, out)
		}
	}
}

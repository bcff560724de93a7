package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/petri"
)

// freeAddr reserves a TCP port and releases it for the server to take.
// The restart must reuse one address, so :0 auto-assignment cannot work.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReady polls /healthz until the server answers.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("diagnosed at %s never became ready: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

type wireReport struct {
	Diagnoses [][]string `json:"diagnoses"`
	Derived   int        `json:"derived"`
	Messages  int        `json:"messages"`
}

// TestDiagnosedRestartSmoke is the end-to-end durability acceptance for
// the server: stream alarms into a session until a checkpoint record
// has landed in the write-ahead log, append once more past it, kill the
// process with SIGKILL, restart it on the same address and data dir,
// and finish the sequence. The final report must be byte-identical to
// an uninterrupted in-process run — same diagnoses, same derived-fact
// count, same message count. The data dir holds nothing but wal/, after
// the kill and after a graceful drain.
func TestDiagnosedRestartSmoke(t *testing.T) {
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

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
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

	// Peer p2 cycles through transitions v (a) and vi (b) for as long as
	// the alarms keep coming: 16 appends earn a checkpoint record, the
	// 17th lands past it, the 18th follows the restart.
	var alarms []string
	for i := 0; i < 18; i++ {
		alarms = append(alarms, []string{"a@p2", "b@p2"}[i%2])
	}
	last := len(alarms) - 1

	// Uninterrupted reference: the same per-alarm appends on a warm
	// in-process handle.
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

	srv := start()
	var created struct {
		ID string `json:"id"`
	}
	code := postJSON(t, base+"/v1/sessions",
		map[string]string{"net": parser.FormatNet(petri.Example()), "engine": "dqsq"}, &created)
	if code != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", code, created.ID)
	}
	appendOne := func(a string) {
		t.Helper()
		if code := postJSON(t, base+"/v1/sessions/"+created.ID+"/alarms",
			map[string]string{"alarms": a}, nil); code != http.StatusOK {
			t.Fatalf("append %q: status %d", a, code)
		}
	}
	for _, a := range alarms[:last-1] {
		appendOne(a)
	}
	// The checkpoint record lands behind the appends, without any
	// shutdown; wait for it, append once more past it, then kill -9.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, ok := scrapeMetric(t, base, "snapshot_write_seconds_count"); ok && n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint record landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	appendOne(alarms[last-1])
	srv.Process.Kill() //nolint:errcheck
	srv.Wait()         //nolint:errcheck
	onlyWAL(t, dataDir)

	srv = start()
	var got struct {
		Alarms int         `json:"alarms"`
		Report *wireReport `json:"report"`
	}
	resp, err := http.Get(base + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored session GET: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Alarms != last {
		t.Fatalf("restored session has %d alarms, want %d", got.Alarms, last)
	}

	var final struct {
		Report *wireReport `json:"report"`
	}
	if code := postJSON(t, base+"/v1/sessions/"+created.ID+"/alarms",
		map[string]string{"alarms": alarms[last]}, &final); code != http.StatusOK {
		t.Fatalf("append after restart: status %d", code)
	}
	if !reflect.DeepEqual(final.Report.Diagnoses, [][]string(want.Diagnoses)) {
		t.Fatalf("diagnoses diverge after kill -9 + restore:\ngot  %v\nwant %v",
			final.Report.Diagnoses, want.Diagnoses)
	}
	if final.Report.Derived != want.Derived || final.Report.Messages != want.Messages {
		t.Fatalf("counters diverge after kill -9 + restore: got %d derived/%d messages, want %d/%d",
			final.Report.Derived, final.Report.Messages, want.Derived, want.Messages)
	}

	srv.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	if err := srv.Wait(); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	onlyWAL(t, dataDir)
}

// onlyWAL checks that the data dir holds nothing but the write-ahead
// log's directory.
func onlyWAL(t *testing.T, dataDir string) {
	t.Helper()
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal" || !entries[0].IsDir() {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("data dir holds %v, want only wal/", names)
	}
}

package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// buildDiagnose compiles the command into a temp dir.
func buildDiagnose(t *testing.T) (bin, dir string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary and spawns processes")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "diagnose")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/diagnose").CombinedOutput(); err != nil {
		t.Fatalf("go build diagnose: %v\n%s", err, out)
	}
	return bin, dir
}

// runDiagnose runs the binary, failing the test if it fails.
func runDiagnose(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("diagnose %v: %v\n%s", args, err, errBuf.String())
	}
	return string(out), errBuf.String()
}

// segment returns the path of the checkpoint dir's one WAL segment.
func segment(t *testing.T, ck string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(ck, "wal", "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%s holds WAL segments %v (%v), want one", ck, segs, err)
	}
	return segs[0]
}

// TestDiagnoseCheckpointResume: a run checkpointed after a prefix of the
// alarms and resumed with the rest must print exactly the diagnoses of
// one uninterrupted run; a checkpoint taken with one engine must refuse
// to resume under another; corrupt logs are refused or reported; and
// what the path cannot honour is refused without touching anything.
func TestDiagnoseCheckpointResume(t *testing.T) {
	bin, dir := buildDiagnose(t)
	ck := filepath.Join(dir, "ck")

	runDiagnose(t, bin, "-example", "-alarms", "b@p1 a@p2", "-checkpoint", ck, "-q")
	resumed, _ := runDiagnose(t, bin, "-resume", ck, "-alarms", "c@p1", "-q")
	full, _ := runDiagnose(t, bin, "-example", "-alarms", "b@p1 a@p2 c@p1", "-q")
	if resumed != full {
		t.Fatalf("resumed run diverges from the uninterrupted one:\nresumed:\n%s\nfull:\n%s", resumed, full)
	}

	// Engine mismatch is refused with a clear message.
	out, err := exec.Command(bin, "-resume", ck, "-engine", "naive", "-alarms", "c@p1").CombinedOutput()
	if err == nil {
		t.Fatalf("resuming a dqsq checkpoint under -engine naive succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "cannot resume") {
		t.Fatalf("engine-mismatch refusal lacks a clear message:\n%s", out)
	}

	// Refusals leave what they refuse untouched: an older build's
	// checkpoint file, a dir that already holds a log, a second dir, a
	// depth bound the log cannot record.
	old := filepath.Join(dir, "old.dsnp")
	if err := os.WriteFile(old, []byte("DSNP older checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := segment(t, ck)
	logBefore, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-resume", old, "-alarms", "c@p1"},
		{"-example", "-alarms", "b@p1", "-checkpoint", old},
		{"-example", "-alarms", "b@p1", "-checkpoint", ck},
		{"-resume", ck, "-checkpoint", filepath.Join(dir, "other"), "-alarms", "c@p1"},
		{"-resume", ck, "-depth", "9", "-alarms", "c@p1"},
	} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Fatalf("diagnose %v succeeded:\n%s", args, out)
		}
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "DSNP older checkpoint" {
		t.Fatalf("refused old checkpoint file changed: %q, %v", b, err)
	}
	if logAfter, err := os.ReadFile(seg); err != nil || !bytes.Equal(logAfter, logBefore) {
		t.Fatalf("a refused run touched the session log (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "other")); !os.IsNotExist(err) {
		t.Fatalf("a refused -resume/-checkpoint pair created its -checkpoint dir (%v)", err)
	}

	// A corrupt log is refused, or its cut reported — never silently
	// half-restored.
	bad := filepath.Join(dir, "bad")
	if out, err := exec.Command("cp", "-r", ck, bad).CombinedOutput(); err != nil {
		t.Fatalf("cp: %v\n%s", err, out)
	}
	b, err := exec.Command("sh", "-c", "dd if=/dev/zero of="+segment(t, bad)+" bs=1 seek=200 count=64 conv=notrunc 2>/dev/null").CombinedOutput()
	if err != nil {
		t.Fatalf("corrupting log: %v\n%s", err, b)
	}
	out, err = exec.Command(bin, "-resume", bad, "-alarms", "c@p1").CombinedOutput()
	if err == nil && !strings.Contains(string(out), "torn record") {
		t.Fatalf("resuming a corrupted log succeeded without reporting the cut:\n%s", out)
	}
}

// TestCheckpointDirBootsInServer: a -checkpoint dir is a diagnosed data
// dir — a server booted on it serves the session with the diagnoses of
// an uninterrupted run.
func TestCheckpointDirBootsInServer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seq, err := core.ParseAlarms("b@p1 a@p2 c@p1")
	if err != nil {
		t.Fatal(err)
	}
	runCheckpointed("", dir, "", true, []core.Engine{core.DQSQ}, seq, core.Options{Timeout: time.Minute}, "", "", true)

	srv := serve.NewServer(serve.Config{DataDir: dir, SweepEvery: -1})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // Background never expires
	sessions := srv.Store().Sessions()
	if len(sessions) != 1 {
		t.Fatalf("server booted %d sessions from the checkpoint dir, want 1", len(sessions))
	}
	st, err := sessions[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Example().Diagnose(seq, core.DQSQ, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != core.DQSQ || st.Alarms != len(seq) || st.Report == nil || !st.Report.Diagnoses.Equal(want.Diagnoses) {
		t.Fatalf("booted session: engine %v, %d alarms, report %+v; want dqsq, %d alarms, diagnoses %v",
			st.Engine, st.Alarms, st.Report, len(seq), want.Diagnoses)
	}
}

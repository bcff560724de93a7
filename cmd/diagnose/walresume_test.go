package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiagnoseWALResume: a run killed while writing its exit checkpoint
// leaves a torn record at the end of the log. The next -resume must cut
// it, report the cut and the replayed records on stderr, rebuild the
// session from the create and append records before it, and end up
// byte-identical to an uninterrupted run over the whole sequence.
func TestDiagnoseWALResume(t *testing.T) {
	bin, dir := buildDiagnose(t)
	ck := filepath.Join(dir, "ck")

	// Log: create, append b, checkpoint, append a, checkpoint.
	runDiagnose(t, bin, "-example", "-alarms", "b@p1", "-checkpoint", ck, "-q")
	runDiagnose(t, bin, "-resume", ck, "-alarms", "a@p2", "-q")

	// Simulate the crash window: the last checkpoint record was half
	// written when the process died.
	seg := segment(t, ck)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	resumed, logs := runDiagnose(t, bin, "-resume", ck, "-alarms", "c@p1", "-q")
	if !strings.Contains(logs, "torn record") || !strings.Contains(logs, "(2 alarms); wal: 4 records replayed") {
		t.Fatalf("-resume stderr does not report the cut tail and the replay:\n%s", logs)
	}
	full, _ := runDiagnose(t, bin, "-example", "-alarms", "b@p1 a@p2 c@p1", "-q")
	if resumed != full {
		t.Fatalf("WAL-recovered run diverges from the uninterrupted one:\nresumed:\n%s\nfull:\n%s", resumed, full)
	}

	// A clean resume (its exit checkpoint whole) reports no cut and
	// reprints the same diagnoses.
	again, logs := runDiagnose(t, bin, "-resume", ck, "-q")
	if strings.Contains(logs, "torn record") || !strings.Contains(logs, "(3 alarms)") {
		t.Fatalf("clean -resume stderr:\n%s", logs)
	}
	if again != full {
		t.Fatalf("clean resume diverges from the uninterrupted run:\nresumed:\n%s\nfull:\n%s", again, full)
	}
}

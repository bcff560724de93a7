package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/diagnosis"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/transport"
	"repro/internal/wire"
)

// peerProc is one spawned peerd process.
type peerProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *lockedBuffer
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// kill sends SIGKILL and reaps the process.
func (p *peerProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck
	p.cmd.Wait()         //nolint:errcheck
}

// startPeerd spawns a peerd and waits for its listening line.
func startPeerd(t *testing.T, bin, name, listen string) *peerProc {
	t.Helper()
	cmd := exec.Command(bin, "-name", name, "-listen", listen)
	stderr := &lockedBuffer{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &peerProc{cmd: cmd, stderr: stderr}
	t.Cleanup(p.kill)
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("peerd %s exited before announcing its address; stderr:\n%s", name, stderr.String())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "peerd" || fields[1] != "listening" {
		t.Fatalf("unexpected peerd ready line %q", sc.Text())
	}
	p.addr = fields[2]
	return p
}

// killTap wraps the driver's transport. Once armed, the first Status frame
// from node from runs the kill before the driver sees it. Members send
// their Data frames to each other, so what the driver hears from a member
// during a round is its JobOK, its Status replies and its Done. The
// driver ends a round only after a status wave that includes every
// member, so it cannot end the round while that first Status is held
// back: the kill lands mid-round however loaded the machine is.
type killTap struct {
	transport.Transport
	from   string
	mu     sync.Mutex
	kill   func() // nil when not armed
	killed chan struct{}
}

func (k *killTap) arm(kill func()) {
	k.mu.Lock()
	k.kill = kill
	k.mu.Unlock()
}

func (k *killTap) Start(h transport.Handler) error {
	return k.Transport.Start(func(from string, f wire.Frame) {
		if _, ok := f.(wire.Status); ok && from == k.from {
			k.mu.Lock()
			kill := k.kill
			k.kill = nil
			k.mu.Unlock()
			if kill != nil {
				kill()
				close(k.killed)
			}
		}
		h(from, f)
	})
}

// TestPeerdKillRestore: a peerd member killed with SIGKILL and restarted
// (with nothing on disk) must rejoin the cluster, and every evaluation —
// including one that was mid-round when the member died — must end with
// exactly the diagnoses, derived-fact count and message count of a
// single-process run. The mid-round one must end by a retry, well inside
// its evaluation timeout: the restarted member tells the driver its round
// is lost instead of leaving the driver to time out.
func TestPeerdKillRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "peerd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/peerd").CombinedOutput(); err != nil {
		t.Fatalf("go build peerd: %v\n%s", err, out)
	}
	n1 := startPeerd(t, bin, "n1", "127.0.0.1:0")
	n2 := startPeerd(t, bin, "n2", "127.0.0.1:0")

	drv, err := transport.ListenTCP("driver", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	drv.AddRoute("n1", n1.addr)
	drv.AddRoute("n2", n2.addr)
	tap := &killTap{Transport: drv, from: "n1", killed: make(chan struct{})}
	cl := &diagnosis.Cluster{
		Transport: tap,
		Nodes:     []string{"n1", "n2"},
		Addrs:     map[string]string{"driver": drv.Addr(), "n1": n1.addr, "n2": n2.addr},
	}
	t.Cleanup(func() { cl.Close() })

	check := func(phase string, pn *petri.PetriNet, seq alarm.Seq, base *diagnosis.Report) {
		t.Helper()
		rep, err := diagnosis.RunDistributed(pn, seq, diagnosis.EngineNaive,
			diagnosis.Options{Timeout: 30 * time.Second}, cl)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if !rep.Diagnoses.Equal(base.Diagnoses) || rep.Derived != base.Derived || rep.Messages != base.Messages {
			t.Fatalf("%s: got %d diagnoses/%d derived/%d messages, want %d/%d/%d",
				phase, len(rep.Diagnoses), rep.Derived, rep.Messages,
				len(base.Diagnoses), base.Derived, base.Messages)
		}
	}

	quickPN, quickSeq := petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1")
	quickBase, err := diagnosis.Run(quickPN, quickSeq, diagnosis.EngineNaive, diagnosis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("fresh cluster", quickPN, quickSeq, quickBase)

	// Kill n1 between evaluations and restart it on the same address. The
	// next evaluation ships a new job generation; the restarted member
	// must accept it and the results stay exact.
	n1.kill()
	n1 = startPeerd(t, bin, "n1", n1.addr)
	check("after idle kill+restore", quickPN, quickSeq, quickBase)

	// Kill n1 mid-round: start the longer telecom evaluation, SIGKILL the
	// member when the driver receives its first Status frame, restart it. The
	// restarted member refuses the dead round (the driver fails fast and
	// retries under a fresh generation), and the retried evaluation must
	// be exact.
	telePN, teleSeq := gen.Telecom(3), gen.TelecomSeqFixed()
	teleBase, err := diagnosis.Run(telePN, teleSeq, diagnosis.EngineNaive, diagnosis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *diagnosis.Report
		err error
	}
	const evalTimeout = 30 * time.Second
	resCh := make(chan result, 1)
	tap.arm(n1.kill)
	evalStart := time.Now()
	go func() {
		rep, err := diagnosis.RunDistributed(telePN, teleSeq, diagnosis.EngineNaive,
			diagnosis.Options{Timeout: evalTimeout}, cl)
		resCh <- result{rep, err}
	}()
	select {
	case <-tap.killed:
	case res := <-resCh:
		// The evaluation ended before n1 sent the driver a Status frame;
		// results must still be exact, but the mid-round phase did not
		// run.
		if res.err != nil {
			t.Fatal(res.err)
		}
		t.Fatalf("evaluation finished before the mid-round kill landed")
	}
	n1 = startPeerd(t, bin, "n1", n1.addr)
	res := <-resCh
	if res.err != nil {
		t.Fatalf("mid-round kill+restore: %v", res.err)
	}
	if took := time.Since(evalStart); took >= evalTimeout {
		t.Fatalf("mid-round kill+restore took %v, not less than the %v evaluation timeout: the dead round timed out instead of being refused and retried",
			took, evalTimeout)
	}
	rep := res.rep
	if !rep.Diagnoses.Equal(teleBase.Diagnoses) || rep.Derived != teleBase.Derived || rep.Messages != teleBase.Messages {
		t.Fatalf("mid-round kill+restore: got %d diagnoses/%d derived/%d messages, want %d/%d/%d",
			len(rep.Diagnoses), rep.Derived, rep.Messages,
			len(teleBase.Diagnoses), teleBase.Derived, teleBase.Messages)
	}
	// One more evaluation on the healed cluster.
	check("after mid-round kill+restore", quickPN, quickSeq, quickBase)
	_ = n2
}

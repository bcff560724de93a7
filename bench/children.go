package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childProcs is the GOMAXPROCS every child runs with: the box's cores,
// at most two, so a result means the same thing on a wider machine.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// repoRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory; run from the checkout")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark builds or writes at run
// time goes, inside the checkout.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildBinaries compiles cmd/diagnosed and cmd/peerd from the checkout
// into the build directory. The go tool's caches, temporary files and
// telemetry counters are kept there too (run.sh sets the same variables
// for building this binary), so nothing outside the checkout is written.
func buildBinaries(ctx context.Context, root string) error {
	bd := buildDir(root)
	bin := filepath.Join(bd, "bin")
	for _, d := range []string{"bin", "gocache", "tmp"} {
		if err := os.MkdirAll(filepath.Join(bd, d), 0o755); err != nil {
			return err
		}
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin+string(filepath.Separator), "./cmd/diagnosed", "./cmd/peerd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(bd, "gocache"),
		"GOTMPDIR="+filepath.Join(bd, "tmp"),
		"GOPATH="+filepath.Join(bd, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(bd, "config"),
		"GOENV=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/diagnosed ./cmd/peerd: %w\n%s", err, out)
	}
	return nil
}

// child is one server process under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    string        // stderr+stdout file
	admin  string        // base URL serving /healthz and /metrics
	exited chan struct{} // closed once Wait has returned
}

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// kill stops the child with SIGKILL and waits until it has ended.
func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-c.exited
}

// fleet is the set of children one workload runs against, with the
// directory their logs and data live in.
type fleet struct {
	root     string // checkout root
	dir      string // this fleet's scratch directory
	base     string // base URL of the diagnosed HTTP surface
	children []*child
	dataDir  string // durable topology only
	addr     string // diagnosed listen address
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (f *fleet) spawn(name, bin string, admin string, args ...string) (*child, error) {
	logPath := filepath.Join(f.dir, fmt.Sprintf("%s-%d.log", name, len(f.children)))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(buildDir(f.root), "bin", bin), args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, admin: "http://" + admin, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is in the log; early exit is detected via exited
		logFile.Close()
		close(c.exited)
	}()
	f.children = append(f.children, c)
	return c, nil
}

// Flags every diagnosed child gets: a generous evaluation timeout and a
// TTL, sweep period and table cap that never fire during a run, so the
// only work measured is the work the clients asked for.
var diagnosedFlags = []string{"-eval-timeout", "120s", "-ttl", "24h", "-sweep", "24h", "-max-sessions", "100000"}

// startFleet starts the workload's topology inside dir and waits until
// every child answers /healthz.
func startFleet(ctx context.Context, root, dir, topology string) (*fleet, error) {
	f := &fleet{root: root, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var args []string
	switch topology {
	case "plain":
	case "durable":
		f.dataDir = filepath.Join(dir, "data")
		args = append(args, "-data-dir", f.dataDir, "-fsync", "always")
	case "pooled":
		var workers []string
		for i := 1; i <= 2; i++ {
			poolAddr, err := freeAddr()
			if err != nil {
				return f, err
			}
			adminAddr, err := freeAddr()
			if err != nil {
				return f, err
			}
			name := fmt.Sprintf("w%d", i)
			if _, err := f.spawn(name, "peerd", adminAddr, "-name", name, "-pool", poolAddr, "-admin", adminAddr); err != nil {
				return f, err
			}
			workers = append(workers, poolAddr)
		}
		if err := f.waitHealthy(ctx); err != nil {
			return f, err
		}
		args = append(args, "-pool", strings.Join(workers, ","), "-pool-policy", "least")
	default:
		return f, fmt.Errorf("unknown topology %q", topology)
	}
	addr, err := freeAddr()
	if err != nil {
		return f, err
	}
	f.addr, f.base = addr, "http://"+addr
	args = append(append([]string{"-addr", addr}, diagnosedFlags...), args...)
	if _, err := f.spawn("diagnosed", "diagnosed", addr, args...); err != nil {
		return f, err
	}
	return f, f.waitHealthy(ctx)
}

// restartDiagnosed starts a new diagnosed on the fleet's address and
// data directory (after the old one was killed) and waits for /healthz.
func (f *fleet) restartDiagnosed(ctx context.Context) error {
	args := append([]string{"-addr", f.addr, "-data-dir", f.dataDir, "-fsync", "always"}, diagnosedFlags...)
	if _, err := f.spawn("diagnosed", "diagnosed", f.addr, args...); err != nil {
		return err
	}
	return f.waitHealthy(ctx)
}

// diagnosed returns the live diagnosed child.
func (f *fleet) diagnosed() *child {
	for i := len(f.children) - 1; i >= 0; i-- {
		if f.children[i].name == "diagnosed" {
			return f.children[i]
		}
	}
	return nil
}

func (f *fleet) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range f.children {
		if !c.alive() {
			continue // a child killed on purpose earlier in the run
		}
		for {
			resp, err := http.Get(c.admin + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if !c.alive() {
				return fmt.Errorf("%s exited before it was healthy: %s", c.name, tail(c.log))
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("%s not healthy after 30s: %s", c.name, tail(c.log))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// checkAlive fails if any child has exited.
func (f *fleet) checkAlive() error {
	for _, c := range f.children {
		if !c.alive() {
			return fmt.Errorf("%s exited early: %s", c.name, tail(c.log))
		}
	}
	return nil
}

// stop kills every child, waits for each, and removes the fleet's
// directory.
func (f *fleet) stop() {
	for _, c := range f.children {
		c.kill()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // scratch under the build directory
}

// tail returns the last lines of a child's log for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// cpuSeconds is the user+system CPU time the live children have used,
// from /proc/<pid>/stat. Ticks are 1/100 s on every Linux Go supports.
func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, c := range f.children {
		if !c.alive() {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the name.
		rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat line for %s", c.name)
		}
		utime, err1 := strconv.ParseFloat(fields[11], 64)
		stime, err2 := strconv.ParseFloat(fields[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc stat line for %s", c.name)
		}
		total += (utime + stime) / 100
	}
	return total, nil
}

// rssPeakMB sums the live children's peak resident set (VmHWM).
func (f *fleet) rssPeakMB() (float64, error) {
	total := 0.0
	for _, c := range f.children {
		if !c.alive() {
			continue
		}
		file, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					file.Close()
					return 0, fmt.Errorf("bad VmHWM for %s: %q", c.name, rest)
				}
				total += kb / 1024
			}
		}
		file.Close()
	}
	return total, nil
}

// scrape reads one child's /metrics into name -> value. Histogram
// _count and _sum lines are kept, bucket lines dropped.
func scrape(c *child) (map[string]float64, error) {
	resp, err := http.Get(c.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line, "_bucket{") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

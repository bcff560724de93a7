// Command bench is the repository's benchmark: it builds cmd/diagnosed
// and cmd/peerd, starts them as child processes, drives them over
// loopback HTTP with closed-loop clients, checks every answer against
// the product engine, and reports end-to-end and per-layer metrics for
// six workloads. See README.md in this directory.
//
//	bash bench/run.sh                          # all workloads, every metric
//	bash bench/run.sh -only pipeline -reps 3
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload churn --seed 7 --seconds 12 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one
// run, one JSON object on the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed of the committed results.
const defaultSeed = 1

// setups is how often a run repeats its set-up to report the median.
const setups = 7

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print one JSON object (the BENCHMARK.json contract)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed; session i draws its inputs from seed+i")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		only         = flag.String("only", "", "comma-separated workloads to run (default: all six)")
		reps         = flag.Int("reps", 1, "repetitions per workload; repetition r runs with seed+1000r")
		out          = flag.String("out", "", "result file (default bench/out/result.json)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments, applying the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		if *seconds, err = runSeconds(root); err != nil {
			fatal(err)
		}
	}
	// SIGINT and SIGTERM cancel the run; every return path below stops
	// and reaps the children and removes their directories first.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runWorkload(ctx, runConfig{root: root, w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups})
		if err != nil {
			fatal(err)
		}
		os.Exit(printContract(res, *trace == 1))
	}

	var selected []workload
	for _, w := range workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.name+",") {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("-only %q names no workload", *only))
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "result.json")
	}
	file := newResultFile(root, *seed, *seconds, *reps)
	failed := 0
	for _, w := range selected {
		for r := 0; r < *reps; r++ {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{root: root, w: w, seed: *seed + int64(1000*r), seconds: *seconds, trace: traced, setups: setups}
				res, err := runWorkload(ctx, cfg)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				file.add(w, res, traced)
				failed += res.Failed
				for _, e := range res.Errors {
					fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", w.name, e)
				}
			}
		}
		file.print(os.Stdout, w.name)
	}
	if err := file.write(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult written to %s, traces to %s\n", *out, filepath.Join(root, "bench", "out"))
	if failed > 0 {
		fatal(fmt.Errorf("%d operations failed or disagreed with the oracle", failed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runSeconds reads the measured length of one run from BENCHMARK.json.
func runSeconds(root string) (float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &spec); err != nil || spec.RunSeconds <= 0 {
		return 0, fmt.Errorf("BENCHMARK.json has no usable run_seconds (%v)", err)
	}
	return spec.RunSeconds, nil
}

// printContract prints the single JSON object the BENCHMARK.json
// contract asks for and returns the exit code.
func printContract(res *runResult, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value)
	for _, d := range defs {
		if !traced && !d.contract {
			continue
		}
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s has no value", d.name))
		}
		metrics[d.name] = value{v, d.unit}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "FAILED", e)
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// series is one metric of one workload across repetitions; a nil value
// is a metric the workload cannot support (printed as null).
type series struct {
	Unit    string     `json:"unit"`
	Values  []*float64 `json:"values"`
	Samples []int      `json:"samples"`
}

func (s *series) numbers() []float64 {
	var out []float64
	for _, v := range s.Values {
		if v != nil {
			out = append(out, *v)
		}
	}
	return out
}

type workloadResult struct {
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
	// SharePct is each layer's self time as a percentage of the append
	// path, Closure the share of the in-process append time the layer
	// self times account for; one value per traced repetition.
	SharePct map[string][]float64 `json:"share_pct"`
	Closure  []float64            `json:"closure"`
}

// resultFile is what a full run writes: enough about the machine and
// the settings to tell whether two files may be compared.
type resultFile struct {
	Meta struct {
		Commit          string  `json:"commit"`
		GoVersion       string  `json:"go_version"`
		NProc           int     `json:"nproc"`
		ChildGOMAXPROCS int     `json:"child_gomaxprocs"`
		Seed            int64   `json:"seed"`
		Seconds         float64 `json:"seconds"`
		Reps            int     `json:"reps"`
		Time            string  `json:"time"`
	} `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func newResultFile(root string, seed int64, seconds float64, reps int) *resultFile {
	f := &resultFile{Workloads: map[string]*workloadResult{}}
	f.Meta.Commit = "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			f.Meta.Commit = strings.TrimSpace(string(b))
		}
	}
	f.Meta.GoVersion = runtime.Version()
	f.Meta.NProc = runtime.NumCPU()
	f.Meta.ChildGOMAXPROCS = childProcs()
	f.Meta.Seed, f.Meta.Seconds, f.Meta.Reps = seed, seconds, reps
	f.Meta.Time = time.Now().UTC().Format(time.RFC3339)
	return f
}

func (f *resultFile) add(w workload, res *runResult, traced bool) {
	wr := f.Workloads[w.name]
	if wr == nil {
		wr = &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}, SharePct: map[string][]float64{}}
		f.Workloads[w.name] = wr
	}
	wr.Clients = res.Clients
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	defs, into := endToEnd, wr.EndToEnd
	if traced {
		defs, into = perLayer, wr.PerLayer
		wr.Closure = append(wr.Closure, res.Closure)
		for layer, pct := range res.Shares {
			wr.SharePct[layer] = append(wr.SharePct[layer], pct)
		}
	}
	for _, d := range defs {
		s := into[d.name]
		if s == nil {
			s = &series{Unit: d.unit}
			into[d.name] = s
		}
		var p *float64
		if v, ok := res.Metrics[d.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			p = &v
		}
		s.Values = append(s.Values, p)
		s.Samples = append(s.Samples, res.Samples[d.name])
	}
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print writes one workload's metrics by name, with unit, median, the
// quartiles when there are repetitions, and the sample count.
func (f *resultFile) print(w *os.File, name string) {
	wr := f.Workloads[name]
	wl, _ := findWorkload(name)
	fmt.Fprintf(w, "\n== %s  (%d closed-loop clients, %d operations, %d failed)\n   %s\n",
		name, wr.Clients, wr.Attempted, wr.Failed, wl.why)
	row := func(d metricDef, s *series) {
		nums := s.numbers()
		if len(nums) == 0 {
			fmt.Fprintf(w, "  %-36s %14s %-6s\n", d.name, "null", d.unit)
			return
		}
		line := fmt.Sprintf("  %-36s %14.4f %-6s n=%d", d.name, median(nums), d.unit, s.Samples[len(s.Samples)-1])
		if len(nums) >= 2 {
			q1, q3 := quartiles(nums)
			line += fmt.Sprintf("  quartiles [%.4f, %.4f] over %d reps", q1, q3, len(nums))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, " end to end (tracing off)")
	for _, d := range endToEnd {
		row(d, wr.EndToEnd[d.name])
	}
	fmt.Fprintln(w, " per layer (traced pass and children's /metrics)")
	for _, d := range perLayer {
		row(d, wr.PerLayer[d.name])
	}
	layers := make([]string, 0, len(wr.SharePct))
	for l := range wr.SharePct {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return median(wr.SharePct[layers[i]]) > median(wr.SharePct[layers[j]]) })
	fmt.Fprint(w, " share of the append path:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s %.1f%%", l, median(wr.SharePct[l]))
	}
	fmt.Fprintf(w, "\n layer self times account for %.1f%% of the in-process append time\n", 100*median(wr.Closure))
}

// Command bench is the repository's benchmark: the offline attack and
// two serving traffic mixes, run against the program built from this
// checkout. See README.md in this directory for the workloads, the
// metrics and how to read a trace. Run it through run.sh, which builds
// the program and the benchmark first:
//
//	bash bench/run.sh --workload serve-bulk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1
//	bash bench/run.sh -runs 3 -out a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloads in the order a full run takes them.
var workloads = []string{"attack", "serve-bulk", "serve-ingest"}

// benchEnv is what every workload runs with.
type benchEnv struct {
	buildDir string
	runDir   string // scratch for the current run, emptied before each
	cli      string // the friendseeker binary under test
	seconds  time.Duration
	nproc    int
	// programCPUs are the cores the program under test runs on: all but
	// the first, which the benchmark process keeps for itself and the load
	// it generates. Each process then keeps to the same cores in every run.
	// Nil on a single core, where nothing is pinned.
	programCPUs []int
	world       *world
	fx          *fixture
}

// baseSeconds is the run length the phase lengths in this package are
// written for; other -seconds values scale them.
const baseSeconds = 20

func (e *benchEnv) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.seconds.Seconds() / baseSeconds)
}

func (e *benchEnv) tracePath(name string) string {
	return filepath.Join(e.buildDir, "trace", name)
}

// fixture returns the serving fixture, building it on first use.
func (e *benchEnv) fixture(ctx context.Context) (*fixture, error) {
	if e.fx == nil {
		fx, err := ensureFixture(ctx, e.buildDir, e.cli, e.world)
		if err != nil {
			return nil, err
		}
		e.fx = fx
	}
	return e.fx, nil
}

func main() {
	// The benchmark runs on one P. As the load generator it leaves the
	// other cores to the server (programCPUs); as the attack child it
	// measures the attack single-threaded, which the attack nearly is
	// (cpu_util 1.17 with two Ps, the rest garbage collection) and which
	// repeats far better on a shared host: on a 2-vCPU VM, over seven
	// interleaved runs, Train+Infer spread 3.5% with one P and 11.5% with
	// two.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == "-attack-child" {
		if err := attackChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench attack child:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	buildDir := fs.String("build-dir", ".bench_build", "directory holding the built program and the benchmark's files")
	workload := fs.String("workload", "", "workload to run (empty runs all three)")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", baseSeconds, "measured length of one run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload; more than one reports medians and quartiles")
	outPath := fs.String("out", "", "also write every run's result to this JSON file")
	compareMode := fs.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	names := workloads
	if *workload != "" {
		if !known(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive and -trace 0 or 1")
		return 2
	}
	results, err := runAll(ctx, *buildDir, names, *seed, *runs, time.Duration(*seconds)*time.Second, *trace == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *outPath != "" {
		if err := writeResults(*outPath, *seconds, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	summary := summarize(results, *trace == 1, out)
	if err := json.NewEncoder(out).Encode(summary); err != nil {
		return 1
	}
	if !summary.Correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runAll runs each named workload runs times and prints each result.
func runAll(ctx context.Context, buildDir string, names []string, seed int64, runs int, seconds time.Duration, trace bool, out io.Writer) ([]*result, error) {
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	env := &benchEnv{
		buildDir: abs,
		runDir:   filepath.Join(abs, "run"),
		cli:      filepath.Join(abs, "friendseeker"),
		seconds:  seconds,
		nproc:    runtime.NumCPU(),
	}
	if _, err := os.Stat(env.cli); err != nil {
		return nil, fmt.Errorf("program under test not built (run bench/run.sh): %w", err)
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if len(cpus) > 1 {
		if err := pinSelf(cpus[:1]); err != nil {
			return nil, err
		}
		env.programCPUs = cpus[1:]
	}
	if err := os.MkdirAll(filepath.Join(abs, "trace"), 0o755); err != nil {
		return nil, err
	}
	if env.world, err = ensureWorld(abs); err != nil {
		return nil, err
	}
	var results []*result
	for _, name := range names {
		for i := 0; i < runs; i++ {
			if err := os.RemoveAll(env.runDir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(env.runDir, 0o755); err != nil {
				return nil, err
			}
			var res *result
			if name == "attack" {
				res, err = runAttack(ctx, env, seed+int64(i), trace)
			} else {
				res, err = runServe(ctx, env, name, seed+int64(i), trace)
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
			}
			printResult(out, res)
			results = append(results, res)
		}
	}
	return results, nil
}

func printResult(out io.Writer, r *result) {
	state := "correct"
	if !r.Correct {
		state = "INCORRECT"
	}
	fmt.Fprintf(out, "%s seed=%d: %s, %d attempted, %d failed\n", r.Workload, r.Seed, state, r.Attempted, r.Failed)
	for _, d := range defsFor(r.Trace) {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(out, "  note:", n)
	}
}

// summary is the last line of output: whether every check passed, the
// requests attempted and failed, and every metric with its unit.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the runs into the final line: each metric's median,
// named plainly for a single workload and as workload.metric otherwise.
// With several runs it also prints the median and quartiles.
func summarize(results []*result, trace bool, out io.Writer) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	byWorkload := map[string][]*result{}
	var order []string
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		rs := byWorkload[w]
		if len(rs) > 1 {
			fmt.Fprintf(out, "%s over %d runs: median [q1 q3] spread\n", w, len(rs))
		}
		for _, d := range defsFor(trace) {
			var v []float64
			for _, r := range rs {
				v = append(v, r.Metrics[d.name])
			}
			name := d.name
			if len(order) > 1 {
				name = w + "." + d.name
			}
			s.Metrics[name] = metricValue{Value: median(v), Unit: d.unit}
			if len(rs) > 1 {
				q1, q3 := quartiles(v)
				fmt.Fprintf(out, "  %-32s %14.6g [%.6g %.6g] %5.1f%% %s\n", d.name, median(v), q1, q3, 100*spread(v), d.unit)
			}
		}
	}
	return s
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Nproc   int       `json:"nproc"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

func writeResults(path string, seconds int, results []*result) error {
	b, err := json.MarshalIndent(resultsFile{Nproc: runtime.NumCPU(), Seconds: seconds, Results: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Results) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return &rf, nil
}

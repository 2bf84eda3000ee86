// Command perfbench is MITHRA's end-to-end benchmark. It drives the
// compiler and the serving stack from outside, through their public
// functions, and prints one JSON result line:
//
//	perfbench --workload serve --seed 3 --seconds 10 --trace 0
//
// Workloads: compile, serve, serve_online, serve_cluster (README.md).
// With --trace 0 the result carries the end-to-end metrics; --trace 1 is
// a separate run that carries the per-layer metrics instead. --spread k
// re-runs one workload k times in child processes and prints each
// metric's median, quartiles and range.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// work is a private scratch directory inside the working directory
	// (WAL directories and decision logs); removed at exit.
	work string
}

// outcome is what a workload hands back: the operations it attempted,
// the ones that failed, its metrics, and the first failed output check.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	checkErr          error
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records the first failed check.
func (o *outcome) fail(err error) {
	if o.checkErr == nil && err != nil {
		o.checkErr = err
	}
}

var workloads = map[string]func(env) (*outcome, error){
	"compile":       runCompile,
	"serve":         runServe,
	"serve_online":  runOnline,
	"serve_cluster": runCluster,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "compile | serve | serve_online | serve_cluster")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		spread   = flag.Int("spread", 0, "run the workload this many times (seeds seed..seed+k-1) and print spread")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *spread > 0 {
		if err := runSpread(os.Stdout, *workload, *seed, *seconds, *trace, *spread); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	e := env{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.work, err = os.MkdirTemp(filepath.Join(cwd, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	// The process runs on one P: the sizing probe found one process at
	// GOMAXPROCS=1 the steadiest serving configuration on a 2-core
	// machine, and the calibration kernel that timings are scaled by is
	// single-threaded (README.md). Only the compile workload's
	// two-worker-count check raises it to nproc.
	runtime.GOMAXPROCS(1)
	out, err := workloads[e.workload](e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	lo, hi := minMax(slowdowns)
	fmt.Fprintf(os.Stderr, "perfbench: %s: timings reported at reference speed; %d calibrations, slowdown median %.3f (min %.3f, max %.3f)\n",
		e.workload, len(slowdowns), median(slowdowns), lo, hi)
	rep := report{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", e.workload, out.checkErr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// setupRuns is how many times every workload repeats its set-up; the
// median is setup_s.
const setupRuns = 3

// withProcs runs fn at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, fn func() error) error {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// nproc is the machine's CPU count, the ceiling on threads and
// connections every workload uses.
func nproc() int { return runtime.NumCPU() }

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle collects garbage left by set-up so the measured phase starts
// from a clean heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runSpread re-executes this binary k times on one workload with
// consecutive seeds and prints per-metric medians, quartiles and ranges:
// the figures BENCHMARK.json's bounds are set from.
func runSpread(w *os.File, workload string, seed uint64, seconds float64, trace, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		rep, err := lastReport(raw)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d", s, rep.Correct, rep.Failed)
		}
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "spread: run %d/%d (seed %d) done\n", i+1, k, s)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %-6s %12s %12s %12s %12s %12s %8s\n",
		"metric", "unit", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, name := range names {
		v := values[name]
		q1, med, q3 := quartiles(v)
		lo, hi := minMax(v)
		rel := 0.0
		if med != 0 {
			rel = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-30s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n",
			name, units[name], lo, q1, med, q3, hi, rel)
	}
	return nil
}

// lastReport parses the result line at the end of a run's stdout.
func lastReport(raw []byte) (report, error) {
	var rep report
	end := len(raw)
	for end > 0 && (raw[end-1] == '\n' || raw[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && raw[start-1] != '\n' {
		start--
	}
	if start == end {
		return rep, errors.New("no result line")
	}
	if err := json.Unmarshal(raw[start:end], &rep); err != nil {
		return rep, fmt.Errorf("parse result line: %w", err)
	}
	return rep, nil
}

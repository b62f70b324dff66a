// Command perfbench is the repository benchmark. One invocation runs
// one workload in its own process and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 a separate traced run reports the
// per-layer metrics. Inputs are generated from -seed with
// internal/workload, and every output the program produces is compared
// byte for byte (by SHA-256) against a sequential reference computed
// during set-up. A mismatch is a failure and makes the command exit 1.
//
// Run it through run.sh, which builds this package and tracetrackerd
// into .bench_build of the checkout:
//
//	bash perfbench/run.sh --workload prxy-ftl --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// engineWorkers is the engine worker count of every workload: the
// CPU count of the 2-CPU machine the benchmark was sized on. It is a
// constant, not runtime.NumCPU, so a run on a bigger machine measures
// the same configuration.
const engineWorkers = 2

// setupReps is how many times a run repeats its whole set-up; setup_s
// is the median, and every repeat must produce the same references.
const setupReps = 3

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	scale     float64 // multiplies every input size (1 = the sizes BENCHMARK.json states)
	corrupt   bool    // flip one byte of one output, to show the check catches it
	daemonBin string
	workDir   string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns: its counts, end-to-end or
// per-layer metrics, and the spans of a traced run.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	spans             []span
	notes             []string // sample counts and spreads, for the report
}

// noteSpread records the sample count and quartiles behind a median.
func (o *outcome) noteSpread(what string, xs []float64) {
	o.notes = append(o.notes, fmt.Sprintf("%s: n=%d p25=%.4g p50=%.4g p75=%.4g p90=%.4g",
		what, len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9)))
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked output against its reference digest.
func (o *outcome) check(got, want [32]byte) bool {
	o.attempted++
	if got != want {
		o.failed++
		return false
	}
	return true
}

var workloads = map[string]func(options) (*outcome, error){
	"fiu-infer-array":   func(o options) (*outcome, error) { return runEngine(o, engineWorkloads["fiu-infer-array"]) },
	"prxy-ftl":          func(o options) (*outcome, error) { return runEngine(o, engineWorkloads["prxy-ftl"]) },
	"msnfs-host":        func(o options) (*outcome, error) { return runEngine(o, engineWorkloads["msnfs-host"]) },
	"daemon-corpus-mix": runDaemon,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end run, 1 = traced per-layer run")
	flag.Float64Var(&o.scale, "scale", 1, "input size multiplier (the self-test uses a tiny one)")
	flag.BoolVar(&o.corrupt, "corrupt", false, "corrupt one output so the check must fail")
	flag.StringVar(&o.daemonBin, "daemon-bin", ".bench_build/tracetrackerd", "tracetrackerd binary")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for generated inputs, outputs and spans")
	flag.Parse()
	o.trace = traceFlag != 0
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and writes its human-readable report to
// w; the caller prints the result line.
func run(o options, w io.Writer) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return nil, errors.New("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	out, err := fn(o)
	if err != nil {
		return nil, err
	}
	if out.attempted == 0 {
		return nil, errors.New("no output was checked")
	}
	failedFrac := float64(out.failed) / float64(out.attempted)
	if o.trace {
		out.set("failed_frac", "frac", failedFrac)
		if err := writeSpans(filepath.Join(filepath.Dir(dir), "spans"), o, out.spans); err != nil {
			return nil, err
		}
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}

	prov := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"scale": o.scale, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workers": engineWorkers, "failed_frac": failedFrac,
	}
	pj, _ := json.Marshal(prov) // plain map of scalars: cannot fail
	fmt.Fprintf(w, "provenance %s\n", pj)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, ok := out.metrics["failed_frac"]; !ok {
		fmt.Fprintf(w, "%-34s %16s %s\n", "failed_frac", strconv.FormatFloat(failedFrac, 'g', 6, 64), "frac")
	}
	moves := map[string]string{}
	if o.trace {
		for _, m := range perLayer {
			moves[m.name] = "  moves: " + m.moves
		}
	}
	for _, name := range names {
		m := out.metrics[name]
		fmt.Fprintf(w, "%-34s %16s %-5s%s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, moves[name])
	}
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, nil
}

// scaled applies the -scale multiplier to an input size.
func (o options) scaled(n int) int {
	if s := int(math.Round(float64(n) * o.scale)); s > 100 {
		return s
	}
	return 100
}

// median and quantile take the linear-interpolated quantile of xs
// (not modified).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// accuracy is the paper's min/max agreement of an inferred quantity
// with its ground truth (1 = exact).
func accuracy(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Min(a, b) / math.Max(a, b)
}

func hashFile(path string) ([32]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return [32]byte{}, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return [32]byte{}, err
	}
	return [32]byte(h.Sum(nil)), nil
}

// corruptFile flips one byte in the middle of path.
func corruptFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return errors.New("cannot corrupt an empty output")
	}
	b[len(b)/2] ^= 0xff
	return os.WriteFile(path, b, 0o644)
}

// settleMemory returns the heap set-up freed to the OS, so the timed
// phase starts from the engine's own footprint.
func settleMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets this process's VmHWM to its current RSS by
// writing 5 to clear_refs (Linux 4.0+), so the next peakRSSMB reports
// the peak of what ran in between. Where the kernel refuses, the peak
// stays the process's lifetime peak, on parent and change alike.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durations converts to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

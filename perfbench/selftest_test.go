package main

// The benchmark's self-test: every workload at a tiny input size.
// Run it from this directory with `go test .` (it builds tracetrackerd
// into a temporary directory for the daemon workload).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

var testDaemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-selftest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testDaemonBin = filepath.Join(dir, "tracetrackerd")
	build := exec.Command("go", "build", "-o", testDaemonBin, "repro/cmd/tracetrackerd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, "building tracetrackerd:", err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace, corrupt bool) *result {
	t.Helper()
	o := options{
		workload: workload, seed: seed, seconds: 0.2, trace: trace, scale: 0.01,
		corrupt: corrupt, daemonBin: testDaemonBin, workDir: t.TempDir(),
	}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// checkMetrics asserts that res reports exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, workload string, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, want %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not reported", workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestWorkloads runs every workload twice with one seed, untraced and
// traced: every metric is reported with its unit, no operation fails,
// and the fidelity figures and device counters repeat exactly.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	repeatE2E := []string{"idle_total_acc"}
	repeatLayer := []string{"idle_count_acc", "iat_ks", "ftl.erases", "ftl.waf", "ftl.foreground_stall_us", "hoststack.hit_rate", "hoststack.flushed_pages"}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want, repeat := spec.EndToEnd, repeatE2E
				if traced {
					want, repeat = spec.PerLayer, repeatLayer
				}
				a := tinyRun(t, w.Name, 7, traced, false)
				b := tinyRun(t, w.Name, 7, traced, false)
				for _, res := range []*result{a, b} {
					checkMetrics(t, w.Name, res, want)
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Errorf("%s (trace %v): %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
					}
				}
				for _, name := range repeat {
					if a.Metrics[name] != b.Metrics[name] {
						t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", w.Name, name, a.Metrics[name], b.Metrics[name])
					}
				}
			}
		})
	}
}

// TestCorruptedOutputFails shows the output check is live: one
// corrupted output per workload must be counted as a failure.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		res := tinyRun(t, w.Name, 7, false, true)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted output gave correct=%v failed=%d, want correct=false failed=1", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of
// its children, overlapping or not, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	want := []time.Duration{100 - 40 - 10, 30 - 5, 20, 30, 5}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

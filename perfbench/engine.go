package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// engineWorkload is one file-to-file reconstruction workload: a
// generated trace of a Table I family, reconstructed onto a registry
// target by engine.ReconstructPath, writing the input's format.
type engineWorkload struct {
	profile  string
	format   string
	device   string
	requests int
}

// The sizes and targets are fixed by the benchmark's definition; see
// BENCHMARK.json for why each workload exists.
var engineWorkloads = map[string]engineWorkload{
	"fiu-infer-array": {profile: "homes", format: "csv", device: "array", requests: 500_000},
	"prxy-ftl":        {profile: "prxy", format: "bin", device: "ftl", requests: 200_000},
	"msnfs-host":      {profile: "MSNFS", format: "bin", device: "host", requests: 50_000},
}

// minIters is the fewest timed iterations a run takes, even when one
// iteration outlasts -seconds.
const minIters = 3

// uploadReps is how many times an engine workload ingests its input
// into a fresh corpus store for upload_p50_ms.
const uploadReps = 9

// fidelity holds the paper's accuracy figures for one reconstruction.
type fidelity struct {
	idleCountAcc, idleTotalAcc, iatKS float64
}

// engineInput is a workload's generated input file plus everything the
// checks and the traced run compare against.
type engineInput struct {
	wl      engineWorkload
	path    string
	n       int
	factory func() device.Device
	digest  [32]byte // SHA-256 of the reference output
	fid     fidelity
	stats   []device.Stat
	old     *trace.Trace // decoded input
	ref     *trace.Trace // core.Reconstruct output
	refIdle []time.Duration
}

// generate synthesizes n operations of a workload family and runs them
// on the OLD system (the HDD), as the public traces were collected.
// Families whose corpus recorded no completion times lose their
// latencies, exactly as tracegen writes them.
func generate(profile string, n int, seed int64) (*replay.App, *trace.Trace, error) {
	p, ok := workload.Lookup(profile)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload family %q", profile)
	}
	app := workload.Generate(p, workload.GenOptions{Ops: n, Seed: workload.TraceSeed(p.Name, 0) ^ seed})
	tr := app.Execute(device.NewHDD(device.DefaultHDDConfig())).Trace
	tr.Name, tr.Workload, tr.Set, tr.TsdevKnown = p.Name, p.Name, p.Set, p.TsdevKnown
	if !p.TsdevKnown {
		for i := range tr.Requests {
			tr.Requests[i].Latency = 0
		}
	}
	return app, tr, nil
}

// measureFidelity compares a reconstruction against the generator's
// ground truth: inferred idle count and total against the injected
// think times, and the reconstructed inter-arrival distribution
// against the same application executed directly on the target.
func measureFidelity(app *replay.App, idleCount int, idleTotal time.Duration, out *trace.Trace, target device.Device) fidelity {
	truthCount, truthTotal := 0, time.Duration(0)
	for _, op := range app.Ops {
		if op.Think > 0 {
			truthCount++
			truthTotal += op.Think
		}
	}
	direct := app.Execute(target).Trace
	return fidelity{
		idleCountAcc: accuracy(float64(idleCount), float64(truthCount)),
		idleTotalAcc: accuracy(float64(idleTotal), float64(truthTotal)),
		iatKS: stats.KolmogorovSmirnov(durations(out.InterArrivals(), time.Microsecond),
			durations(direct.InterArrivals(), time.Microsecond)),
	}
}

func writeTraceFile(path, format string, t *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc, err := trace.NewEncoder(format, f, "")
	if err == nil {
		err = trace.EncodeTrace(enc, t)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readTraceFile(path, format string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadFormat(format, f)
}

func encodeTrace(format string, t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(format, &buf, "")
	if err != nil {
		return nil, err
	}
	if err := trace.EncodeTrace(enc, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setupEngine generates the input file in dir and computes the
// sequential reference: core.Reconstruct on the decoded file, on the
// workload's target.
func setupEngine(o options, wl engineWorkload, dir string) (*engineInput, error) {
	factory, err := engine.DeviceFactory(wl.device)
	if err != nil {
		return nil, err
	}
	in := &engineInput{wl: wl, n: o.scaled(wl.requests), factory: factory, path: filepath.Join(dir, "input."+wl.format)}
	app, tr, err := generate(wl.profile, in.n, o.seed)
	if err != nil {
		return nil, err
	}
	if err := writeTraceFile(in.path, wl.format, tr); err != nil {
		return nil, err
	}
	if in.old, err = readTraceFile(in.path, wl.format); err != nil {
		return nil, err
	}
	ref, rep, err := core.Reconstruct(in.old, factory(), core.Options{})
	if err != nil {
		return nil, err
	}
	b, err := encodeTrace(wl.format, ref)
	if err != nil {
		return nil, err
	}
	in.digest = sha256.Sum256(b)
	in.ref, in.refIdle, in.stats = ref, rep.Idle, rep.DeviceStats
	in.fid = measureFidelity(app, rep.IdleCount, rep.IdleTotal, ref, factory())
	return in, nil
}

// reconstructFile is one timed operation: engine.ReconstructPath from
// the input file to a fresh output file. The duration covers creating,
// writing and closing the output.
func reconstructFile(in *engineInput, out string, m *obs.EngineMetrics) (time.Duration, *engine.Report, error) {
	start := time.Now()
	f, err := os.Create(out)
	if err != nil {
		return 0, nil, err
	}
	enc, err := trace.NewEncoder(in.wl.format, f, "")
	var rep *engine.Report
	if err == nil {
		eng := engine.New(engine.Config{Workers: engineWorkers, Device: in.factory, Metrics: m})
		rep, err = eng.ReconstructPath(in.path, in.wl.format, 0, enc)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return time.Since(start), rep, err
}

// verifyFile checks an output file's digest against the reference,
// corrupting the file first when asked to.
func verifyFile(o *outcome, path string, want [32]byte, corrupt bool) error {
	if corrupt {
		if err := corruptFile(path); err != nil {
			return err
		}
	}
	got, err := hashFile(path)
	if err != nil {
		return err
	}
	if !o.check(got, want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s differs from the reference output\n", path)
	}
	return nil
}

func runEngine(o options, wl engineWorkload) (*outcome, error) {
	var in *engineInput
	var setups []float64
	reps := setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		next, err := setupEngine(o, wl, o.workDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if in != nil && next.digest != in.digest {
			return nil, fmt.Errorf("setup: the reference output differs between two set-ups of seed %d", o.seed)
		}
		in = next
	}
	out := &outcome{}
	outPath := filepath.Join(o.workDir, "output."+wl.format)
	timed := func(m *obs.EngineMetrics, corrupt bool) (time.Duration, *engine.Report, error) {
		d, rep, err := reconstructFile(in, outPath, m)
		if err == nil {
			err = verifyFile(out, outPath, in.digest, corrupt)
		}
		return d, rep, err
	}
	if o.trace {
		return out, tracedEngine(o, in, out, outPath)
	}

	// Only the digest and the figures are needed from here on; drop the
	// in-memory traces so the peak-RSS mark is the engine's own.
	in.old, in.ref, in.refIdle = nil, nil, nil
	settleMemory()

	if _, _, err := timed(nil, false); err != nil { // warm-up, untimed
		return nil, err
	}
	var times, rss []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(times) < minIters || time.Now().Before(deadline) {
		runtime.GC() // every iteration starts from the same heap
		resetPeakRSS()
		d, _, err := timed(nil, o.corrupt && len(times) == 0)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		times, rss = append(times, d.Seconds()), append(rss, peak)
	}
	data, err := os.ReadFile(in.path)
	if err != nil {
		return nil, err
	}
	var uploads []float64
	for i := 0; i < uploadReps; i++ {
		d, err := ingestOnce(nil, "", 0, data, wl.format, o.workDir)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ms(d))
	}

	p50 := median(times)
	out.set("req_per_s", "1/s", float64(in.n)/p50)
	out.set("jobs_per_s", "1/s", 1/p50)
	out.set("job_p50_ms", "ms", p50*1e3)
	out.set("job_p90_ms", "ms", quantile(times, 0.9)*1e3)
	out.set("upload_p50_ms", "ms", median(uploads))
	out.set("peak_rss_mb", "MB", median(rss))
	out.set("setup_s", "s", median(setups))
	out.set("idle_total_acc", "frac", in.fid.idleTotalAcc)
	out.noteSpread(fmt.Sprintf("seconds per reconstruction of %d requests", in.n), times)
	out.noteSpread("peak RSS MB per reconstruction", rss)
	out.noteSpread("upload (corpus ingest) ms", uploads)
	out.noteSpread("setup seconds", setups)
	return out, nil
}

// addTo records the two fidelity figures that vary too much from
// seed to seed to bound as end-to-end metrics (on inferred inputs the
// fitted model's idle count swings widely); the traced run reports them.
func (f fidelity) addTo(s samples) {
	s.add("idle_count_acc", f.idleCountAcc)
	s.add("iat_ks", f.iatKS)
}

// ingestOnce ingests data into a fresh corpus store under dir and
// returns the corpus.Store.IngestAs latency, recorded as a span when
// tr is non-nil.
func ingestOnce(tr *tracer, iter string, parent int, data []byte, format, dir string) (time.Duration, error) {
	root, err := os.MkdirTemp(dir, "corpus-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(root)
	store, err := corpus.Open(root)
	if err != nil {
		return 0, err
	}
	sp := tr.start(iter, "corpus.ingest", parent)
	start := time.Now()
	_, _, err = store.IngestAs(bytes.NewReader(data), format, "bench")
	d := time.Since(start)
	tr.end(sp)
	return d, err
}

// tracedEngine is the per-layer run: untraced iterations first, as the
// tracing-overhead baseline, then traced iterations that time the
// engine through its Metrics hook and every other layer through its
// own public entry point.
func tracedEngine(o options, in *engineInput, out *outcome, outPath string) error {
	var base []float64
	for i := 0; i < minIters; i++ {
		d, _, err := reconstructFile(in, outPath, nil)
		if err == nil {
			err = verifyFile(out, outPath, in.digest, false)
		}
		if err != nil {
			return err
		}
		base = append(base, d.Seconds())
	}
	data, err := os.ReadFile(in.path)
	if err != nil {
		return err
	}
	p := &layerProbe{format: in.wl.format, data: data, old: in.old, ref: in.ref, refIdle: in.refIdle, factory: in.factory, dir: o.workDir}
	tr := newTracer()
	s := samples{}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for it := 0; it < minIters || time.Now().Before(deadline); it++ {
		iter := fmt.Sprintf("iter-%d", it)
		root := tr.start(iter, "iteration", 0)
		err := p.engineCall(tr, iter, root, s, func(m *obs.EngineMetrics) (*engine.Report, error) {
			_, rep, err := reconstructFile(in, outPath, m)
			return rep, err
		})
		if err == nil {
			err = verifyFile(out, outPath, in.digest, false)
		}
		if err == nil {
			err = p.layers(tr, iter, root, s)
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}
	out.spans = tr.snapshot()
	engineSelf := median(durations(selfByName(out.spans)["engine"], time.Second))
	s.add("bench.trace_overhead_frac", engineSelf/median(base)-1)
	in.fid.addTo(s)
	finishLayers(out, s, in.n, in.stats)
	return nil
}

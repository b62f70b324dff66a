package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// samples collects per-iteration values of per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// layerProbe times each layer on one input from outside, through the
// layer's public functions.
type layerProbe struct {
	format  string
	data    []byte       // the encoded input
	old     *trace.Trace // the decoded input
	ref     *trace.Trace // the reference output
	refIdle []time.Duration
	factory func() device.Device
	dir     string // scratch space for corpus stores
}

// engineCall runs one engine operation under an "engine" span with a
// fresh Metrics hook and records its stage times and memory traffic.
func (p *layerProbe) engineCall(tr *tracer, iter string, parent int, s samples, call func(*obs.EngineMetrics) (*engine.Report, error)) error {
	m := obs.NewEngineMetrics(obs.NewRegistry())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.start(iter, "engine", parent)
	rep, err := call(m)
	wall := tr.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	n := float64(p.old.Len())
	stages := m.StageSeconds()
	for stage, sec := range stages {
		s.add("engine."+stage+"_s", sec)
	}
	s.add("engine.serial_share", stages["service"]/wall.Seconds())
	if rep != nil {
		s.add("engine.shards", float64(rep.Shards))
	}
	s.add("engine.allocs_per_req", float64(after.Mallocs-before.Mallocs)/n)
	s.add("engine.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n)
	s.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	s.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	return nil
}

// layers times the codec, the model fit and decomposition, the
// sequential pipeline, the emulation loop, the bare device and corpus
// ingest on the probe's input, one span each.
func (p *layerProbe) layers(tr *tracer, iter string, parent int, s samples) error {
	sp := tr.start(iter, "trace.decode", parent)
	dec, err := trace.NewDecoder(p.format, bytes.NewReader(p.data))
	if err != nil {
		return err
	}
	buf := make([]trace.Request, 4096)
	for err == nil {
		_, err = trace.DecodeBatch(dec, buf)
	}
	tr.end(sp)
	if err != io.EOF {
		return err
	}

	var model *infer.Model
	if !p.old.TsdevKnown {
		sp = tr.start(iter, "infer.fit", parent)
		model, _, err = engine.FitModel(&sliceDecoder{t: p.old}, infer.EstimateOptions{})
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	sp = tr.start(iter, "infer.decompose", parent)
	infer.Decompose(model, p.old)
	tr.end(sp)

	sp = tr.start(iter, "core.reconstruct", parent)
	_, _, err = core.Reconstruct(p.old, p.factory(), core.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.start(iter, "replay.emulate", parent)
	replay.Emulate(p.old, p.factory(), p.refIdle)
	tr.end(sp)

	dev := p.factory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.start(iter, "device.submit", parent)
	for _, r := range p.old.Requests {
		dev.Submit(r.Arrival, r)
	}
	tr.end(sp)
	runtime.ReadMemStats(&after)
	s.add("device.submit_allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(p.old.Len()))

	sp = tr.start(iter, "trace.encode", parent)
	enc, err := trace.NewEncoder(p.format, io.Discard, "")
	if err == nil {
		err = trace.EncodeTrace(enc, p.ref)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	_, err = ingestOnce(tr, iter, parent, p.data, p.format, p.dir)
	return err
}

// sliceDecoder serves an in-memory trace as a decoder, so the model
// fit is timed without the codec.
type sliceDecoder struct {
	t *trace.Trace
	i int
}

func (d *sliceDecoder) Next() (trace.Request, error) {
	if d.i >= len(d.t.Requests) {
		return trace.Request{}, io.EOF
	}
	d.i++
	return d.t.Requests[d.i-1], nil
}

func (d *sliceDecoder) Meta() trace.Meta { return d.t.Meta() }

// ReadBatch hands out the rest of the trace in one batch
// (trace.BatchReader), so the fit reads it without copying.
func (d *sliceDecoder) ReadBatch() ([]trace.Request, error) {
	rest := d.t.Requests[d.i:]
	d.i = len(d.t.Requests)
	if len(rest) == 0 {
		return nil, io.EOF
	}
	return rest, nil
}

// perLayer lists every per-layer metric of the traced run with its
// unit and the end-to-end metric it should move, on which workload.
// BENCHMARK.json's per_layer list must match it (the self-test checks).
var perLayer = []struct{ name, unit, moves string }{
	{"trace.decode_ns_per_req", "ns", "req_per_s on fiu-infer-array (CSV parsed twice); negligible on msnfs-host"},
	{"trace.encode_ns_per_req", "ns", "req_per_s on fiu-infer-array (CSV rendered once); negligible on msnfs-host"},
	{"infer.fit_s", "s", "req_per_s on fiu-infer-array; 0 where latencies are recorded, so no change there"},
	{"infer.decompose_ns_per_req", "ns", "req_per_s on fiu-infer-array"},
	{"engine.plan_s", "s", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.decompose_s", "s", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.service_s", "s", "req_per_s on prxy-ftl and msnfs-host (the serial device pass)"},
	{"engine.emulate_s", "s", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.merge_s", "s", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.token_wait_s", "s", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.serial_share", "frac", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.shards", "count", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.wall_s", "s", "req_per_s and job_p50_ms on the engine workloads"},
	{"core.reconstruct_s", "s", "nothing: the sequential reference engine.over_core divides by"},
	{"engine.over_core", "ratio", "req_per_s on prxy-ftl and msnfs-host"},
	{"engine.allocs_per_req", "count", "req_per_s and peak_rss_mb on msnfs-host"},
	{"engine.alloc_bytes_per_req", "B", "req_per_s and peak_rss_mb on msnfs-host"},
	{"runtime.gc_cycles", "count", "req_per_s and peak_rss_mb on msnfs-host"},
	{"runtime.gc_pause_ms", "ms", "req_per_s and peak_rss_mb on msnfs-host"},
	{"replay.emulate_ns_per_req", "ns", "req_per_s on prxy-ftl and msnfs-host"},
	{"device.submit_ns_per_req", "ns", "req_per_s on prxy-ftl and msnfs-host; not on fiu-infer-array"},
	{"device.submit_allocs_per_req", "count", "req_per_s on prxy-ftl and msnfs-host; not on fiu-infer-array"},
	{"ftl.erases", "count", "nothing: a simulated count, identical under any speed-only change"},
	{"ftl.waf", "ratio", "nothing: a simulated count, identical under any speed-only change"},
	{"ftl.foreground_stall_us", "us", "nothing: a simulated count, identical under any speed-only change"},
	{"hoststack.hit_rate", "frac", "nothing: a simulated count, identical under any speed-only change"},
	{"hoststack.flushed_pages", "count", "nothing: a simulated count, identical under any speed-only change"},
	{"tracetrackerd.submit_ms", "ms", "job_p50_ms on daemon-corpus-mix"},
	{"tracetrackerd.queue_wait_ms", "ms", "job_p50_ms and job_p90_ms on daemon-corpus-mix"},
	{"tracetrackerd.run_hit_ms", "ms", "job_p50_ms on daemon-corpus-mix (cache hits)"},
	{"tracetrackerd.run_miss_ms", "ms", "job_p90_ms on daemon-corpus-mix (cache misses)"},
	{"tracetrackerd.result_ms", "ms", "job_p50_ms on daemon-corpus-mix"},
	{"tracetrackerd.polls_per_job", "count", "job_p50_ms on daemon-corpus-mix"},
	{"tracetrackerd.cache_hit_ratio", "frac", "jobs_per_s on daemon-corpus-mix"},
	{"corpus.ingest_ms", "ms", "upload_p50_ms on every workload"},
	{"idle_count_acc", "frac", "nothing: fidelity of the output, fixed by byte-identity to the reference"},
	{"iat_ks", "frac", "nothing: fidelity of the output, fixed by byte-identity to the reference"},
	{"bench.trace_overhead_frac", "frac", "nothing: the traced run's cost against the untraced run"},
	{"failed_frac", "frac", "nothing: must stay 0"},
}

// deviceCounters maps the per-layer device counters to the target's
// DeviceStats names.
var deviceCounters = map[string]string{
	"ftl.erases":              "erases",
	"ftl.waf":                 "waf",
	"ftl.foreground_stall_us": "foreground_stall_us",
	"hoststack.hit_rate":      "hit_rate",
	"hoststack.flushed_pages": "flushed_pages",
}

// finishLayers turns the traced run's spans and samples into the
// per-layer metrics: span-timed layers from their self times, the rest
// from the medians of their samples, device counters from the
// reference's DeviceStats. A metric the workload does not exercise
// reads 0.
func finishLayers(out *outcome, s samples, n int, devStats []device.Stat) {
	self := selfByName(out.spans)
	sec := func(span string) float64 { return median(durations(self[span], time.Second)) }
	perReqNS := func(span string) float64 { return sec(span) * 1e9 / float64(n) }
	s.add("trace.decode_ns_per_req", perReqNS("trace.decode"))
	s.add("trace.encode_ns_per_req", perReqNS("trace.encode"))
	s.add("infer.fit_s", sec("infer.fit"))
	s.add("infer.decompose_ns_per_req", perReqNS("infer.decompose"))
	s.add("engine.wall_s", sec("engine"))
	s.add("core.reconstruct_s", sec("core.reconstruct"))
	s.add("engine.over_core", sec("engine")/sec("core.reconstruct"))
	s.add("replay.emulate_ns_per_req", perReqNS("replay.emulate"))
	s.add("device.submit_ns_per_req", perReqNS("device.submit"))
	s.add("corpus.ingest_ms", sec("corpus.ingest")*1e3)
	for name, stat := range deviceCounters {
		for _, st := range devStats {
			if st.Name == stat {
				s.add(name, st.Value)
			}
		}
	}
	for _, m := range perLayer {
		out.set(m.name, m.unit, median(s[m.name]))
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// The daemon workload: tracetrackerd as a child process with a fresh
// corpus, driven by daemonClients closed-loop clients. One op in
// uploadEvery uploads a trace the daemon has not seen and runs a job on
// it (corpus write, result-cache miss, engine run on the array); the
// others resubmit one of the client's finished specs (a cache hit).
const (
	daemonProfile  = "Exchange"
	daemonRequests = 50_000
	daemonClients  = 2
	uploadEvery    = 4
	// pollInterval is short next to a cache-hit job (about 1 ms on the
	// server), so polling adds little to the measured latency.
	pollInterval = 500 * time.Microsecond
	// uploadRate bounds the uploads a run can make per measured second;
	// set-up generates that many fresh traces.
	uploadRate = 36
)

// uploadPool holds every trace the clients upload in a run. Holding
// hundreds of 50k-request traces (1.7 MB each) would cost more memory
// or disk than the daemon under test, so the pool keeps poolBases
// generated traces, each from its own generator seed, and derives
// upload i from base i%poolBases by shifting every LBA by
// 8*(i/poolBases) sectors. Every upload is a trace the daemon has not
// seen: a new corpus digest, a result-cache miss and an engine run on
// a request stream no other upload has.
type uploadPool struct {
	bases    []*trace.Trace
	digests  [][32]byte // per upload: SHA-256 of its engine.RunJob reference output
	requests int        // per upload
}

const poolBases = 8

// render encodes upload i into buf, using scratch as the shifted copy.
func (p *uploadPool) render(i int, scratch *trace.Trace, buf *bytes.Buffer) error {
	base := p.bases[i%len(p.bases)]
	*scratch = trace.Trace{Name: base.Name, Workload: base.Workload, Set: base.Set, TsdevKnown: base.TsdevKnown,
		Requests: append(scratch.Requests[:0], base.Requests...)}
	shift := uint64(8 * (i / len(p.bases)))
	for j := range scratch.Requests {
		scratch.Requests[j].LBA += shift
	}
	buf.Reset()
	enc, err := trace.NewEncoder("bin", buf, "")
	if err != nil {
		return err
	}
	return trace.EncodeTrace(enc, scratch)
}

// daemonSetup builds the pool of n uploads with their references:
// in-process engine.RunJob, with the spec the clients submit, on a file
// holding the upload's exact bytes. The references run on
// engineWorkers goroutines.
func daemonSetup(o options, dir string, n int) (*uploadPool, fidelity, error) {
	p := &uploadPool{digests: make([][32]byte, n)}
	var app0 *replay.App // the application behind upload 0, for the fidelity figures
	for i := 0; i < poolBases; i++ {
		app, tr, err := generate(daemonProfile, o.scaled(daemonRequests), o.seed+int64(i)*7919)
		if err != nil {
			return nil, fidelity{}, err
		}
		if i == 0 {
			app0 = app
		}
		p.bases = append(p.bases, tr)
		p.requests = tr.Len()
	}
	var fid fidelity
	errs := make([]error, engineWorkers)
	var wg sync.WaitGroup
	for g := 0; g < engineWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch trace.Trace
			var buf bytes.Buffer
			for i := g; i < n && errs[g] == nil; i += engineWorkers {
				res, err := referenceJob(p, i, filepath.Join(dir, fmt.Sprintf("ref-%d", g)), &scratch, &buf)
				if err != nil {
					errs[g] = err
					break
				}
				if i == 0 {
					fid = measureFidelity(app0, res.Report.IdleCount, res.Report.IdleTotal, res.Trace, arrayTarget())
				}
				var out []byte
				out, errs[g] = encodeTrace("bin", res.Trace)
				p.digests[i] = sha256.Sum256(out)
			}
		}()
	}
	wg.Wait()
	return p, fid, errors.Join(errs...)
}

// referenceJob runs engine.RunJob on upload i, written to a file under
// dir.
func referenceJob(p *uploadPool, i int, dir string, scratch *trace.Trace, buf *bytes.Buffer) (*engine.JobResult, error) {
	if err := p.render(i, scratch, buf); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "upload.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(path)
	return engine.RunJob(engine.Config{Workers: engineWorkers}, daemonSpec(path))
}

// daemonSpec is the job every client submits, with in naming the
// input: a corpus reference for the daemon, a file in process.
func daemonSpec(in string) engine.JobSpec {
	return engine.JobSpec{In: in, InFormat: "bin", OutFormat: "bin"}
}

func arrayTarget() device.Device { return device.NewArray(device.DefaultArrayConfig()) }

// daemonProc is a running tracetrackerd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done
}

// startDaemon launches the daemon on a free loopback port with a fresh
// data directory and waits until /healthz answers.
func startDaemon(bin, dir string) (*daemonProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data", filepath.Join(dir, "data"),
		"-jobs", strconv.Itoa(daemonClients), "-parallel", strconv.Itoa(engineWorkers),
		"-log-level", "warn", "-drain", "5s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("tracetrackerd exited during start-up: %v (see %s)", d.err, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("tracetrackerd did not answer /healthz within 30s")
		}
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// jobStatus is the part of the daemon's job JSON the clients read.
type jobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Error     string     `json:"error"`
	Cached    bool       `json:"cached"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// jobRecord is one completed job as a client observed it.
type jobRecord struct {
	latency time.Duration // submit until the result is downloaded
	polls   int
	status  jobStatus
}

// upload is a blob the daemon holds, by its corpus digest.
type upload struct {
	blob   int
	corpus string
}

// daemonClient is one closed-loop client.
type daemonClient struct {
	id       int
	http     *http.Client
	base     string
	rng      *rand.Rand
	pool     *uploadPool
	next     *atomic.Int64 // index of the next fresh upload, shared by the clients
	scratch  trace.Trace   // the upload being rendered
	buf      bytes.Buffer  // its encoding
	result   bytes.Buffer  // the last downloaded result
	tr       *tracer
	finished []upload // this client's uploads with a finished job
	corrupt  bool     // corrupt the next downloaded result
	seq      int      // ops run so far, for span names

	// What the client saw since the last measureDaemon reset.
	ops, failed int
	uploads     []time.Duration
	jobs        []jobRecord
	reqs        int64
}

var errPoolEmpty = errors.New("upload pool exhausted")

// op runs the client's k-th operation of a window: an upload plus a
// job on the new trace, or a resubmission of a finished spec. Failures
// are counted, not returned; the error is errPoolEmpty when no fresh
// trace is left.
func (c *daemonClient) op(k int) error {
	c.seq++
	iter := fmt.Sprintf("c%d-op%d", c.id, c.seq)
	fresh := k%uploadEvery == 0 || len(c.finished) == 0
	var up upload
	if fresh {
		up.blob = int(c.next.Add(1) - 1)
		if up.blob >= len(c.pool.digests) {
			return errPoolEmpty
		}
		if err := c.pool.render(up.blob, &c.scratch, &c.buf); err != nil {
			return err
		}
		sp := c.tr.start(iter, "tracetrackerd.upload", 0)
		start := time.Now()
		d, err := c.post(c.buf.Bytes())
		lat := time.Since(start)
		c.tr.end(sp)
		if err != nil {
			c.fail(err)
			return nil
		}
		c.uploads = append(c.uploads, lat)
		up.corpus = d
	} else {
		up = c.finished[c.rng.Intn(len(c.finished))]
	}
	rec, body, err := c.job(iter, up.corpus)
	if err != nil {
		c.fail(err)
		return nil
	}
	if c.corrupt && len(body) > 0 {
		body[len(body)/2] ^= 0xff
		c.corrupt = false
	}
	c.ops++
	if sha256.Sum256(body) != c.pool.digests[up.blob] {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: result of %s differs from the engine.RunJob reference\n", rec.status.ID)
		return nil
	}
	c.jobs = append(c.jobs, rec)
	c.reqs += int64(c.pool.requests)
	if fresh {
		c.finished = append(c.finished, up)
	}
	return nil
}

func (c *daemonClient) fail(err error) {
	c.ops++
	c.failed++
	fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", c.id, err)
}

// post uploads a trace to the corpus and returns its digest.
func (c *daemonClient) post(data []byte) (string, error) {
	resp, err := c.http.Post(c.base+"/v1/corpus", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	var body struct {
		Entry struct {
			Digest string `json:"digest"`
		} `json:"entry"`
	}
	if err := decodeResponse(resp, &body); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	return body.Entry.Digest, nil
}

// job submits a job on a corpus trace, polls until it finishes and
// downloads its result.
func (c *daemonClient) job(iter, digest string) (jobRecord, []byte, error) {
	var rec jobRecord
	spec, _ := json.Marshal(daemonSpec("corpus:" + digest)) // plain data: cannot fail
	root := c.tr.start(iter, "job", 0)
	defer c.tr.end(root)
	start := time.Now()

	sp := c.tr.start(iter, "tracetrackerd.submit", root)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	var sub struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = decodeResponse(resp, &sub)
	}
	c.tr.end(sp)
	if err != nil {
		return rec, nil, fmt.Errorf("submit: %w", err)
	}

	for {
		time.Sleep(pollInterval)
		rec.polls++
		sp = c.tr.start(iter, "tracetrackerd.poll", root)
		resp, err := c.http.Get(c.base + "/v1/jobs/" + sub.ID)
		if err == nil {
			err = decodeResponse(resp, &rec.status)
		}
		c.tr.end(sp)
		if err != nil {
			return rec, nil, fmt.Errorf("poll %s: %w", sub.ID, err)
		}
		if rec.status.State == "failed" {
			return rec, nil, fmt.Errorf("job %s failed: %s", sub.ID, rec.status.Error)
		}
		if rec.status.State == "done" {
			break
		}
	}

	sp = c.tr.start(iter, "tracetrackerd.result", root)
	resp, err = c.http.Get(c.base + "/v1/jobs/" + sub.ID + "/result")
	var body []byte
	if err == nil {
		body, err = readResponseInto(resp, &c.result)
	}
	c.tr.end(sp)
	rec.latency = time.Since(start)
	if err != nil {
		return rec, nil, fmt.Errorf("result %s: %w", sub.ID, err)
	}
	return rec, body, nil
}

// readResponseInto reads a 2xx response's body into buf, which is
// reused across calls, and returns it; any other status is an error.
func readResponseInto(resp *http.Response, buf *bytes.Buffer) ([]byte, error) {
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

func decodeResponse(resp *http.Response, v any) error {
	var buf bytes.Buffer
	b, err := readResponseInto(resp, &buf)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func runDaemon(o options) (*outcome, error) {
	// A smaller input makes every operation cheaper, hence more of them.
	uploads := int(math.Ceil(o.seconds*uploadRate/o.scale)) + daemonClients
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var pool *uploadPool
	var fid fidelity
	var setups []float64
	var d *daemonProc
	for i := 0; i < reps; i++ {
		if d != nil {
			// Only the last set-up's pool and daemon are kept.
			d.stop()
			if err := os.RemoveAll(filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		next, f, err := daemonSetup(o, dir, uploads)
		if err == nil {
			d, err = startDaemon(o.daemonBin, dir)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if pool != nil && !slices.Equal(pool.digests, next.digests) {
			d.stop()
			return nil, fmt.Errorf("setup: the reference outputs differ between two set-ups of seed %d", o.seed)
		}
		pool, fid = next, f
	}
	defer d.stop()

	out := &outcome{}
	var nextUpload atomic.Int64
	clients := make([]*daemonClient, daemonClients)
	for i := range clients {
		clients[i] = &daemonClient{
			id:   i,
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute},
			base: d.base, rng: rand.New(rand.NewSource(o.seed*31 + int64(i))),
			pool: pool, next: &nextUpload,
		}
	}
	// Warm-up, untimed: every client uploads one trace and resubmits it,
	// so the measured loop starts with cache hits available.
	if err := drive(clients, 2, 0); err != nil {
		return nil, err
	}
	clients[0].corrupt = o.corrupt

	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		m, err := measureDaemon(clients, window, out)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		out.set("req_per_s", "1/s", m.reqPerS)
		out.set("jobs_per_s", "1/s", m.jobsPerS)
		out.set("job_p50_ms", "ms", quantile(m.latMS, 0.5))
		out.set("job_p90_ms", "ms", quantile(m.latMS, 0.9))
		out.set("upload_p50_ms", "ms", median(m.uploadMS))
		out.set("peak_rss_mb", "MB", rss)
		out.set("setup_s", "s", median(setups))
		out.set("idle_total_acc", "frac", fid.idleTotalAcc)
		out.noteSpread(fmt.Sprintf("job ms (%d jobs in %.2fs)", len(m.latMS), m.elapsed.Seconds()), m.latMS)
		out.noteSpread("upload ms", m.uploadMS)
		out.noteSpread("setup seconds", setups)
		return out, nil
	}
	return out, tracedDaemon(o, d, clients, window, pool, fid, out)
}

// daemonWindow is what one measured window of the client loop saw.
type daemonWindow struct {
	elapsed           time.Duration
	reqPerS, jobsPerS float64
	latMS, uploadMS   []float64
	jobs              []jobRecord
}

// drive runs every client for ops operations each (ops > 0) or until
// the deadline passes (ops == 0), concurrently, and returns when all
// have stopped.
func drive(clients []*daemonClient, ops int, window time.Duration) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ops == 0 || k < ops; k++ {
				if ops == 0 && time.Since(start) >= window {
					return
				}
				if err := c.op(k); err != nil {
					if ops == 0 && errors.Is(err, errPoolEmpty) {
						fmt.Fprintf(os.Stderr, "perfbench: client %d used up the upload pool before the window ended\n", c.id)
						return
					}
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// measureDaemon runs the clients for one window and folds their
// records into out's counts.
func measureDaemon(clients []*daemonClient, window time.Duration, out *outcome) (daemonWindow, error) {
	for _, c := range clients {
		c.jobs, c.uploads, c.reqs = nil, nil, 0
	}
	start := time.Now()
	err := drive(clients, 0, window)
	w := daemonWindow{elapsed: time.Since(start)}
	var reqs int64
	for _, c := range clients {
		for _, j := range c.jobs {
			w.latMS = append(w.latMS, ms(j.latency))
		}
		for _, u := range c.uploads {
			w.uploadMS = append(w.uploadMS, ms(u))
		}
		w.jobs = append(w.jobs, c.jobs...)
		reqs += c.reqs
	}
	w.reqPerS = float64(reqs) / w.elapsed.Seconds()
	w.jobsPerS = float64(len(w.latMS)) / w.elapsed.Seconds()
	for _, c := range clients {
		out.attempted += c.ops
		out.failed += c.failed
		c.ops, c.failed = 0, 0
	}
	if len(w.latMS) == 0 {
		return w, errors.New("no job completed in the window")
	}
	return w, err
}

// tracedDaemon is the daemon's per-layer run: half the window
// untraced, as the tracing-overhead baseline, half with every client
// call under a span; then the in-process layer probes on one upload,
// with the engine called as the daemon calls it on a cache miss.
func tracedDaemon(o options, d *daemonProc, clients []*daemonClient, window time.Duration, pool *uploadPool, fid fidelity, out *outcome) error {
	base, err := measureDaemon(clients, window/2, out)
	if err != nil {
		return err
	}
	tr := newTracer()
	for _, c := range clients {
		c.tr = tr
	}
	traced, err := measureDaemon(clients, window/2, out)
	if err != nil {
		return err
	}
	var health struct {
		Executed  float64 `json:"executed"`
		CacheHits float64 `json:"cache_hits"`
	}
	resp, err := clients[0].http.Get(d.base + "/healthz")
	if err == nil {
		err = decodeResponse(resp, &health)
	}
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	s := samples{}
	var polls []float64
	for _, j := range traced.jobs {
		st := j.status
		polls = append(polls, float64(j.polls))
		if st.Started == nil || st.Finished == nil {
			continue
		}
		s.add("tracetrackerd.queue_wait_ms", ms(st.Started.Sub(st.Submitted)))
		if run := ms(st.Finished.Sub(*st.Started)); st.Cached {
			s.add("tracetrackerd.run_hit_ms", run)
		} else {
			s.add("tracetrackerd.run_miss_ms", run)
		}
	}
	s.add("tracetrackerd.polls_per_job", mean(polls))
	s.add("tracetrackerd.cache_hit_ratio", health.CacheHits/(health.CacheHits+health.Executed))
	s.add("bench.trace_overhead_frac", base.jobsPerS/traced.jobsPerS-1)
	fid.addTo(s)

	var buf bytes.Buffer
	if err := pool.render(0, &trace.Trace{}, &buf); err != nil {
		return err
	}
	path := filepath.Join(o.workDir, "probe.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	old, err := readTraceFile(path, "bin")
	if err != nil {
		return err
	}
	ref, rep, err := core.Reconstruct(old, arrayTarget(), core.Options{})
	if err != nil {
		return err
	}
	p := &layerProbe{format: "bin", data: buf.Bytes(), old: old, ref: ref, refIdle: rep.Idle, factory: arrayTarget, dir: o.workDir}
	for it := 0; it < minIters; it++ {
		iter := fmt.Sprintf("probe-%d", it)
		root := tr.start(iter, "iteration", 0)
		var res *engine.JobResult
		err := p.engineCall(tr, iter, root, s, func(m *obs.EngineMetrics) (*engine.Report, error) {
			var err error
			res, err = engine.RunJob(engine.Config{Workers: engineWorkers, Metrics: m}, daemonSpec(path))
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		})
		if err == nil {
			var enc []byte
			if enc, err = encodeTrace("bin", res.Trace); err == nil {
				out.check(sha256.Sum256(enc), pool.digests[0])
			}
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
	self := selfByName(out.spans)
	s.add("tracetrackerd.submit_ms", median(durations(self["tracetrackerd.submit"], time.Millisecond)))
	s.add("tracetrackerd.result_ms", median(durations(self["tracetrackerd.result"], time.Millisecond)))
	finishLayers(out, s, pool.requests, nil)
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/geom"
	"repro/internal/query"
)

// options are the knobs of one run; the workload's sizes are not among
// them.
type options struct {
	seed    int64
	seconds float64 // measured window (ingest-mixed: script length, see ingestBatches)
	outDir  string
	smoke   bool
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warmUp is a fifth of the window: caches fill and the HTTP connections
// open before anything is timed.
func (o options) warmUp() time.Duration { return o.window() / 5 }

// setUps is how often a run sets the system up; setup_s is the median.
func (o options) setUps() int {
	if o.smoke {
		return 1
	}
	return 3
}

func (o options) ingestBatches() int {
	return max(4, int(o.seconds*ingestBatchesPerS))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload produced, in the shape the
// result files store; driverLine gives the driver's one-line form.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of observations behind a metric, where it
	// is a statistic of a sample.
	Samples map[string]int `json:"samples"`
	// Notes carry what a reader of the numbers must know: which tail
	// percentile a thin sample supported, the analytic cross-check.
	Notes []string `json:"notes,omitempty"`
}

func newResult(w workload, traced bool) *runResult {
	return &runResult{
		Workload: w.name, Traced: traced,
		Metrics: map[string]metric{}, Samples: map[string]int{},
	}
}

func (r *runResult) failedOpsPct() float64 {
	return 100 * float64(r.Failed) / float64(max(1, r.Attempted))
}

func (r *runResult) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *runResult) setN(name string, value float64, unit string, n int) {
	r.set(name, value, unit)
	r.Samples[name] = n
}

func (r *runResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setLatency reports a latency sample under the names p50 and p99,
// noting the percentile actually used when the sample is thin.
func (r *runResult) setLatency(p50, p99 string, unit string, xs []float64) {
	s := summarizeLatency(xs)
	r.setN(p50, s.P50, unit, s.N)
	r.setN(p99, s.Tail, unit, s.N)
	if s.TailP != 99 {
		r.notef("%s is p%.0f: %d samples leave fewer than ten beyond p99", p99, s.TailP, s.N)
	}
}

// withFailures adds a failed or refused request to a latency sample as
// its slowest value, once per failure. us must not be empty.
func withFailures(us []float64, failed int) []float64 {
	slowest := slices.Max(us)
	for i := 0; i < failed; i++ {
		us = append(us, slowest)
	}
	return us
}

// neighbor is one answer in the form all paths can be compared in; the
// JSON tags are the HTTP service's.
type neighbor struct {
	Object int64   `json:"object"`
	DistSq float64 `json:"distsq"`
}

func fromQuery(ns []query.Neighbor) []neighbor {
	out := make([]neighbor, len(ns))
	for i, n := range ns {
		out[i] = neighbor{Object: int64(n.Object), DistSq: n.DistSq}
	}
	return out
}

// sameAnswer compares bit for bit: object ids and the float bits of the
// squared distances.
func sameAnswer(got, want []neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Object != want[i].Object ||
			math.Float64bits(got[i].DistSq) != math.Float64bits(want[i].DistSq) {
			return false
		}
	}
	return true
}

// truth answers a query by linear scan. ids maps a point's index to its
// object id (nil: the index is the id).
func truth(pts []geom.Point, ids []int, q geom.Point) []neighbor {
	rs := bruteforce.KNN(pts, q, knnK)
	out := make([]neighbor, len(rs))
	for i, r := range rs {
		id := r.Index
		if ids != nil {
			id = ids[r.Index]
		}
		out[i] = neighbor{Object: int64(id), DistSq: r.DistSq}
	}
	return out
}

// reply is one kept answer of a read workload: the engine's neighbors,
// or the HTTP body still to be parsed.
type reply struct {
	query int
	ns    []query.Neighbor
	body  []byte
}

func (r reply) neighbors() ([]neighbor, error) {
	if r.body == nil {
		return fromQuery(r.ns), nil
	}
	var resp struct {
		Neighbors []neighbor `json:"neighbors"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// countWrong checks kept replies against brute force (each distinct
// query scanned once) and returns how many differ.
func countWrong(in inputs, kept []reply) int {
	memo := map[int][]neighbor{}
	wrong := 0
	for _, r := range kept {
		want, ok := memo[r.query]
		if !ok {
			want = truth(in.points, nil, in.queries[r.query])
			memo[r.query] = want
		}
		if got, err := r.neighbors(); err != nil || !sameAnswer(got, want) {
			wrong++
		}
	}
	return wrong
}

// caller sends query qi and waits for its answer. keep asks for the
// answer itself; otherwise only success matters.
type caller func(ctx context.Context, qi int, keep bool) (reply, error)

func engineCaller(s *system, alg query.Algorithm) caller {
	return func(ctx context.Context, qi int, _ bool) (reply, error) {
		ns, _, err := s.engine.KNN(ctx, alg, s.in.queries[qi], knnK, query.Options{})
		return reply{query: qi, ns: ns}, err
	}
}

// httpCaller posts pre-encoded bodies over one keep-alive connection
// per client goroutine (the transport pools them per host).
type httpCaller struct {
	url    string
	client *http.Client
	bodies [][]byte
	// respBytes and shed feed server.resp_bytes and server.shed_pct in
	// the traced run, which has one client and so needs no lock.
	respBytes []float64
	shed      int
}

func newHTTPCaller(addr string, queries []geom.Point) (*httpCaller, error) {
	h := &httpCaller{
		url:    "http://" + addr + "/v1/knn",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	for _, q := range queries {
		b, err := json.Marshal(map[string]any{"point": q, "k": knnK, "algorithm": algorithm})
		if err != nil {
			return nil, err
		}
		h.bodies = append(h.bodies, b)
	}
	return h, nil
}

func (h *httpCaller) close() { h.client.CloseIdleConnections() }

// post sends one request; buf is the calling goroutine's reusable body
// buffer.
func (h *httpCaller) post(ctx context.Context, qi int, buf *bytes.Buffer) (status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(h.bodies[qi]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// caller returns one client goroutine's caller (it owns a buffer).
func (h *httpCaller) caller(record bool) caller {
	var buf bytes.Buffer
	return func(ctx context.Context, qi int, keep bool) (reply, error) {
		status, err := h.post(ctx, qi, &buf)
		if err != nil {
			return reply{}, err
		}
		if record {
			h.respBytes = append(h.respBytes, float64(buf.Len()))
			if status == http.StatusTooManyRequests {
				h.shed++
			}
		}
		if status != http.StatusOK {
			return reply{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
		}
		r := reply{query: qi}
		if keep {
			r.body = append([]byte{}, buf.Bytes()...)
		}
		return r, nil
	}
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	lat      []time.Duration // per successful request
	kept     []reply
	failed   int
	firstErr error
}

// drive is one closed-loop client: it sends queries c, c+clients, ...
// (wrapping) until the deadline, each when the previous reply arrived.
func drive(ctx context.Context, call caller, c, numQueries int, deadline time.Time, log *clientLog) {
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(deadline) || ctx.Err() != nil {
			return
		}
		qi := (c + i*clients) % numQueries
		keep := i%verifyEvery == 0
		r, err := call(ctx, qi, keep)
		if err != nil {
			log.failed++
			if log.firstErr == nil {
				log.firstErr = err
			}
			continue
		}
		log.lat = append(log.lat, time.Since(start))
		if keep {
			log.kept = append(log.kept, r)
		}
	}
}

// newLogs makes the clients' logs with room for 20k requests a second
// each, so appends inside a window do not reallocate.
func newLogs(d time.Duration) []*clientLog {
	logs := make([]*clientLog, clients)
	for c := range logs {
		logs[c] = &clientLog{lat: make([]time.Duration, 0, int(d.Seconds()*20e3)+1)}
	}
	return logs
}

// window runs one closed-loop client per log for d and returns the wall
// time until the last one finished.
func window(ctx context.Context, newCaller func() caller, numQueries int, d time.Duration, logs []*clientLog) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range logs {
		call := newCaller()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			drive(ctx, call, c, numQueries, deadline, logs[c])
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// timedSetUp sets the workload up opt.setUps() times, closing all but
// the last, and returns that one with every set-up's duration. Input
// generation is part of set-up.
func timedSetUp(w workload, opt options) (*system, []time.Duration, error) {
	var sys *system
	var times []time.Duration
	for i := 0; i < opt.setUps(); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		in, err := newInputs(w, opt.seed, opt.ingestBatches())
		if err != nil {
			return nil, nil, err
		}
		sys, err = setUp(w, in, opt.outDir, nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
	}
	return sys, times, nil
}

// liveHeapMB is what the built, idle system costs: the bytes still
// allocated after a forced collection. (HeapInuse, which also counts
// the free room in partly used spans, wandered 4% between identical
// runs; the live bytes repeat.)
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runUntraced measures a workload's end-to-end metrics, tracing off.
func runUntraced(ctx context.Context, w workload, opt options) (*runResult, error) {
	sys, setUps, err := timedSetUp(w, opt)
	if err != nil {
		return nil, err
	}
	res := newResult(w, false)
	res.setN("setup_s", median(secondsOf(setUps)), "s", len(setUps))
	res.set("heap_mb", liveHeapMB(), "MB")
	if w.ingest {
		err = measureIngest(sys, res)
	} else {
		err = measureReads(ctx, sys, opt, res)
	}
	if err := errors.Join(err, sys.close()); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// measureReads runs the warm-up and the measured window of a read
// workload and fills in its end-to-end metrics.
func measureReads(ctx context.Context, sys *system, opt options, res *runResult) error {
	alg, err := query.AlgorithmByName(algorithm)
	if err != nil {
		return err
	}
	newCaller := func() caller { return engineCaller(sys, alg) }
	if sys.w.http {
		h, err := newHTTPCaller(sys.srv.Addr().String(), sys.in.queries)
		if err != nil {
			return err
		}
		defer h.close()
		newCaller = func() caller { return h.caller(false) }
	}
	nq := len(sys.in.queries)
	window(ctx, newCaller, nq, opt.warmUp(), newLogs(opt.warmUp()))

	logs := newLogs(opt.window())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed := window(ctx, newCaller, nq, opt.window(), logs)
	runtime.ReadMemStats(&after)

	var lat []time.Duration
	var kept []reply
	failed := 0
	for _, l := range logs {
		lat = append(lat, l.lat...)
		kept = append(kept, l.kept...)
		failed += l.failed
		if l.firstErr != nil {
			res.notef("first error of a client: %v", l.firstErr)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("%s: no request succeeded in the window", sys.w.name)
	}
	wrong := countWrong(sys.in, kept)
	res.Attempted = len(lat) + failed
	res.Failed = failed + wrong
	res.notef("%d of %d replies checked against brute force, %d wrong", len(kept), len(lat), wrong)

	ops := float64(res.Attempted)
	res.setN("queries_per_s", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
	res.setLatency("query_p50_us", "query_p99_us", "us", withFailures(durationsToMicros(lat), failed))
	res.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "1/op")
	res.set("bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops, "B/op")
	return nil
}

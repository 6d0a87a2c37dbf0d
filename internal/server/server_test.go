package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/query"
)

func buildTree(t testing.TB, n, numDisks int) (*parallel.Tree, []geom.Point) {
	t.Helper()
	pts := dataset.CaliforniaLike(n, 7)
	tree, err := parallel.New(parallel.Config{
		Dim:       2,
		NumDisks:  numDisks,
		Cylinders: disk.HPC2200A().Cylinders,
		Policy:    decluster.ProximityIndex{},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BuildPoints(pts); err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

// postKNN sends one query and decodes the response, reporting the HTTP
// status alongside.
func postKNN(t *testing.T, client *http.Client, url, tenant string, req knnRequest) (int, knnResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set("X-API-Key", tenant)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out knnResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out, resp.Header.Get("Retry-After")
}

// sameAsDriver fails unless the HTTP response is bit-identical to the
// driver's result list: same order, same object ids, same float64
// squared distances after the JSON round trip.
func sameAsDriver(t *testing.T, label string, got []knnNeighbor, want []query.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Object != int64(want[i].Object) || got[i].DistSq != want[i].DistSq {
			t.Fatalf("%s result %d: (%d, %g) vs driver (%d, %g)",
				label, i, got[i].Object, got[i].DistSq, want[i].Object, want[i].DistSq)
		}
	}
}

// TestServerMatchesDriver is the tentpole correctness gate: N
// concurrent HTTP clients hammering a real engine must all receive
// results bit-identical to the sequential in-process query.Driver —
// the network, JSON, and coalescing layers may not perturb a single
// bit of the similarity results.
func TestServerMatchesDriver(t *testing.T) {
	tree, pts := buildTree(t, 1500, 4)
	queries := dataset.SampleQueries(pts, 6, 3)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 8, query.Options{})
	}

	eng, err := exec.New(tree, exec.Config{CoalesceFetches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng, SLOTarget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i, q := range queries {
				status, resp, _ := postKNN(t, client, url, fmt.Sprintf("tenant-%d", c%2),
					knnRequest{Point: q, K: 8, Algorithm: "crss", Trace: i == 0})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("client %d query %d: status %d", c, i, status)
					return
				}
				if len(resp.Neighbors) != len(want[i]) {
					errs <- fmt.Sprintf("client %d query %d: %d results, want %d",
						c, i, len(resp.Neighbors), len(want[i]))
					return
				}
				for j := range resp.Neighbors {
					if resp.Neighbors[j].Object != int64(want[i][j].Object) ||
						resp.Neighbors[j].DistSq != want[i][j].DistSq {
						errs <- fmt.Sprintf("client %d query %d result %d: (%d, %g) vs driver (%d, %g)",
							c, i, j, resp.Neighbors[j].Object, resp.Neighbors[j].DistSq,
							want[i][j].Object, want[i][j].DistSq)
						return
					}
				}
				if i == 0 && len(resp.Trace) == 0 {
					errs <- fmt.Sprintf("client %d: trace requested but empty", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	// The per-tenant registry saw both tenants and no failures.
	snaps := srv.Tenants().Snapshot()
	var served uint64
	for _, ts := range snaps {
		served += ts.Served
		if ts.Errored != 0 || ts.QuotaRejected != 0 || ts.LoadShed != 0 {
			t.Fatalf("unexpected failures in tenant snapshot: %+v", ts)
		}
	}
	if served != clients*uint64(len(queries)) {
		t.Fatalf("served = %d, want %d", served, clients*len(queries))
	}
}

// fakeBackend scripts the Backend surface for admission tests.
type fakeBackend struct {
	depth   atomic.Int64  // reported on every disk
	calls   atomic.Int64  // KNN invocations
	entered chan struct{} // closed once KNN is entered (when non-nil)
	release chan struct{} // KNN blocks until closed (when non-nil)
}

func (f *fakeBackend) KNN(ctx context.Context, alg query.Algorithm, q geom.Point, k int, opts query.Options) ([]query.Neighbor, *query.Stats, error) {
	f.calls.Add(1)
	if f.entered != nil {
		select {
		case <-f.entered:
		default:
			close(f.entered)
		}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return []query.Neighbor{{Object: 42, DistSq: 1.5}}, &query.Stats{}, nil
}

func (f *fakeBackend) QueueDepths() []int64 {
	d := f.depth.Load()
	return []int64{d, d}
}

// TestServerShedsLoad verifies admission control against a scripted
// saturated store: queue depths at the watermark shed with 429 +
// Retry-After and never reach the backend; once the depths recede the
// same request is admitted.
func TestServerShedsLoad(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Config{Backend: fb, QueueWatermark: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())
	client := &http.Client{}
	req := knnRequest{Point: []float64{0.5, 0.5}, K: 1}

	fb.depth.Store(8) // at the watermark: shed
	status, _, retry := postKNN(t, client, url, "alice", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", status)
	}
	if retry != "1" {
		t.Fatalf("saturated: Retry-After %q, want \"1\"", retry)
	}
	if fb.calls.Load() != 0 {
		t.Fatal("shed request reached the backend")
	}

	fb.depth.Store(7) // below the watermark: admitted
	status, resp, _ := postKNN(t, client, url, "alice", req)
	if status != http.StatusOK {
		t.Fatalf("recovered: status %d, want 200", status)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].Object != 42 {
		t.Fatalf("recovered: bad body %+v", resp)
	}
	snap := srv.Tenants().Snapshot()["alice"]
	if snap.LoadShed != 1 || snap.Served != 1 {
		t.Fatalf("alice snapshot = %+v, want 1 shed + 1 served", snap)
	}
}

// TestServerQuotaPerTenant verifies tenant isolation: one tenant
// burning through its token bucket gets 429s with a refill hint while
// another tenant sails through, and the exhausted tenant recovers once
// the (scripted) clock refills its bucket.
func TestServerQuotaPerTenant(t *testing.T) {
	fb := &fakeBackend{}
	var clock atomic.Int64 // nanos; scripted time
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	srv, err := New(Config{Backend: fb, QuotaRate: 1, QuotaBurst: 3, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())
	client := &http.Client{}
	req := knnRequest{Point: []float64{0.5, 0.5}, K: 1}

	// Alice burns her burst of 3...
	for i := 0; i < 3; i++ {
		if status, _, _ := postKNN(t, client, url, "alice", req); status != http.StatusOK {
			t.Fatalf("alice request %d: status %d, want 200", i, status)
		}
	}
	// ...and the fourth is rejected with a refill hint.
	status, _, retry := postKNN(t, client, url, "alice", req)
	if status != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, want 429", status)
	}
	if retry == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	// Bob is a different bucket: unaffected.
	if status, _, _ := postKNN(t, client, url, "bob", req); status != http.StatusOK {
		t.Fatalf("bob: status %d, want 200", status)
	}
	// Two scripted seconds refill two of alice's tokens.
	clock.Add(2 * int64(time.Second))
	for i := 0; i < 2; i++ {
		if status, _, _ := postKNN(t, client, url, "alice", req); status != http.StatusOK {
			t.Fatalf("alice after refill %d: status %d, want 200", i, status)
		}
	}
	if status, _, _ := postKNN(t, client, url, "alice", req); status != http.StatusTooManyRequests {
		t.Fatalf("alice third after refill: status %d, want 429", status)
	}
	snap := srv.Tenants().Snapshot()
	if a := snap["alice"]; a.Served != 5 || a.QuotaRejected != 2 {
		t.Fatalf("alice snapshot = %+v, want 5 served + 2 rejected", a)
	}
	if b := snap["bob"]; b.Served != 1 || b.QuotaRejected != 0 {
		t.Fatalf("bob snapshot = %+v, want 1 served + 0 rejected", b)
	}
}

// TestQuotaClockNeverRunsBackward: a request whose clock reading is
// older than the bucket's last refill (it read the clock first but
// reached the lock second) must not move the refill time back, or the
// next request is credited the same interval twice.
func TestQuotaClockNeverRunsBackward(t *testing.T) {
	var now time.Time
	q := newTenantTable(1, 1, func() time.Time { return now })
	for i, step := range []struct {
		at    time.Duration
		admit bool
	}{
		{10 * time.Second, true},  // spends the burst
		{5 * time.Second, false},  // an earlier reading, late to the lock
		{10 * time.Second, false}, // no time has passed since the first
	} {
		now = time.Unix(0, 0).Add(step.at)
		if _, ok, _ := q.admit("alice"); ok != step.admit {
			t.Fatalf("request %d at t=%v: admitted %v, want %v", i, step.at, ok, step.admit)
		}
	}
}

// TestServerGracefulShutdown verifies the drain: Shutdown must not
// return while a query is still in flight, the in-flight query must
// complete with its full 200 response, and new connections are
// refused.
func TestServerGracefulShutdown(t *testing.T) {
	fb := &fakeBackend{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv, err := New(Config{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())

	type result struct {
		status int
		resp   knnResponse
	}
	inflight := make(chan result, 1)
	go func() {
		status, resp, _ := postKNN(t, &http.Client{}, url, "alice",
			knnRequest{Point: []float64{0.5, 0.5}, K: 1})
		inflight <- result{status, resp}
	}()
	<-fb.entered // the query is inside the backend

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight query.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(fb.release)
	select {
	case r := <-inflight:
		if r.status != http.StatusOK {
			t.Fatalf("drained query: status %d, want 200", r.status)
		}
		if len(r.resp.Neighbors) != 1 || r.resp.Neighbors[0].Object != 42 {
			t.Fatalf("drained query: bad body %+v", r.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query never completed")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown reported %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned after the drain")
	}
	if _, err := (&http.Client{Timeout: time.Second}).Post(url, "application/json", bytes.NewReader([]byte("{}"))); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestServerSaturationSheds is the acceptance scenario on a real
// engine: every drive spiked so the array genuinely saturates, a tight
// watermark, and a storm of concurrent clients. Load shedding must
// engage (some 429s) while every admitted query still returns results
// bit-identical to the sequential driver.
func TestServerSaturationSheds(t *testing.T) {
	tree, pts := buildTree(t, 1500, 4)
	queries := dataset.SampleQueries(pts, 4, 5)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 8, query.Options{})
	}

	inj := fault.NewInjector(7)
	for d := 0; d < 4; d++ {
		inj.Set(d, fault.Faults{SpikeProb: 1, SpikeDelay: time.Millisecond})
	}
	eng, err := exec.New(tree, exec.Config{CoalesceFetches: true, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng, QueueWatermark: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())

	// The idle array admits the first query: queue depths are zero.
	status, resp, _ := postKNN(t, &http.Client{}, url, "warm", knnRequest{Point: queries[0], K: 8})
	if status != http.StatusOK {
		t.Fatalf("idle-array query: status %d, want 200", status)
	}
	sameAsDriver(t, "idle-array query", resp.Neighbors, want[0])

	// The storm: enough concurrent clients that the 1-deep watermark
	// trips while earlier queries still hold the array.
	const clients = 12
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					status, resp, retry := postKNN(t, client, url, fmt.Sprintf("t%d", c),
						knnRequest{Point: q, K: 8})
					switch status {
					case http.StatusOK:
						served.Add(1)
						if len(resp.Neighbors) != len(want[i]) {
							errs <- fmt.Sprintf("query %d: %d results, want %d", i, len(resp.Neighbors), len(want[i]))
							return
						}
						for j := range resp.Neighbors {
							if resp.Neighbors[j].Object != int64(want[i][j].Object) ||
								resp.Neighbors[j].DistSq != want[i][j].DistSq {
								errs <- fmt.Sprintf("query %d result %d: (%d, %g) vs driver (%d, %g)",
									i, j, resp.Neighbors[j].Object, resp.Neighbors[j].DistSq,
									want[i][j].Object, want[i][j].DistSq)
								return
							}
						}
					case http.StatusTooManyRequests:
						shed.Add(1)
						if retry == "" {
							errs <- "429 without Retry-After"
							return
						}
					default:
						errs <- fmt.Sprintf("unexpected status %d", status)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if shed.Load() == 0 {
		t.Fatal("watermark 1 on a spiked array shed nothing: admission control never engaged")
	}
	if served.Load() == 0 {
		t.Fatal("every query shed: admitted queries never completed")
	}
	t.Logf("storm: %d served bit-identical, %d shed with 429", served.Load(), shed.Load())
}

// TestServeSoak is the nightly soak: a longer storm against a real
// spiked engine, admitting and shedding under sustained concurrency,
// then a graceful drain. Gated behind SERVE_SOAK=1.
func TestServeSoak(t *testing.T) {
	if os.Getenv("SERVE_SOAK") != "1" {
		t.Skip("set SERVE_SOAK=1 to run the serving soak")
	}
	tree, pts := buildTree(t, 4000, 4)
	queries := dataset.SampleQueries(pts, 16, 9)
	drv := query.Driver{Tree: tree}
	want := make([][]query.Neighbor, len(queries))
	for i, q := range queries {
		want[i], _ = drv.Run(query.CRSS{}, q, 10, query.Options{})
	}
	inj := fault.NewInjector(11)
	for d := 0; d < 4; d++ {
		inj.Set(d, fault.Faults{SpikeProb: 0.5, SpikeDelay: time.Millisecond})
	}
	eng, err := exec.New(tree, exec.Config{CoalesceFetches: true, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{
		Backend:        eng,
		QueueWatermark: 4,
		QuotaRate:      200,
		QuotaBurst:     50,
		SLOTarget:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())

	const clients = 16
	deadline := time.Now().Add(30 * time.Second)
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for time.Now().Before(deadline) {
				i := int(served.Load()+shed.Load()) % len(queries)
				status, resp, _ := postKNN(t, client, url, fmt.Sprintf("soak-%d", c%4),
					knnRequest{Point: queries[i], K: 10})
				switch status {
				case http.StatusOK:
					served.Add(1)
					if len(resp.Neighbors) != len(want[i]) {
						errs <- fmt.Sprintf("query %d: %d results, want %d", i, len(resp.Neighbors), len(want[i]))
						return
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs <- fmt.Sprintf("unexpected status %d", status)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("soak shutdown: %v", err)
	}
	t.Logf("soak: %d served, %d shed over 30s with %d clients", served.Load(), shed.Load(), clients)
}

// TestServerRejectsBadRequests pins the 400 surface: malformed JSON,
// missing point, out-of-range k, unknown algorithm, and a query whose
// dimensionality the validator rejects.
func TestServerRejectsBadRequests(t *testing.T) {
	tree, _ := buildTree(t, 200, 2)
	eng, err := exec.New(tree, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())
	client := &http.Client{}

	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	cases := []knnRequest{
		{K: 1},                             // missing point
		{Point: []float64{0.5, 0.5}, K: 0}, // k below range
		{Point: []float64{0.5, 0.5}, K: maxK + 1},             // k above the cap
		{Point: []float64{0.5, 0.5}, K: 1, Algorithm: "nope"}, // unknown algorithm
		{Point: []float64{0.5, 0.5, 0.5}, K: 1},               // wrong dimensionality
	}
	for i, req := range cases {
		if status, _, _ := postKNN(t, client, url, "", req); status != http.StatusBadRequest {
			t.Fatalf("case %d (%+v): status %d, want 400", i, req, status)
		}
	}
	// A 405 names the method the endpoint takes (RFC 9110 §15.5.6).
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/knn", "POST"},
		{http.MethodPost, "/v1/stats", "GET"},
	} {
		req, err := http.NewRequest(tc.method, fmt.Sprintf("http://%s%s", srv.Addr(), tc.path), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}

	// /v1/stats and /healthz answer.
	sresp, err := client.Get(fmt.Sprintf("http://%s/v1/stats", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(stats.QueueDepths) == 0 {
		t.Fatal("/v1/stats reported no queue depths")
	}
	if stats.Views == nil || *stats.Views != (viewStats{}) {
		t.Fatalf("/v1/stats views = %+v, want the zero frame counts of an engine that recycles nothing", stats.Views)
	}
	hresp, err := client.Get(fmt.Sprintf("http://%s/healthz", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", hresp.StatusCode)
	}
}

// TestServerBoundsRequestBody pins the /v1/knn body limit: a body of
// exactly maxKNNBodyBytes is decoded and served, one byte more is
// refused with 413 before the rest is read, and the server keeps
// answering afterwards.
func TestServerBoundsRequestBody(t *testing.T) {
	tree, _ := buildTree(t, 200, 2)
	eng, err := exec.New(tree, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/v1/knn", srv.Addr())

	query := `{"point":[0.5,0.5],"k":3}`
	padded := func(size int) []byte { // the query behind leading whitespace, size bytes in all
		return append(bytes.Repeat([]byte(" "), size-len(query)), query...)
	}
	coords := bytes.Repeat([]byte("0.25,"), maxKNNBodyBytes/4)
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"small", []byte(query), http.StatusOK},
		{"exactly the limit", padded(maxKNNBodyBytes), http.StatusOK},
		{"one byte over", padded(maxKNNBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{"oversized point", []byte(`{"k":3,"point":[` + string(coords) + `0.25]}`), http.StatusRequestEntityTooLarge},
		{"endless string", append([]byte(`{"algorithm":"`), bytes.Repeat([]byte("a"), 4*maxKNNBodyBytes)...), http.StatusRequestEntityTooLarge},
		{"small again", []byte(query), http.StatusOK},
	} {
		resp, err := http.Post(url, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s (%d bytes): status %d, want %d", tc.name, len(tc.body), resp.StatusCode, tc.want)
		}
	}
}

// TestServerRejectsFarQueryPoint: a finite query point beyond the
// tree's coordinate bound is refused with a 400, counted as errored —
// its squared distances would overflow to +Inf, which no JSON carries.
func TestServerRejectsFarQueryPoint(t *testing.T) {
	tree, _ := buildTree(t, 200, 2)
	eng, err := exec.New(tree, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/knn",
		strings.NewReader(`{"point":[1e200,1e200],"k":3}`)))
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, body %q (%v): want 400 with a JSON error", rec.Code, rec.Body.Bytes(), err)
	}
	if !strings.Contains(body.Error, "1e+200") {
		t.Fatalf("error %q does not name the coordinate", body.Error)
	}
	if snap := srv.Tenants().Snapshot()["anonymous"]; snap.Errored != 1 || snap.Served != 0 {
		t.Fatalf("tenant snapshot = %+v, want 1 errored and none served", snap)
	}
}

// TestServerAnswerItCannotEncode: an answer with a float JSON cannot
// carry is a 500 with a JSON error, counted as errored, never a 200
// with an empty body.
func TestServerAnswerItCannotEncode(t *testing.T) {
	for _, st := range []*query.Stats{nil, {Instructions: math.NaN()}} {
		be := &staticBackend{ns: []query.Neighbor{{Object: 1, DistSq: 2}, {Object: 3, DistSq: math.Inf(1)}}, st: st}
		if st != nil {
			be.ns = be.ns[:1]
		}
		srv, err := New(Config{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/knn",
			strings.NewReader(`{"point":[0.5,0.5],"k":2}`)))
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body.Error == "" {
			t.Fatalf("stats %+v: status %d, body %q (%v): want 500 with a JSON error", st, rec.Code, rec.Body.Bytes(), err)
		}
		if snap := srv.Tenants().Snapshot()["anonymous"]; snap.Errored != 1 || snap.Served != 0 {
			t.Fatalf("stats %+v: tenant snapshot = %+v, want 1 errored and none served", st, snap)
		}
	}
}

// TestServerCapsTenants: client-chosen keys cannot grow the tenant
// table past maxTenants. Keys past the cap share one overflow row —
// its metrics, reported under /v1/stats' own overflow field, and its
// bucket.
func TestServerCapsTenants(t *testing.T) {
	const keys = 3000
	for _, quota := range []bool{false, true} {
		cfg := Config{Backend: &fakeBackend{}}
		if quota {
			// Every named tenant has a burst of 2; the overflow tenants
			// share one bucket of 2, and the clock never refills it.
			at := time.Unix(0, 0)
			cfg.QuotaRate, cfg.QuotaBurst, cfg.Now = 1, 2, func() time.Time { return at }
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(`{"point":[0.5,0.5],"k":1}`))
			req.Header.Set("X-API-Key", fmt.Sprintf("key-%d", i))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			wantStatus := http.StatusOK
			if quota && i >= maxTenants+2 {
				wantStatus = http.StatusTooManyRequests
			}
			if rec.Code != wantStatus {
				t.Fatalf("quota %v, key %d: status %d, want %d", quota, i, rec.Code, wantStatus)
			}
		}
		if n := len(srv.Tenants().Snapshot()); n > maxTenants {
			t.Fatalf("quota %v: %d rows in the tenant table, cap %d", quota, n, maxTenants)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var stats statsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if len(stats.Tenants) != maxTenants || stats.Overflow == nil {
			t.Fatalf("quota %v: /v1/stats has %d tenants and overflow %+v", quota, len(stats.Tenants), stats.Overflow)
		}
		want := tenantStats{Served: keys - maxTenants}
		if quota {
			want = tenantStats{Served: 2, QuotaRejected: keys - maxTenants - 2}
		}
		if got := *stats.Overflow; got.Served != want.Served || got.QuotaRejected != want.QuotaRejected {
			t.Fatalf("quota %v: overflow row %+v, want %d served and %d rejected", quota, got, want.Served, want.QuotaRejected)
		}
	}
}

// TestServerBoundsTenantKeys: a key longer than maxTenantKeyBytes gets
// no row of its own, which would keep it for the life of the server,
// and counts under the overflow row; a key of exactly that length is a
// tenant.
func TestServerBoundsTenantKeys(t *testing.T) {
	srv, err := New(Config{Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	longest, long := strings.Repeat("a", maxTenantKeyBytes), strings.Repeat("b", 64<<10)
	for _, key := range []string{longest, long} {
		req := httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(`{"point":[0.5,0.5],"k":1}`))
		req.Header.Set("X-API-Key", key)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("key of %d bytes: status %d", len(key), rec.Code)
		}
	}
	named, overflow := srv.Tenants().snapshot()
	if _, ok := named[long]; ok || len(named) != 1 || named[longest].Served != 1 {
		t.Fatalf("named rows %d, want one: the %d-byte key's", len(named), len(longest))
	}
	if overflow == nil || overflow.Served != 1 {
		t.Fatalf("overflow row %+v, want the %d-byte key's query", overflow, len(long))
	}
}

// TestTenantTableConcurrent: concurrent admissions and snapshots see
// every admitted query exactly once.
func TestTenantTableConcurrent(t *testing.T) {
	table := newTenantTable(0, 0, time.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"a", "b", "c"}
			for i := 0; i < 200; i++ {
				m, ok, _ := table.admit(names[(g+i)%len(names)])
				if !ok {
					t.Error("admission refused with quotas off")
					return
				}
				m.ObserveServed(0.001, i%10 == 0)
				if i%50 == 0 {
					table.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var served uint64
	for _, s := range table.Snapshot() {
		served += s.Served
	}
	if served != 8*200 {
		t.Fatalf("served total = %d, want %d", served, 8*200)
	}
}

// TestStartSetsTimeouts: the listener Start opens bounds how long a
// client may take to send a request, how long the answer may take, and
// how long an idle connection is kept.
func TestStartSetsTimeouts(t *testing.T) {
	srv, err := New(Config{Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0", "", ""); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.httpSrv
	if h.ReadHeaderTimeout != readHeaderTimeout || h.ReadTimeout != readTimeout ||
		h.WriteTimeout != writeTimeout || h.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: header %v, read %v, write %v, idle %v", h.ReadHeaderTimeout, h.ReadTimeout, h.WriteTimeout, h.IdleTimeout)
	}
	for _, d := range []time.Duration{readHeaderTimeout, readTimeout, writeTimeout, idleTimeout} {
		if d <= 0 {
			t.Fatalf("timeout %v disables the bound", d)
		}
	}
}

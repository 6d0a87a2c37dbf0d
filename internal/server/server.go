// Package server is the network query service: an HTTP/JSON kNN
// endpoint fronting the concurrent execution engine, with per-tenant
// token-bucket quotas, array-aware admission control, and graceful
// shutdown that drains in-flight queries. It is the paper's parallel
// R-tree engine made multi-user: many clients share one disk array,
// and the service sheds load before the array's queues collapse
// instead of letting every query slow down together.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rtree"
)

// Backend is the query engine surface the server needs. *exec.Engine
// implements it directly; tests substitute fakes to script saturation
// and blocking behavior.
type Backend interface {
	// KNN answers one k-nearest-neighbor query; the context cancels it
	// mid-flight. Must be safe for concurrent use.
	KNN(ctx context.Context, alg query.Algorithm, q geom.Point, k int, opts query.Options) ([]query.Neighbor, *query.Stats, error)
	// QueueDepths reports each disk's pending load (queued plus
	// in-flight page reads; pages the engine serves from its cache
	// never queue) — the admission-control signal.
	QueueDepths() []int64
}

// viewReporter is an optional Backend capability: an engine that serves
// pages out of a fixed set of recycled frames (*exec.Engine) reports
// them, and /v1/stats carries the counts — frames made stops growing
// once the engine is warm.
type viewReporter interface {
	ViewStats() rtree.ViewStats
}

const (
	// tenantHeader carries the tenant's API key (X-API-Key), in the
	// canonical form net/http files incoming headers under, so reading it
	// is a plain map lookup; requests without it are tenant "anonymous".
	tenantHeader = "X-Api-Key"
	// shedRetryAfter is the hint sent with shed-load 429s (quota 429s
	// compute their own from the token deficit).
	shedRetryAfter = time.Second
	// maxK caps the per-query k.
	maxK = 1024
)

// The connection timeouts Start sets. A request has ReadTimeout to
// arrive whole (its body is at most 64 KiB) and WriteTimeout from then
// until its answer is written, query included; an idle keep-alive
// connection is closed after IdleTimeout. The server sets no deadline
// per query: context.WithTimeout would allocate a timer context on every
// request, and a client that gives up cancels its query anyway.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Config tunes the service. The zero value of every field except
// Backend is usable: no quotas, no load shedding, no SLO accounting.
type Config struct {
	// Backend answers the queries. Required.
	Backend Backend

	// QueueWatermark sheds load (429) while any disk's queue depth is
	// at or above this value. 0 disables admission control.
	QueueWatermark int64

	// QuotaRate is each tenant's sustained admission rate in queries
	// per second. 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket capacity (instantaneous burst).
	// Default max(QuotaRate, 1).
	QuotaBurst float64

	// SLOTarget counts a served query as an SLO violation when its
	// end-to-end latency exceeds this. 0 disables the counter.
	SLOTarget time.Duration

	// Now is the clock (test seam). Default time.Now.
	Now func() time.Time
}

// Server is a running (or startable) query service.
type Server struct {
	cfg     Config
	tenants *TenantTable
	mux     *http.ServeMux

	httpSrv  *http.Server
	addr     net.Addr
	serveErr chan error // buffered; receives Serve's return exactly once
}

// New builds a service over cfg.Backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("server: Config.Backend is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		tenants:  newTenantTable(cfg.QuotaRate, cfg.QuotaBurst, cfg.Now),
		serveErr: make(chan error, 1),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/knn", s.handleKNN)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler exposes the routing mux (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Tenants exposes the tenant table; its Snapshot is the per-tenant
// metrics map.
func (s *Server) Tenants() *TenantTable { return s.tenants }

// Start binds addr (use ":0" for an ephemeral port) and serves in a
// background goroutine, returning once the listener is bound. Pass
// non-empty certFile/keyFile to serve TLS.
func (s *Server) Start(addr, certFile, keyFile string) error {
	if s.httpSrv != nil {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.addr = ln.Addr()
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		if certFile != "" || keyFile != "" {
			s.serveErr <- s.httpSrv.ServeTLS(ln, certFile, keyFile)
		} else {
			s.serveErr <- s.httpSrv.Serve(ln)
		}
	}()
	return nil
}

// Addr is the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr { return s.addr }

// Shutdown stops accepting new queries and waits for in-flight
// handlers to drain (their request contexts stay live), until ctx
// expires. It returns the background Serve error if the listener died
// early — the signal that the service was not actually reachable.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	serr := s.httpSrv.Shutdown(ctx)
	if err := s.waitServe(); err != nil {
		return err
	}
	return serr
}

// Close stops the server immediately, cancelling in-flight request
// contexts.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	cerr := s.httpSrv.Close()
	if err := s.waitServe(); err != nil {
		return err
	}
	return cerr
}

func (s *Server) waitServe() error {
	err := <-s.serveErr
	s.serveErr <- err // re-arm so Close and Shutdown are both safe to call
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

type errorResponse struct {
	Error string `json:"error"`
}

var (
	// Header values assigned, not Set, into a response's header: a shared
	// slice costs nothing per request. Nothing writes through it: net/http
	// copies the header map when the status goes out, and an append to a
	// full slice copies the slice.
	jsonContentType = []string{"application/json"}
	allowPost       = []string{http.MethodPost}
	allowGet        = []string{http.MethodGet}
)

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header()["Allow"] = allowPost
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	key := "anonymous"
	if v := r.Header[tenantHeader]; len(v) > 0 && v[0] != "" {
		key = v[0]
	}

	// Admission, cheapest gate first: the tenant's own quota, then the
	// array-wide queue-depth watermark. Both shed with 429 so clients
	// back off instead of queueing behind a saturated array.
	tm, ok, wait := s.tenants.admit(key)
	if !ok {
		tm.ObserveQuotaRejected()
		writeRetryAfter(w, wait, "tenant quota exhausted")
		return
	}
	if wm := s.cfg.QueueWatermark; wm > 0 {
		if depth := maxQueueDepth(s.cfg.Backend.QueueDepths()); depth >= wm {
			tm.ObserveLoadShed()
			writeRetryAfter(w, shedRetryAfter,
				fmt.Sprintf("array saturated (queue depth %d >= watermark %d)", depth, wm))
			return
		}
	}

	sc := scratchPool.Get().(*knnScratch)
	defer scratchPool.Put(sc)
	if err := sc.readBody(r.Body); err != nil {
		tm.ObserveError()
		if errors.Is(err, errBodyTooLarge) {
			// As http.MaxBytesReader does: the rest of the body is not
			// read, so the connection is not reused.
			w.Header().Set("Connection", "close")
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := sc.decode(); err != nil {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(sc.point) == 0 {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest, "point is required")
		return
	}
	if sc.k < 1 || sc.k > maxK {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("k must be in [1, %d]", maxK))
		return
	}
	alg, ok := algorithms[string(sc.alg)]
	if !ok {
		var err error
		if alg, err = query.AlgorithmByName(string(sc.alg)); err != nil {
			tm.ObserveError()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}

	var opts query.Options
	var collector *obs.Collector
	if sc.trace {
		collector = &obs.Collector{}
		opts.Observer = collector
	}

	start := s.cfg.Now()
	neighbors, stats, err := s.cfg.Backend.KNN(r.Context(), alg, geom.Point(sc.point), sc.k, opts)
	elapsed := s.cfg.Now().Sub(start)
	if err != nil {
		tm.ObserveError()
		var inv *query.InvalidQueryError
		switch {
		case errors.As(err, &inv):
			writeError(w, http.StatusBadRequest, err.Error())
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client went away or ran out of patience mid-query.
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}

	// The status goes out only once the whole body is encoded, so an
	// answer that cannot be encoded is still a clean 500.
	var events []obs.Event
	if collector != nil {
		events = collector.Events()
	}
	sc.out, err = appendKNN(sc.out[:0], alg.Name(), neighbors, stats, events)
	if err != nil {
		tm.ObserveError()
		writeError(w, http.StatusInternalServerError, "encoding the answer: "+err.Error())
		return
	}
	tm.ObserveServed(elapsed.Seconds(),
		s.cfg.SLOTarget > 0 && elapsed > s.cfg.SLOTarget)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out)
}

// statsResponse is the GET /v1/stats body: per-tenant service metrics
// plus the live admission-control signal. Overflow is the row the
// tenants past the table's cap share, under a field of its own so no
// client-chosen key can name it.
type statsResponse struct {
	Tenants     map[string]tenantStats `json:"tenants"`
	Overflow    *tenantStats           `json:"overflow,omitempty"`
	QueueDepths []int64                `json:"queue_depths"`
	Views       *viewStats             `json:"views,omitempty"`
}

type viewStats struct {
	Made   uint64 `json:"made"`
	Reused uint64 `json:"reused"`
	Idle   int    `json:"idle"`
}

type tenantStats struct {
	Served        uint64  `json:"served"`
	Errored       uint64  `json:"errored"`
	QuotaRejected uint64  `json:"quota_rejected"`
	LoadShed      uint64  `json:"load_shed"`
	SLOViolations uint64  `json:"slo_violations"`
	LatencyP50    float64 `json:"latency_p50_s"`
	LatencyP99    float64 `json:"latency_p99_s"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header()["Allow"] = allowGet
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snaps, overflow := s.tenants.snapshot()
	resp := statsResponse{
		Tenants:     make(map[string]tenantStats, len(snaps)),
		QueueDepths: s.cfg.Backend.QueueDepths(),
	}
	if vr, ok := s.cfg.Backend.(viewReporter); ok {
		vs := viewStats(vr.ViewStats())
		resp.Views = &vs
	}
	for name, ts := range snaps {
		resp.Tenants[name] = tenantStatsOf(ts)
	}
	if overflow != nil {
		ts := tenantStatsOf(*overflow)
		resp.Overflow = &ts
	}
	writeJSON(w, http.StatusOK, resp)
}

func tenantStatsOf(ts obs.TenantSnapshot) tenantStats {
	return tenantStats{
		Served:        ts.Served,
		Errored:       ts.Errored,
		QuotaRejected: ts.QuotaRejected,
		LoadShed:      ts.LoadShed,
		SLOViolations: ts.SLOViolations,
		LatencyP50:    ts.Latency.P50(),
		LatencyP99:    ts.Latency.P99(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func maxQueueDepth(depths []int64) int64 {
	var max int64
	for _, d := range depths {
		if d > max {
			max = d
		}
	}
	return max
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeRetryAfter sheds one request: 429 with a ceil-seconds
// Retry-After header (the header has whole-second resolution, and 0
// would mean "retry immediately").
func writeRetryAfter(w http.ResponseWriter, wait time.Duration, msg string) {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: msg})
}

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

// Config tunes the service. The zero value of every field except
// Backend is usable: no quotas, no load shedding, no SLO accounting.
type Config struct {
	// Backend answers the queries. Required.
	Backend Backend

	// QueueWatermark sheds load (429) while any disk's queue depth is
	// at or above this value. 0 disables admission control.
	QueueWatermark int64
	// RetryAfter is the hint sent with shed-load 429s (quota 429s
	// compute their own from the token deficit). Default 1s.
	RetryAfter time.Duration

	// QuotaRate is each tenant's sustained admission rate in queries
	// per second. 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket capacity (instantaneous burst).
	// Default max(QuotaRate, 1).
	QuotaBurst float64
	// TenantHeader names the header carrying the tenant's API key.
	// Default "X-API-Key"; requests without it are tenant "anonymous".
	TenantHeader string

	// SLOTarget counts a served query as an SLO violation when its
	// end-to-end latency exceeds this. 0 disables the counter.
	SLOTarget time.Duration
	// MaxK caps the per-query k. Default 1024.
	MaxK int

	// Tenants receives per-tenant latency histograms and SLO counters;
	// a fresh set is created when nil.
	Tenants *obs.TenantSet

	// Now is the clock (test seam). Default time.Now.
	Now func() time.Time
}

// Server is a running (or startable) query service.
type Server struct {
	cfg     Config
	tenants *obs.TenantSet
	quotas  *quotaSet // nil when quotas are disabled
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
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.TenantHeader == "" {
		cfg.TenantHeader = "X-API-Key"
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{cfg: cfg, tenants: cfg.Tenants, serveErr: make(chan error, 1)}
	if s.tenants == nil {
		s.tenants = obs.NewTenantSet()
	}
	if cfg.QuotaRate > 0 {
		burst := cfg.QuotaBurst
		if burst <= 0 {
			burst = cfg.QuotaRate
		}
		s.quotas = newQuotaSet(cfg.QuotaRate, burst, cfg.Now)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/knn", s.handleKNN)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler exposes the routing mux (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Tenants exposes the per-tenant metrics registry.
func (s *Server) Tenants() *obs.TenantSet { return s.tenants }

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
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
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

// maxKNNBodyBytes bounds the POST /v1/knn body: the server buffers a
// request's point while decoding, so an unbounded body is memory a
// client controls. A query point of a thousand dimensions is under
// 32 KiB of JSON; a larger body is refused with 413.
const maxKNNBodyBytes = 64 << 10

// knnRequest is the POST /v1/knn body.
type knnRequest struct {
	Point     []float64 `json:"point"`
	K         int       `json:"k"`
	Algorithm string    `json:"algorithm,omitempty"`
	Trace     bool      `json:"trace,omitempty"`
}

// knnNeighbor is one result: the object id and its squared distance.
// float64 JSON round-trips exactly (shortest-representation encoding),
// so responses can be compared bit-identical to in-process results.
type knnNeighbor struct {
	Object int64   `json:"object"`
	DistSq float64 `json:"distsq"`
}

type knnResponse struct {
	Algorithm string        `json:"algorithm"`
	Neighbors []knnNeighbor `json:"neighbors"`
	Stats     *query.Stats  `json:"stats,omitempty"`
	Trace     []traceEvent  `json:"trace,omitempty"`
}

// traceEvent is the wire form of one obs.Event.
type traceEvent struct {
	Type     string `json:"type"`
	Stage    int    `json:"stage"`
	Page     int64  `json:"page,omitempty"`
	Disk     int    `json:"disk,omitempty"`
	Pages    int    `json:"pages,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	WallNS   int64  `json:"wall_ns,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	tenant := r.Header.Get(s.cfg.TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	tm := s.tenants.Tenant(tenant)

	// Admission, cheapest gate first: the tenant's own quota, then the
	// array-wide queue-depth watermark. Both shed with 429 so clients
	// back off instead of queueing behind a saturated array.
	if s.quotas != nil {
		if ok, wait := s.quotas.allow(tenant); !ok {
			tm.ObserveQuotaRejected()
			writeRetryAfter(w, wait, "tenant quota exhausted")
			return
		}
	}
	if wm := s.cfg.QueueWatermark; wm > 0 {
		if depth := maxQueueDepth(s.cfg.Backend.QueueDepths()); depth >= wm {
			tm.ObserveLoadShed()
			writeRetryAfter(w, s.cfg.RetryAfter,
				fmt.Sprintf("array saturated (queue depth %d >= watermark %d)", depth, wm))
			return
		}
	}

	var req knnRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxKNNBodyBytes)).Decode(&req); err != nil {
		tm.ObserveError()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Point) == 0 {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest, "point is required")
		return
	}
	if req.K < 1 || req.K > s.cfg.MaxK {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("k must be in [1, %d]", s.cfg.MaxK))
		return
	}
	alg, err := query.AlgorithmByName(req.Algorithm)
	if err != nil {
		tm.ObserveError()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	var opts query.Options
	var collector *obs.Collector
	if req.Trace {
		collector = &obs.Collector{}
		opts.Observer = collector
	}

	start := s.cfg.Now()
	neighbors, stats, err := s.cfg.Backend.KNN(r.Context(), alg, geom.Point(req.Point), req.K, opts)
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
	tm.ObserveServed(elapsed.Seconds(),
		s.cfg.SLOTarget > 0 && elapsed > s.cfg.SLOTarget)

	resp := knnResponse{
		Algorithm: alg.Name(),
		Neighbors: make([]knnNeighbor, len(neighbors)),
		Stats:     stats,
	}
	for i, n := range neighbors {
		resp.Neighbors[i] = knnNeighbor{Object: int64(n.Object), DistSq: n.DistSq}
	}
	if collector != nil {
		events := collector.Events()
		resp.Trace = make([]traceEvent, len(events))
		for i, e := range events {
			resp.Trace[i] = traceEvent{
				Type:     e.Type.String(),
				Stage:    e.Stage,
				Page:     e.Page,
				Disk:     e.Disk,
				Pages:    e.Pages,
				Cached:   e.Cached,
				Batch:    e.Batch,
				CacheHit: e.CacheHit,
				WallNS:   e.Wall.Nanoseconds(),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the GET /v1/stats body: per-tenant service metrics
// plus the live admission-control signal.
type statsResponse struct {
	Tenants     map[string]tenantStats `json:"tenants"`
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
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snaps := s.tenants.Snapshot()
	resp := statsResponse{
		Tenants:     make(map[string]tenantStats, len(snaps)),
		QueueDepths: s.cfg.Backend.QueueDepths(),
	}
	if vr, ok := s.cfg.Backend.(viewReporter); ok {
		vs := viewStats(vr.ViewStats())
		resp.Views = &vs
	}
	for name, ts := range snaps {
		resp.Tenants[name] = tenantStats{
			Served:        ts.Served,
			Errored:       ts.Errored,
			QuotaRejected: ts.QuotaRejected,
			LoadShed:      ts.LoadShed,
			SLOViolations: ts.SLOViolations,
			LatencyP50:    ts.Latency.P50(),
			LatencyP99:    ts.Latency.P99(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
	w.Header().Set("Content-Type", "application/json")
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

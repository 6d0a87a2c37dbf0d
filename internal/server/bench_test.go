package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
)

// replayWriter is an http.ResponseWriter that keeps its header map and
// body buffer from one response to the next.
type replayWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *replayWriter) Header() http.Header { return w.header }

func (w *replayWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *replayWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *replayWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// replayRequest is one POST /v1/knn request sent again and again: reset
// rewinds its body.
type replayRequest struct {
	req     *http.Request
	body    replayBody
	payload []byte
}

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

func (r *replayRequest) reset() { r.body.Reset(r.payload) }

func newReplayWriter() *replayWriter { return &replayWriter{header: make(http.Header)} }

// newReplayRequest builds a request that posts body (from tenant, when
// not empty) and allocates nothing to send again.
func newReplayRequest(body, tenant string) *replayRequest {
	r := &replayRequest{payload: []byte(body)}
	r.req = httptest.NewRequest(http.MethodPost, "/v1/knn", nil)
	r.req.Body = &r.body
	r.req.ContentLength = int64(len(body))
	if tenant != "" {
		r.req.Header.Set("X-API-Key", tenant)
	}
	return r
}

// BenchmarkServerKNN is one POST /v1/knn through Handler() over a real
// engine whose cache holds the tree (CRSS, k = 10, quota and watermark
// on but never binding, as in the knn-http workload), with a request
// and a response writer reused from one query to the next: what it
// counts is the handler's and the engine's own work, and none of
// net/http's connection handling.
func BenchmarkServerKNN(b *testing.B) {
	tree, pts := buildTree(b, 1500, 4)
	queries := dataset.SampleQueries(pts, 64, 3)
	eng, err := exec.New(tree, exec.Config{CachePages: 4096, CoalesceFetches: true})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Backend: eng, QuotaRate: 1e6, QueueWatermark: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	h, w := srv.Handler(), newReplayWriter()
	replays := make([]*replayRequest, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(map[string]any{"point": q, "k": 10, "algorithm": "crss"})
		if err != nil {
			b.Fatal(err)
		}
		replays[i] = newReplayRequest(string(body), "")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := replays[i%len(replays)]
		r.reset()
		w.reset()
		h.ServeHTTP(w, r.req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
}

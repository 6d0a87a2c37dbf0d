package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rtree"
)

// The /v1/knn wire structs, decoded and encoded with encoding/json: the
// codec's oracle, and the client side of the HTTP tests. knnRequest,
// the request, is in wire.go: the decoder's fallback decodes into it.

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

// oracleDecode decodes a /v1/knn body with encoding/json.
func oracleDecode(body []byte) (knnRequest, error) {
	var req knnRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// oracleStatus is the status a body gets from a server whose backend
// answers every query, by the handler's rules over oracleDecode.
func oracleStatus(body []byte) int {
	req, err := oracleDecode(body)
	if err != nil || len(req.Point) == 0 || req.K < 1 || req.K > maxK {
		return http.StatusBadRequest
	}
	if _, err := query.AlgorithmByName(req.Algorithm); err != nil {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// oracleEncode is the 200 body encoding/json writes for an answer.
func oracleEncode(t *testing.T, alg string, ns []query.Neighbor, st *query.Stats, events []obs.Event) ([]byte, error) {
	t.Helper()
	resp := knnResponse{Algorithm: alg, Neighbors: make([]knnNeighbor, len(ns)), Stats: st}
	for i, n := range ns {
		resp.Neighbors[i] = knnNeighbor{Object: int64(n.Object), DistSq: n.DistSq}
	}
	for _, e := range events {
		resp.Trace = append(resp.Trace, traceEvent{
			Type:     e.Type.String(),
			Stage:    e.Stage,
			Page:     e.Page,
			Disk:     e.Disk,
			Pages:    e.Pages,
			Cached:   e.Cached,
			Batch:    e.Batch,
			CacheHit: e.CacheHit,
			WallNS:   e.Wall.Nanoseconds(),
		})
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// checkDecode fails unless the wire decoder and encoding/json agree on
// body: both accept it or both refuse it, and an accepted body decodes
// to bitwise-equal fields. The hand path is checked on its own, since
// the decoder's fallback is encoding/json itself: a body it takes must
// be one encoding/json accepts, with the same fields. It reports
// whether the hand path took body. sc is reused across calls on
// purpose: what an earlier body left in it must not show in a later
// one's point.
func checkDecode(t *testing.T, sc *knnScratch, body []byte) (hand bool) {
	t.Helper()
	want, wantErr := oracleDecode(body)
	sc.body = append(sc.body[:0], body...)
	if hand = sc.decodeHand(); hand {
		if wantErr != nil {
			t.Fatalf("body %q: the hand path takes it, encoding/json refuses it: %v", body, wantErr)
		}
		checkFields(t, "hand path", sc, body, want)
	}
	err := sc.decode()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decode error %v, encoding/json error %v", body, err, wantErr)
	}
	if err == nil {
		checkFields(t, "decode", sc, body, want)
	}
	return hand
}

// checkFields fails unless sc holds want's fields, bitwise.
func checkFields(t *testing.T, path string, sc *knnScratch, body []byte, want knnRequest) {
	t.Helper()
	same := len(sc.point) == len(want.Point) && sc.k == want.K &&
		string(sc.alg) == want.Algorithm && sc.trace == want.Trace
	for i := 0; same && i < len(sc.point); i++ {
		same = math.Float64bits(sc.point[i]) == math.Float64bits(want.Point[i])
	}
	if !same {
		t.Fatalf("body %q: %s decoded point %v k %d algorithm %q trace %v, encoding/json %v %d %q %v",
			body, path, sc.point, sc.k, sc.alg, sc.trace, want.Point, want.K, want.Algorithm, want.Trace)
	}
}

var knnRequestSeeds = []string{
	`{"point":[0.5,0.5],"k":3}`,
	`{"algorithm":"bbss","k":10,"point":[0.25,0.75],"trace":true}`,
	// Keys fold case as encoding/json folds them, the Kelvin sign included.
	`{"POINT":[1,2],"K":3,"Algorithm":"fpss","TRACE":false}`,
	"{\"point\":[1,2],\"\u212a\":3}",
	`{"point":[1,2],"\u212a":3,"\u212A":4}`,
	`{"point":[1,2],"k":3,"algorithm":"CRSS"}`,
	`{"point":[1,2],"k":3,"algorithm":"Crss"}`,
	`{"point":[1,2],"k":3,"algorithm":"best-first"}`,
	`{"point":[1,2],"k":3,"algorithm":"cr\u0073s"}`,
	// Duplicate keys: the last wins; null leaves a scalar as it is and
	// empties point; null elements keep what an earlier array wrote.
	`{"point":[1,2,3],"point":[4],"k":1,"k":2}`,
	`{"point":[1,2,3],"point":[9],"point":[null,null,null],"k":5,"k":null}`,
	`{"point":[1,2,3],"point":[],"point":[null,null],"k":1}`,
	`{"point":[1,2,3],"point":null,"point":[null,7],"k":1}`,
	`{"point":null,"k":null,"algorithm":null,"trace":null}`,
	`{"algorithm":"bfss","algorithm":null,"trace":true,"trace":null,"point":[null],"k":1}`,
	// Unknown keys, nested values.
	`{"x":{"a":[1,{"b":null}],"c":"\u00e9\n"},"point":[1,2],"y":[[],{},true,false,-0.5e-3],"k":1}`,
	`{"x":{"a":[1,{"b":null]}},"point":[1,2],"k":1}`,
	`{"x":[1,2,],"point":[1,2],"k":1}`,
	// k must be an integer literal.
	`{"point":[1,2],"k":1.0}`,
	`{"point":[1,2],"k":1e1}`,
	`{"point":[1,2],"k":-0}`,
	`{"point":[1,2],"k":9223372036854775807}`,
	`{"point":[1,2],"k":9223372036854775808}`,
	`{"point":[1,2],"k":"3"}`,
	// Malformed and out-of-range numbers.
	`{"point":[01],"k":1}`,
	`{"point":[1.],"k":1}`,
	`{"point":[-],"k":1}`,
	`{"point":[+1],"k":1}`,
	`{"point":[.5],"k":1}`,
	`{"point":[1e],"k":1}`,
	`{"point":[0x10],"k":1}`,
	`{"point":[1e400],"k":1}`,
	`{"point":[1e-400,-0],"k":1}`,
	`{"point":[-0,0E+0,1.5e-7,4.9e-324],"k":1}`,
	`{"point":["1"],"k":1}`,
	`{"point":[[1]],"k":1}`,
	`{"point":{"0":1},"k":1}`,
	`{"point":[1,2],"k":1,"trace":1}`,
	`{"point":[1,2],"k":1,"algorithm":5}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"point":[1,2],"k":1,"algorithm":"\ud83d\ude00"}`,
	`{"point":[1,2],"k":1,"algorithm":"\ud800"}`,
	`{"point":[1,2],"k":1,"algorithm":"\ud800\ud800\udc00"}`,
	`{"point":[1,2],"k":1,"algorithm":"\udc00x"}`,
	"{\"point\":[1,2],\"k\":1,\"algorithm\":\"\xff\xfe\"}",
	"{\"point\":[1,2],\"k\":1,\"algorithm\":\"a\tb\"}",
	`{"point":[1,2],"k":1,"algorithm":"\x"}`,
	`{"point":[1,2],"k":1,"algorithm":"\u12"}`,
	"{\"po\\u0069nt\":[1,2],\"k\":1}",
	// Trailing bytes after the value are never read.
	`{"point":[1,2],"k":1} trailing`,
	`{"point":[1,2],"k":1}}`,
	"null x",
	"nullx",
	// Not an object, not complete, not JSON.
	``, `   `, `[]`, `"x"`, `1`, `true`, `nul`, `{`, `{"point":[1,2],"k":1,}`,
	`{"point":[1,2] "k":1}`, `{"point" [1,2]}`, `{point:[1,2]}`, "\ufeff{}",
	" \t\r\n{ \"point\" : [ 1 , 2 ] , \"k\" : 1 } ",
}

// FuzzKNNRequest is the decoder's differential: on any body of at most
// maxKNNBodyBytes, the hand path takes only bodies encoding/json
// accepts, with bitwise-equal fields; the wire decoder and encoding/json
// accept and refuse the same bodies; and the handler answers with the
// status the encoding/json rules give.
func FuzzKNNRequest(f *testing.F) {
	for _, body := range knnRequestSeeds {
		f.Add([]byte(body))
	}
	srv, err := New(Config{Backend: &fakeBackend{}})
	if err != nil {
		f.Fatal(err)
	}
	sc := new(knnScratch)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxKNNBodyBytes {
			return
		}
		checkDecode(t, sc, body)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body)))
		if want := oracleStatus(body); rec.Code != want {
			t.Fatalf("body %q: status %d, want %d (%s)", body, rec.Code, want, rec.Body.Bytes())
		}
	})
}

// TestDecodeNestingBound: an unknown key's value may nest as deep as
// encoding/json's scanner allows, and not one level deeper.
func TestDecodeNestingBound(t *testing.T) {
	const maxNestingDepth = 10000 // encoding/json's bound
	sc := new(knnScratch)
	for _, depth := range []int{maxNestingDepth - 2, maxNestingDepth - 1, maxNestingDepth} {
		for _, open := range []string{"[", `{"a":`} {
			close := "]"
			if open != "[" {
				close = "}"
			}
			body := `{"x":` + strings.Repeat(open, depth) + "1" + strings.Repeat(close, depth) + `,"point":[1],"k":1}`
			checkDecode(t, sc, []byte(body))
			if err := sc.decode(); (err == nil) != (depth < maxNestingDepth) {
				t.Fatalf("%d levels of %s under the body's object: error %v", depth, open, err)
			}
		}
	}
}

// TestHandPathTakesEncodedRequests: the hand path takes every body an
// encoder writes for a request — json.Marshal of knnRequest, of a map
// (sorted keys: the body the benchmark's HTTP client sends), with
// json.MarshalIndent, and in a ", "/": "-spaced form — over random
// requests with the floats where encoding/json's format changes, every
// registry name in both cases and trace on and off, and yields the
// fields encoding/json does, bitwise.
func TestHandPathTakesEncodedRequests(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, 1e-7, -1e-7,
		1e-6, math.Nextafter(1e-6, 0), 1e21, -1e21, math.MaxFloat64, 0.1,
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var names []string
	for _, name := range query.AlgorithmNames() {
		names = append(names, name, strings.ToUpper(name))
	}
	rng := rand.New(rand.NewSource(44))
	sc := new(knnScratch)
	for trial := 0; trial < 2000; trial++ {
		req := knnRequest{
			Point:     make([]float64, 1+rng.Intn(16)),
			K:         1 + rng.Intn(maxK),
			Algorithm: names[trial%len(names)],
			Trace:     rng.Intn(2) == 0,
		}
		coords := make([]string, len(req.Point))
		for i := range req.Point {
			if rng.Intn(2) == 0 {
				req.Point[i] = specials[rng.Intn(len(specials))]
			} else {
				req.Point[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
			coords[i] = string(marshal(req.Point[i]))
		}
		asMap := map[string]any{"point": req.Point, "k": req.K, "algorithm": req.Algorithm}
		if req.Trace {
			asMap["trace"] = true
		}
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		spaced := fmt.Sprintf(`{"point": [%s], "k": %d, "algorithm": %q, "trace": %t}`,
			strings.Join(coords, ", "), req.K, req.Algorithm, req.Trace)
		for _, body := range [][]byte{marshal(req), marshal(asMap), indented, []byte(spaced)} {
			if !checkDecode(t, sc, body) {
				t.Fatalf("the hand path declines %s", body)
			}
		}
	}
}

// TestAppendKNNMatchesMarshal: the encoder writes what json.Marshal
// writes for the same answer, byte for byte, over random neighbors,
// stats and trace events, with the floats where encoding/json's format
// changes: zeros of both signs, subnormals, the 1e-6 and 1e21 cutoffs,
// the largest float64.
func TestAppendKNNMatchesMarshal(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e20,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.5, 1 << 53, 123456789.125, 1e-300, 3e-10,
	}
	rng := rand.New(rand.NewSource(30))
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
			return 0
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	small := func() int {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Intn(2000) - 100
	}
	names := []string{"CRSS", "BBSS", "EPS-SERIES"}
	var b []byte
	for trial := 0; trial < 3000; trial++ {
		ns := make([]query.Neighbor, rng.Intn(12))
		for i := range ns {
			ns[i] = query.Neighbor{Object: rtree.ObjectID(rng.Int63() >> rng.Intn(64)), DistSq: float()}
			if rng.Intn(4) == 0 {
				ns[i].Object = -ns[i].Object
			}
		}
		var st *query.Stats
		if rng.Intn(4) != 0 {
			st = &query.Stats{
				NodesVisited: small(), DiskAccesses: small(), Batches: small(), MaxParallel: small(),
				Scanned: small(), Sorted: small(), Instructions: float(),
			}
			if rng.Intn(3) != 0 {
				st.PerDisk = make([]int, rng.Intn(6))
				for i := range st.PerDisk {
					st.PerDisk[i] = small()
				}
			}
		}
		var events []obs.Event
		for i := rng.Intn(5); i > 0; i-- {
			events = append(events, obs.Event{
				Type:  obs.EventType(rng.Intn(int(obs.SemWait) + 2)),
				Stage: small(), Page: int64(small()), Disk: small(), Pages: small(),
				Cached: rng.Intn(2) == 0, Batch: small(), CacheHit: rng.Intn(2) == 0,
				Wall: time.Duration(small()) * time.Microsecond,
			})
		}
		alg := names[rng.Intn(len(names))]
		want, err := oracleEncode(t, alg, ns, st, events)
		if err != nil {
			t.Fatal(err)
		}
		b, err = appendKNN(b[:0], alg, ns, st, events)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, b, want)
		}
	}
}

// TestAppendKNNRefusesNonFinite: NaN and ±Inf, which json.Marshal
// refuses too, fail the encoder wherever they are.
func TestAppendKNNRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			ns []query.Neighbor
			st *query.Stats
		}{
			{[]query.Neighbor{{Object: 1, DistSq: 1}, {Object: 2, DistSq: f}}, nil},
			{nil, &query.Stats{Instructions: f}},
		} {
			if _, err := oracleEncode(t, "CRSS", tc.ns, tc.st, nil); err == nil {
				t.Fatalf("json.Marshal encoded %v", f)
			}
			if _, err := appendKNN(nil, "CRSS", tc.ns, tc.st, nil); err == nil {
				t.Fatalf("appendKNN encoded %v", f)
			}
		}
	}
}

// TestWireNamesNeedNoEscaping: appendKNN writes algorithm and event
// type names between quotes as they are, which is right only while
// JSON would not escape a byte of any of them.
func TestWireNamesNeedNoEscaping(t *testing.T) {
	var names []string
	for _, alg := range algorithms {
		names = append(names, alg.Name())
	}
	for typ := 0; typ < 256; typ++ {
		names = append(names, obs.EventType(typ).String())
	}
	for _, name := range names {
		if b, err := json.Marshal(name); err != nil || string(b) != `"`+name+`"` {
			t.Fatalf("json.Marshal(%q) = %s, %v: the name needs escaping", name, b, err)
		}
	}
}

// staticBackend answers every query with the same neighbors and stats,
// allocating nothing.
type staticBackend struct {
	ns     []query.Neighbor
	st     *query.Stats
	depths []int64
}

func (b *staticBackend) KNN(context.Context, query.Algorithm, geom.Point, int, query.Options) ([]query.Neighbor, *query.Stats, error) {
	return b.ns, b.st, nil
}

func (b *staticBackend) QueueDepths() []int64 { return b.depths }

// TestKNNHandlerAllocatesNothing: with trace off, serving a query whose
// body has the shape encoders write (compact, spaced, keys in another
// case) from a backend that allocates nothing allocates nothing in the
// server — quota and watermark on, named tenants and the anonymous one.
// A body of another shape (bob's, with an unknown key) goes to
// encoding/json, which allocates; it only has to be answered. Run with
// the collector off, as the engine's allocation budgets are: a
// collection empties the pool.
func TestKNNHandlerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	be := &staticBackend{
		ns:     []query.Neighbor{{Object: 7, DistSq: 0.25}, {Object: 9, DistSq: 2.5e-7}},
		st:     &query.Stats{NodesVisited: 3, DiskAccesses: 3, Batches: 2, PerDisk: []int{1, 2}, Instructions: 1e3},
		depths: []int64{0, 0},
	}
	srv, err := New(Config{Backend: be, QuotaRate: 1e9, QueueWatermark: 1 << 20, SLOTarget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleEncode(t, "CRSS", be.ns, be.st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		tenant, body string
		fallback     bool
	}{
		{"", `{"point":[0.5,0.5],"k":2}`, false},
		{"alice", `{"algorithm":"crss","k":2,"point":[0.25,0.75]}`, false},
		{"carol", "{\n  \"point\": [ 0.5, -2.5E+2 ],\n  \"k\": 2, \"algorithm\": \"CRSS\", \"trace\": false\n}", false},
		{"dave", "{\"POINT\":[1e-3],\"\u212a\":2,\"Algorithm\":\"crss\",\"Trace\":false}", false},
		{"bob", `{"Point":[1e-3,-2.5E+2],"k":2,"algorithm":"crss","x":{"y":[null,true,"é"]}}`, true},
	} {
		w, r := newReplayWriter(), newReplayRequest(tc.body, tc.tenant)
		serve := func() {
			r.reset()
			w.reset()
			srv.Handler().ServeHTTP(w, r.req)
			if w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), want) {
				t.Fatalf("body %s: status %d, answer %q, want %q", tc.body, w.status, w.body.Bytes(), want)
			}
		}
		serve() // creates the tenant's row and grows the scratch
		if tc.fallback {
			continue
		}
		if n := testing.AllocsPerRun(200, serve); n != 0 {
			t.Errorf("tenant %q, body %s: %.2f allocations per request, want 0", tc.tenant, tc.body, n)
		}
	}
}

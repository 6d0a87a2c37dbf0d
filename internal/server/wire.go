package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/query"
)

// The /v1/knn wire format. A request body of the shape encoders write
// — one object of point, k, algorithm and trace with plain values — is
// read by hand over buffers the request borrows from a pool, so it
// allocates nothing; every other body goes to encoding/json, whose
// verdict and error text it gets (knnScratch.decode, FuzzKNNRequest).
// A 200 answer has one fixed shape, and appendKNN writes it byte for
// byte as json.Marshal would (TestAppendKNNMatchesMarshal). Error
// bodies and /v1/stats stay on encoding/json: they are cold, and they
// carry the only strings that need escaping.

// maxKNNBodyBytes bounds the POST /v1/knn body: the server buffers a
// request's body while decoding, so an unbounded body is memory a
// client controls. A query point of a thousand dimensions is under
// 32 KiB of JSON; a larger body is refused with 413.
const maxKNNBodyBytes = 64 << 10

// knnRequest is the POST /v1/knn body as encoding/json decodes it.
type knnRequest struct {
	Point     []float64 `json:"point"`
	K         int       `json:"k"`
	Algorithm string    `json:"algorithm,omitempty"`
	Trace     bool      `json:"trace,omitempty"`
}

// knnScratch is one /v1/knn request's memory, taken from scratchPool
// for the request and put back when its answer is written. Nothing in
// it outlives the request: the point is passed to the backend, which
// keeps no reference once KNN returns.
type knnScratch struct {
	body []byte // the request body as read

	// The decoded request. On the hand path point and alg alias pts and
	// body.
	point []float64
	k     int
	alg   []byte
	trace bool

	pts []float64 // backs point on the hand path

	out []byte // the 200 body
}

var scratchPool = sync.Pool{New: func() any {
	return &knnScratch{body: make([]byte, 0, 512), out: make([]byte, 0, 1024)}
}}

// errBodyTooLarge is readBody's verdict on a body over maxKNNBodyBytes.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxKNNBodyBytes)

// readBody reads the request body into s.body, stopping once it holds
// more than maxKNNBodyBytes bytes.
func (s *knnScratch) readBody(body io.Reader) error {
	b := s.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxKNNBodyBytes+1)])
		b = b[:len(b)+n]
		s.body = b
		switch {
		case len(b) > maxKNNBodyBytes:
			return errBodyTooLarge
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// decode parses s.body as json.Decoder.Decode parses it into a
// knnRequest: on the hand path when the body has its shape, else with
// encoding/json itself.
func (s *knnScratch) decode() error {
	if s.decodeHand() {
		return nil
	}
	var req knnRequest
	if err := json.NewDecoder(bytes.NewReader(s.body)).Decode(&req); err != nil {
		return err
	}
	s.point, s.k, s.alg, s.trace = req.Point, req.K, []byte(req.Algorithm), req.Trace
	return nil
}

// Keys are matched the way encoding/json matches a key to a field
// without an exact match: bytes.EqualFold, so "POINT" and "K" (the
// Kelvin sign, which folds to k) select point and k.
var (
	keyPoint     = []byte("point")
	keyK         = []byte("k")
	keyAlgorithm = []byte("algorithm")
	keyTrace     = []byte("trace")
	litTrue      = []byte("true")
	litFalse     = []byte("false")
)

// decodeHand decodes s.body when it is one object whose keys are point,
// k, algorithm and trace, with JSON whitespace between any two tokens,
// and whose values are: for point, an array of numbers; for k, an
// integer literal in int's range; for algorithm, a string with no
// escape, no control byte and valid UTF-8, which is then its own value;
// for trace, true or false. A repeated key decodes again, so the last
// wins, and nothing past the object is read: encoding/json does both
// the same. On any other body it reports false, and what it left in s
// does not count.
func (s *knnScratch) decodeHand() bool {
	s.point, s.k, s.alg, s.trace = nil, 0, nil, false
	r := reader{b: s.body}
	if !r.token('{') {
		return false
	}
	if r.token('}') {
		return true
	}
	for {
		key, ok := r.str()
		if !ok || !r.token(':') {
			return false
		}
		switch {
		case bytes.EqualFold(key, keyPoint):
			ok = s.decodePoint(&r)
		case bytes.EqualFold(key, keyK):
			ok = s.decodeK(&r)
		case bytes.EqualFold(key, keyAlgorithm):
			s.alg, ok = r.str()
			ok = ok && utf8.Valid(s.alg)
		case bytes.EqualFold(key, keyTrace):
			s.trace, ok = r.boolean()
		default:
			return false
		}
		if !ok {
			return false
		}
		if r.token('}') {
			return true
		}
		if !r.token(',') {
			return false
		}
	}
}

// decodePoint decodes point's value, an array of numbers, into pts.
func (s *knnScratch) decodePoint(r *reader) bool {
	if !r.token('[') {
		return false
	}
	pts := s.pts[:0]
	for !r.token(']') {
		if len(pts) > 0 && !r.token(',') {
			return false
		}
		num, ok := r.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return false
		}
		pts = append(pts, f)
	}
	s.pts, s.point = pts, pts
	return true
}

// decodeK decodes k's value: an integer literal in int's range, as
// strconv.ParseInt reads it (so "1.0" and "1e1" are declined).
func (s *knnScratch) decodeK(r *reader) bool {
	num, ok := r.number()
	if !ok {
		return false
	}
	k, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	s.k = int(k)
	return err == nil
}

// reader walks a body on the hand path.
type reader struct {
	b []byte
	i int
}

// accept consumes c if it is the next byte.
func (r *reader) accept(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// token skips JSON whitespace and consumes c if it comes next.
func (r *reader) token(c byte) bool {
	r.ws()
	return r.accept(c)
}

// digits consumes a run of decimal digits and reports its length.
func (r *reader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// number consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
// Checking the grammar first matters: strconv also reads "+1", "1.",
// "0x1p0", "1_0" and "Inf".
func (r *reader) number() ([]byte, bool) {
	r.ws()
	start := r.i
	r.accept('-')
	if !r.accept('0') && r.digits() == 0 {
		return nil, false
	}
	if r.accept('.') && r.digits() == 0 {
		return nil, false
	}
	if r.accept('e') || r.accept('E') {
		if !r.accept('+') {
			r.accept('-')
		}
		if r.digits() == 0 {
			return nil, false
		}
	}
	return r.b[start:r.i], true
}

// str consumes a string with no escape and no control byte and returns
// what is between its quotes.
func (r *reader) str() ([]byte, bool) {
	if !r.token('"') {
		return nil, false
	}
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// boolean consumes true or false.
func (r *reader) boolean() (v, ok bool) {
	r.ws()
	switch rest := r.b[r.i:]; {
	case bytes.HasPrefix(rest, litTrue):
		r.i += len(litTrue)
		return true, true
	case bytes.HasPrefix(rest, litFalse):
		r.i += len(litFalse)
		return false, true
	}
	return false, false
}

// algorithms holds every name query.AlgorithmByName resolves among the
// registry's names in lower and upper case, and "". The handler looks a
// request's name up with algorithms[string(b)], which does not allocate;
// it asks AlgorithmByName only on a miss, for the aliases and the error.
var algorithms = func() map[string]query.Algorithm {
	m := make(map[string]query.Algorithm)
	for _, name := range append(query.AlgorithmNames(), "") {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			if alg, err := query.AlgorithmByName(spelling); err == nil {
				m[spelling] = alg
			}
		}
	}
	return m
}()

// appendKNN appends the 200 body of a /v1/knn answer to b: byte for
// byte what json.Marshal writes for {algorithm, neighbors: [{object,
// distsq}], stats (omitted when nil), trace (omitted when empty)},
// and a newline. It fails on a float JSON cannot carry (NaN, ±Inf),
// where json.Marshal fails too. alg and the event type names are written
// without escaping: none of them holds a byte JSON escapes
// (TestWireNamesNeedNoEscaping).
func appendKNN(b []byte, alg string, ns []query.Neighbor, st *query.Stats, trace []obs.Event) ([]byte, error) {
	b = append(b, `{"algorithm":"`...)
	b = append(b, alg...)
	b = append(b, `","neighbors":[`...)
	ok := true
	for i, n := range ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"object":`...)
		b = strconv.AppendInt(b, int64(n.Object), 10)
		b = append(b, `,"distsq":`...)
		b, ok = appendFloat(b, n.DistSq)
		if !ok {
			return b, fmt.Errorf("neighbor %d: distsq %v has no JSON form", i, n.DistSq)
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if st != nil {
		b = append(b, `,"stats":{"NodesVisited":`...)
		b = strconv.AppendInt(b, int64(st.NodesVisited), 10)
		b = append(b, `,"DiskAccesses":`...)
		b = strconv.AppendInt(b, int64(st.DiskAccesses), 10)
		b = append(b, `,"Batches":`...)
		b = strconv.AppendInt(b, int64(st.Batches), 10)
		b = append(b, `,"MaxParallel":`...)
		b = strconv.AppendInt(b, int64(st.MaxParallel), 10)
		b = append(b, `,"PerDisk":`...)
		if st.PerDisk == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, n := range st.PerDisk {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(n), 10)
			}
			b = append(b, ']')
		}
		b = append(b, `,"Scanned":`...)
		b = strconv.AppendInt(b, int64(st.Scanned), 10)
		b = append(b, `,"Sorted":`...)
		b = strconv.AppendInt(b, int64(st.Sorted), 10)
		b = append(b, `,"Instructions":`...)
		b, ok = appendFloat(b, st.Instructions)
		if !ok {
			return b, fmt.Errorf("stats: instructions %v has no JSON form", st.Instructions)
		}
		b = append(b, '}')
	}
	if len(trace) > 0 {
		b = append(b, `,"trace":[`...)
		for i, e := range trace {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendEvent(b, e)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendEvent writes one trace event: type and stage always, the other
// fields only when they are not zero (they are omitempty on the wire).
func appendEvent(b []byte, e obs.Event) []byte {
	b = append(b, `{"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, `","stage":`...)
	b = strconv.AppendInt(b, int64(e.Stage), 10)
	b = appendNonZero(b, `,"page":`, e.Page)
	b = appendNonZero(b, `,"disk":`, int64(e.Disk))
	b = appendNonZero(b, `,"pages":`, int64(e.Pages))
	if e.Cached {
		b = append(b, `,"cached":true`...)
	}
	b = appendNonZero(b, `,"batch":`, int64(e.Batch))
	if e.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	b = appendNonZero(b, `,"wall_ns":`, e.Wall.Nanoseconds())
	return append(b, '}')
}

// appendNonZero writes key and v unless v is zero.
func appendNonZero(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendFloat writes f as encoding/json does — like strconv's shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped ("1e-07" becomes "1e-7") — or reports
// false for NaN and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

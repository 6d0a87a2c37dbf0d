package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/obs"
	"repro/internal/query"
)

// The /v1/knn wire format is read and written here without
// encoding/json. A request has four fields and a 200 response has one
// fixed shape, so a decoder and an encoder written for them need no
// reflection, and over buffers a request borrows from a pool they
// allocate nothing. Both follow encoding/json to the byte:
// knnScratch.decode accepts exactly the bodies json.Decoder.Decode
// accepts into the four fields, and yields the same values
// (FuzzKNNRequest); appendKNN writes what json.Marshal writes
// (TestAppendKNNMatchesMarshal). Error bodies and /v1/stats stay on
// encoding/json: they are cold, and they carry the only strings that
// need escaping.

// maxKNNBodyBytes bounds the POST /v1/knn body: the server buffers a
// request's body while decoding, so an unbounded body is memory a
// client controls. A query point of a thousand dimensions is under
// 32 KiB of JSON; a larger body is refused with 413.
const maxKNNBodyBytes = 64 << 10

// maxNestingDepth is encoding/json's bound on nested arrays and
// objects: a deeper body is a syntax error there, so it is one here.
const maxNestingDepth = 10000

// knnScratch is one /v1/knn request's memory, taken from scratchPool
// for the request and put back when its answer is written. Nothing in
// it outlives the request: the point is passed to the backend, which
// keeps no reference once KNN returns.
type knnScratch struct {
	body []byte // the request body as read
	r    reader // decode's position in body

	// The decoded request. point and alg alias pts, algBuf or body.
	point []float64
	k     int
	alg   []byte
	trace bool

	// pts backs point; len(pts) == cap(pts). Its first pointHW entries
	// hold what this request's "point" arrays last wrote there, the rest
	// count as zero (see decodePoint).
	pts     []float64
	pointHW int
	key     []byte // an object key, when it had to be unescaped
	algBuf  []byte // the algorithm name, when it had to be unescaped

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

// Keys are matched the way encoding/json matches a key to a field
// without an exact match: bytes.EqualFold, so "POINT" and "K" (the
// Kelvin sign, which folds to k) select point and k.
var (
	keyPoint     = []byte("point")
	keyK         = []byte("k")
	keyAlgorithm = []byte("algorithm")
	keyTrace     = []byte("trace")
)

// decode parses s.body as json.Decoder.Decode parses it into
// struct{Point []float64; K int; Algorithm string; Trace bool} with
// keys point, k, algorithm and trace: one JSON value after optional
// whitespace, nothing read past it; the object's duplicate keys decode
// in order, so the last one wins; null leaves a field as it is, except
// that it empties point; a body of null decodes to the zero request.
func (s *knnScratch) decode() error {
	s.point, s.k, s.alg, s.trace, s.pointHW = nil, 0, nil, false, 0
	r := &s.r
	r.b, r.i = s.body, 0
	r.ws()
	switch r.peek() {
	case '{':
	case 'n':
		return r.literal("null")
	default:
		if r.i == len(r.b) {
			return errUnexpectedEnd
		}
		return errors.New("request body is not a JSON object")
	}
	r.i++
	r.ws()
	if r.peek() == '}' {
		return nil
	}
	for {
		key, clean, err := r.str("looking for beginning of object key string")
		if err != nil {
			return err
		}
		if !clean {
			s.key = unquote(s.key[:0], key)
			key = s.key
		}
		r.ws()
		if err := r.expect(':', "after object key"); err != nil {
			return err
		}
		r.ws()
		switch {
		case bytes.EqualFold(key, keyPoint):
			err = s.decodePoint()
		case bytes.EqualFold(key, keyK):
			err = s.decodeK()
		case bytes.EqualFold(key, keyAlgorithm):
			err = s.decodeAlgorithm()
		case bytes.EqualFold(key, keyTrace):
			err = s.decodeTrace()
		default:
			err = r.skip(1)
		}
		if err != nil {
			return err
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
			r.ws()
		case '}':
			return nil
		default:
			return r.fail("after object key:value pair")
		}
	}
}

// decodePoint decodes point's value. encoding/json decodes an array
// into the slice the field already holds, so a duplicate key reuses the
// earlier array's memory, and a null element leaves what is there: the
// value the last earlier array wrote at that index, or zero where none
// did (memory a slice grows into is zeroed, and growing keeps the old
// backing array's contents). null and [] replace the slice, so the next
// array starts over on zeroed memory.
func (s *knnScratch) decodePoint() error {
	r := &s.r
	switch r.peek() {
	case 'n':
		s.point, s.pointHW = nil, 0
		return r.literal("null")
	case '[':
	default:
		return r.typeError("point", "[]float64")
	}
	r.i++
	r.ws()
	if r.peek() == ']' {
		r.i++
		s.point, s.pointHW = s.pts[:0], 0
		return nil
	}
	for n := 0; ; n++ {
		if n == len(s.pts) {
			s.pts = append(s.pts, 0)
			s.pts = s.pts[:cap(s.pts)]
		}
		if n >= s.pointHW {
			s.pts[n] = 0
			s.pointHW = n + 1
		}
		switch c := r.peek(); {
		case c == 'n':
			if err := r.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			num, err := r.number()
			if err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				return fmt.Errorf("json: cannot unmarshal number %s into point of type float64", num)
			}
			s.pts[n] = f
		default:
			return r.typeError("point", "float64")
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
			r.ws()
		case ']':
			r.i++
			s.point = s.pts[:n+1]
			return nil
		default:
			return r.fail("after array element")
		}
	}
}

// decodeK decodes k's value: an integer literal in int's range, as
// strconv.ParseInt reads it (so "1.0" and "1e1" are refused).
func (s *knnScratch) decodeK() error {
	r := &s.r
	switch c := r.peek(); {
	case c == 'n':
		return r.literal("null")
	case c == '-' || isDigit(c):
		num, err := r.number()
		if err != nil {
			return err
		}
		k, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		if err != nil {
			return fmt.Errorf("json: cannot unmarshal number %s into k of type int", num)
		}
		s.k = int(k)
		return nil
	default:
		return r.typeError("k", "int")
	}
}

func (s *knnScratch) decodeAlgorithm() error {
	r := &s.r
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '"':
		name, clean, err := r.str("")
		if err != nil {
			return err
		}
		if !clean {
			s.algBuf = unquote(s.algBuf[:0], name)
			name = s.algBuf
		}
		s.alg = name
		return nil
	default:
		return r.typeError("algorithm", "string")
	}
}

func (s *knnScratch) decodeTrace() error {
	r := &s.r
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case 't':
		s.trace = true
		return r.literal("true")
	case 'f':
		s.trace = false
		return r.literal("false")
	default:
		return r.typeError("trace", "bool")
	}
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// reader walks a JSON text, checking it as strictly as encoding/json's
// scanner does.
type reader struct {
	b    []byte
	i    int
	nest []byte // the open arrays and objects while skipping a value
}

// peek returns the next byte, or 0 at the end (0 begins no JSON token).
func (r *reader) peek() byte {
	if r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

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

func (r *reader) fail(context string) error {
	if r.i >= len(r.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", r.b[r.i], context, r.i)
}

// typeError refuses a value of the wrong JSON type for field. The value
// may also be malformed; encoding/json refuses such a body too.
func (r *reader) typeError(field, goType string) error {
	if r.i >= len(r.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("json: cannot unmarshal value starting %q into %s of type %s", r.b[r.i], field, goType)
}

func (r *reader) expect(c byte, context string) error {
	if r.peek() != c {
		return r.fail(context)
	}
	r.i++
	return nil
}

// literal consumes lit: true, false or null.
func (r *reader) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if r.peek() != lit[j] {
			return r.fail("in literal " + lit)
		}
		r.i++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func (r *reader) digits() {
	for isDigit(r.peek()) {
		r.i++
	}
}

// number consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
// Checking the grammar first matters: strconv also reads "+1", "1.",
// "0x1p0", "1_0" and "Inf".
func (r *reader) number() ([]byte, error) {
	start := r.i
	if r.peek() == '-' {
		r.i++
	}
	switch c := r.peek(); {
	case c == '0':
		r.i++
	case isDigit(c):
		r.digits()
	default:
		return nil, r.fail("in numeric literal")
	}
	if r.peek() == '.' {
		r.i++
		if !isDigit(r.peek()) {
			return nil, r.fail("after decimal point in numeric literal")
		}
		r.digits()
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		r.i++
		if c := r.peek(); c == '+' || c == '-' {
			r.i++
		}
		if !isDigit(r.peek()) {
			return nil, r.fail("in exponent of numeric literal")
		}
		r.digits()
	}
	return r.b[start:r.i], nil
}

// str consumes a string and returns what is between its quotes. clean
// reports that the text is its own value — no escapes, valid UTF-8 —
// else the caller unquotes it.
func (r *reader) str(context string) (raw []byte, clean bool, err error) {
	if r.peek() != '"' {
		return nil, false, r.fail(context)
	}
	r.i++
	start, escaped, ascii := r.i, false, true
	for {
		switch c := r.peek(); {
		case c == '"':
			raw = r.b[start:r.i]
			r.i++
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			r.i++
			switch r.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				r.i++
			case 'u':
				r.i++
				for j := 0; j < 4; j++ {
					if !isHex(r.peek()) {
						return nil, false, r.fail("in \\u hexadecimal character escape")
					}
					r.i++
				}
			default:
				return nil, false, r.fail("in string escape code")
			}
		case c < 0x20:
			// Control characters are invalid in a string; so is the end.
			return nil, false, r.fail("in string literal")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			r.i++
		}
	}
}

// unquote appends the value of raw — the inside of a string str
// accepted — to dst, as encoding/json unquotes it: escapes resolved, a
// surrogate pair joined, an unpaired surrogate and every byte of invalid
// UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'u':
				rr := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(rr) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if pair := utf16.DecodeRune(rr, hex4(raw[i+2:])); pair != utf8.RuneError {
							dst = utf8.AppendRune(dst, pair)
							i += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			rr, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, rr)
			i += size
		}
	}
	return dst
}

// hex4 reads the four hex digits str checked after a \u.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// key consumes an object key and its colon, inside a skipped value.
func (r *reader) key() error {
	if _, _, err := r.str("looking for beginning of object key string"); err != nil {
		return err
	}
	r.ws()
	if err := r.expect(':', "after object key"); err != nil {
		return err
	}
	r.ws()
	return nil
}

// skip consumes one value of any type — an unknown key's — with depth
// arrays and objects around it, checking it as encoding/json's scanner
// does, nesting bound included. It keeps the open containers in r.nest
// rather than on the call stack.
func (r *reader) skip(depth int) error {
	r.nest = r.nest[:0]
	for {
		switch c := r.peek(); {
		case c == '{' || c == '[':
			if depth+len(r.nest)+1 > maxNestingDepth {
				return r.fail("exceeded max depth")
			}
			r.i++
			r.ws()
			if r.peek() == c+2 { // '}' and ']' follow '{' and '[' by two
				r.i++
				break
			}
			r.nest = append(r.nest, c)
			if c == '{' {
				if err := r.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := r.str(""); err != nil {
				return err
			}
		case c == 't':
			if err := r.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := r.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := r.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := r.number(); err != nil {
				return err
			}
		default:
			return r.fail("looking for beginning of value")
		}
		// A value is complete: close what it completes, up to the next one.
		for {
			if len(r.nest) == 0 {
				return nil
			}
			r.ws()
			open := r.nest[len(r.nest)-1]
			c := r.peek()
			if c == ',' {
				r.i++
				r.ws()
				if open == '{' {
					if err := r.key(); err != nil {
						return err
					}
				}
				break
			}
			if c != open+2 {
				return r.fail("after array element or object value")
			}
			r.i++
			r.nest = r.nest[:len(r.nest)-1]
		}
	}
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

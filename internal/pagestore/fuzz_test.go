package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// FuzzWALRecord exercises the WAL record codec from both directions:
// DecodeWALRecord must reject (never panic on) arbitrary bytes — after
// a crash the log tail can hold anything at all — and every record it
// accepts must re-encode to exactly the bytes it consumed, so replay
// and append agree on record boundaries. The synthesized direction
// pins the encoder: any record AppendWALRecord emits must decode back
// losslessly, including with trailing garbage after it.
func FuzzWALRecord(f *testing.F) {
	// One genuine record of each type so coverage starts past the
	// checksum, plus classic crash tails.
	for _, rec := range []WALRecord{
		{LSN: 1, Type: WALPage, Payload: pageRecordPayload(3, PageRecord{}, make([]byte, 64))},
		{LSN: 2, Type: WALFree, Payload: freeRecordPayload(9)},
		{LSN: 3, Type: WALCommit, Payload: commitRecordPayload(1, 100, 17)},
	} {
		f.Add(AppendWALRecord(nil, rec))
	}
	f.Add([]byte{})
	f.Add(make([]byte, walRecHeader+walRecTrailer)) // zeroed minimal record
	torn := AppendWALRecord(nil, WALRecord{LSN: 4, Type: WALCommit, Payload: commitRecordPayload(2, 5, 6)})
	f.Add(torn[:len(torn)-3]) // torn trailer

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes. A successful decode must be an
		// exact fixpoint over the consumed prefix.
		if rec, n, err := DecodeWALRecord(data); err == nil {
			if n < walRecHeader+walRecTrailer || n > len(data) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(data))
			}
			buf := AppendWALRecord(nil, rec)
			if !bytes.Equal(buf, data[:n]) {
				t.Fatalf("re-encode is not a fixpoint:\n% x\n% x", buf, data[:n])
			}
		} else if !errors.Is(err, errTornRecord) {
			t.Fatalf("decode error is not a torn-record error: %v", err)
		}

		// Direction 2: synthesize a record from the input stream and
		// require a lossless round trip, with and without a garbage tail.
		rd := bytes.NewReader(data)
		next := func() uint64 {
			var b [8]byte
			io.ReadFull(rd, b[:]) // zero-pads at EOF
			return binary.LittleEndian.Uint64(b[:])
		}
		types := []byte{WALPage, WALFree, WALCommit}
		rec := WALRecord{LSN: next(), Type: types[next()%3]}
		plen := int(next() % 256)
		rec.Payload = make([]byte, plen)
		io.ReadFull(rd, rec.Payload)
		buf := AppendWALRecord(nil, rec)
		for _, tail := range [][]byte{nil, {0xFF, 0x00, 0xA5}} {
			got, n, err := DecodeWALRecord(append(append([]byte(nil), buf...), tail...))
			if err != nil {
				t.Fatalf("decode of encoded record failed: %v", err)
			}
			if n != len(buf) {
				t.Fatalf("decode consumed %d bytes, record is %d", n, len(buf))
			}
			if got.LSN != rec.LSN || got.Type != rec.Type || !bytes.Equal(got.Payload, rec.Payload) {
				t.Fatalf("round trip changed record: got %+v, want %+v", got, rec)
			}
		}
	})
}

// FuzzRecordTable exercises the record-table codec from both
// directions: decodeTable must reject (never panic on) arbitrary bytes
// — a crash or a damaged disk can leave anything in a table file — and
// every table it accepts must re-encode to exactly its bytes. A table
// synthesized from the input must decode back to itself, and with any
// single byte changed must be refused.
func FuzzRecordTable(f *testing.F) {
	seed := appendTable(nil, &recordTable{
		seq: 3, layout: Codec{Dim: 2, PageSize: 4096}, meta: treeMeta{Root: 5, Size: 40, NextID: 10},
		state: []byte{7, 7}, recs: map[rtree.PageID]PageRecord{1: {1, 2}, 5: {0xAB}, 9: {}},
	}, []rtree.PageID{1, 5, 9})
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // torn
	f.Add([]byte{})
	f.Add(appendTable(nil, &recordTable{ // an SR tree's
		seq: 4, layout: Codec{Dim: 3, PageSize: 512, Spheres: true}, meta: treeMeta{Root: 2, Size: 9, NextID: 3},
		recs: map[rtree.PageID]PageRecord{2: {9}},
	}, []rtree.PageID{2}))
	f.Add(version1Table(4, Codec{Dim: 8, PageSize: 4096})) // an earlier format's

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes. A table that decodes is the
		// encoding of what it decodes to.
		if tb, err := decodeTable(data); err == nil {
			if buf := appendTable(nil, &tb, sortedIDs(nil, tb.recs)); !bytes.Equal(buf, data) {
				t.Fatalf("re-encode is not a fixpoint:\n% x\n% x", buf, data)
			}
		}

		// Direction 2: synthesize a table from the input stream, require
		// a lossless round trip, then change each byte of it.
		rd := bytes.NewReader(data)
		next := func() uint64 {
			var b [8]byte
			io.ReadFull(rd, b[:]) // zero-pads at EOF
			return binary.LittleEndian.Uint64(b[:])
		}
		want := recordTable{
			seq:    next(),
			layout: Codec{Dim: int(uint16(next())), PageSize: int(uint32(next())), Spheres: next()%2 == 1},
			meta: treeMeta{
				Root:   rtree.PageID(next() % (math.MaxInt32 + 1)),
				Size:   int(next()),
				NextID: rtree.PageID(next()%math.MaxInt32 + 1),
			},
			state: make([]byte, next()%64),
			recs:  make(map[rtree.PageID]PageRecord),
		}
		io.ReadFull(rd, want.state)
		for n := next() % 16; n > 0; n-- {
			var rec PageRecord
			io.ReadFull(rd, rec[:])
			want.recs[rtree.PageID(next()%math.MaxInt32+1)] = rec
		}
		buf := appendTable(nil, &want, sortedIDs(nil, want.recs))
		got, err := decodeTable(buf)
		if err != nil {
			t.Fatalf("decode of an encoded table: %v", err)
		}
		if got.seq != want.seq || got.layout != want.layout || got.meta != want.meta ||
			!bytes.Equal(got.state, want.state) || !maps.Equal(got.recs, want.recs) {
			t.Fatalf("round trip changed the table: got %+v, want %+v", got, want)
		}
		masks := [3]byte{0x01, 0xFF, byte(next()) | 1}
		for i := range buf {
			m := masks[i%len(masks)]
			buf[i] ^= m
			if _, err := decodeTable(buf); err == nil {
				t.Fatalf("byte %d of %d changed (^%#02x), and the table still decodes", i, len(buf), m)
			}
			buf[i] ^= m
		}
	})
}

// FuzzPageCodec exercises the page codec from both directions and both
// decoders against each other: Decode and DecodeNode must reject (never
// panic on) arbitrary byte images and agree on which they accept, the
// view Decode builds must equal the view of the node DecodeNode builds
// field by field, and every node the harness synthesizes must survive
// Encode → DecodeNode → Encode with a bit-identical page image. The
// second Encode pins the codec as a fixpoint: any field a decoder drops
// or rewrites shows up as a byte diff.
func FuzzPageCodec(f *testing.F) {
	// A genuine page of each layout so coverage starts past the header
	// checks: a leaf (version 3, an SR tree's too) and an SR directory
	// page (version 2).
	for _, spheres := range []bool{false, true} {
		c := Codec{Dim: 2, PageSize: 256, Spheres: spheres}
		for _, n := range []*rtree.Node{
			{ID: 7, Level: 0, Entries: []rtree.Entry{rtree.LeafEntry(geom.Point{0, 1}, 42)}},
			{ID: 8, Level: 1, Entries: []rtree.Entry{{
				Rect:  geom.Rect{Lo: geom.Point{0, 1}, Hi: geom.Point{2, 3}},
				Child: 7, Count: 1,
				Sphere: geom.Sphere{Center: geom.Point{1, 2}, Radius: 1.5},
			}}},
		} {
			if !spheres && n.Level > 0 {
				continue
			}
			buf, err := c.Encode(n)
			if err != nil {
				f.Fatalf("seed encode: %v", err)
			}
			f.Add(buf, byte(1), spheres)
		}
	}
	// Point leaves, and a directory page beside them, at 2-d and 8-d.
	for _, dim := range []int{2, 8} {
		c := Codec{Dim: dim, PageSize: 512}
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = float64(a) - 0.5
		}
		for _, n := range []*rtree.Node{
			{ID: 7, Level: 0, Entries: []rtree.Entry{rtree.LeafEntry(p, 42), rtree.LeafEntry(p, 43)}},
			{ID: 8, Level: 1, Entries: []rtree.Entry{{Rect: geom.Rect{Lo: p, Hi: p}, Child: 7, Count: 2}}},
		} {
			buf, err := c.Encode(n)
			if err != nil {
				f.Fatalf("seed encode: %v", err)
			}
			f.Add(buf, byte(dim-1), false)
		}
	}
	f.Add([]byte{magic, versionPoint, 0, 0, 1, 0}, byte(1), false) // truncated point header
	f.Add([]byte{}, byte(0), false)
	f.Add([]byte{magic, versionRect, 0, 0, 255, 255}, byte(0), false) // truncated header
	// Full-size images whose stored page id is 7+2³² and whose child
	// reference is 9+2³²: both used to truncate to valid-looking ids.
	{
		c := Codec{Dim: 2, PageSize: 512}
		n := &rtree.Node{ID: 7, Level: 1, Entries: []rtree.Entry{{
			Rect: geom.Rect{Lo: geom.Point{0, 1}, Hi: geom.Point{2, 3}}, Child: 9, Count: 4,
		}}}
		for _, off := range []int{8, headerSize + 2*2*8} {
			buf, err := c.Encode(n)
			if err != nil {
				f.Fatalf("seed encode: %v", err)
			}
			binary.LittleEndian.PutUint64(buf[off:], binary.LittleEndian.Uint64(buf[off:])+1<<32)
			f.Add(buf, byte(1), false)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, dimByte byte, spheres bool) {
		dim := 1 + int(dimByte)%8
		c := Codec{Dim: dim, PageSize: 512, Spheres: spheres}

		// Direction 1: arbitrary bytes. Both decoders return an error, or
		// one page in two forms that agree; the decoded node must
		// re-encode and decode to the same page image.
		view, errFlat := c.Decode(data)
		n, errNode := c.DecodeNode(data)
		if (errFlat == nil) != (errNode == nil) {
			t.Fatalf("decoders disagree: Decode %v, DecodeNode %v", errFlat, errNode)
		}
		if errNode == nil {
			if err := flatEqual(view, rtree.BuildFlat(n)); err != nil {
				t.Fatalf("Decode differs from BuildFlat(DecodeNode): %v", err)
			}
			buf, err := c.Encode(n)
			if err != nil {
				t.Fatalf("re-encode of decoded node failed: %v", err)
			}
			n2, err := c.DecodeNode(buf)
			if err != nil {
				t.Fatalf("decode of re-encoded page failed: %v", err)
			}
			buf2, err := c.Encode(n2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(buf, buf2) {
				t.Fatalf("encode is not a fixpoint:\n% x\n% x", buf, buf2)
			}
		}

		// Direction 2: synthesize a structurally valid node from the
		// input stream and require a lossless round trip.
		rd := bytes.NewReader(data)
		next := func() uint64 {
			var b [8]byte
			io.ReadFull(rd, b[:]) // zero-pads at EOF
			return binary.LittleEndian.Uint64(b[:])
		}
		coord := func() float64 { return float64(int16(next())) / 16 }

		level := int(next() % 3)
		count := int(next() % uint64(c.Capacity(level)+1))
		n = &rtree.Node{ID: rtree.PageID(next()%(1<<30) + 1), Level: level}
		for i := 0; i < count; i++ {
			lo := make(geom.Point, dim)
			hi := make(geom.Point, dim)
			for d := range lo {
				a, b := coord(), coord()
				if a > b {
					a, b = b, a
				}
				lo[d], hi[d] = a, b
			}
			e := rtree.Entry{Rect: geom.Rect{Lo: lo, Hi: hi}, Count: int(next() % (1 << 31))}
			if level == 0 {
				e.Rect.Hi, e.Count = lo, 1
			}
			if level == 0 {
				e.Object = rtree.ObjectID(next())
			} else {
				e.Child = rtree.PageID(next()%(1<<30) + 1)
			}
			if spheres && level > 0 {
				center := make(geom.Point, dim)
				for d := range center {
					center[d] = coord()
				}
				e.Sphere = geom.Sphere{Center: center, Radius: float64(next()%4096) / 16}
			}
			n.Entries = append(n.Entries, e)
		}

		buf, err := c.Encode(n)
		if err != nil {
			t.Fatalf("encode of synthesized node failed: %v", err)
		}
		if len(buf) != c.PageSize {
			t.Fatalf("encoded page is %d bytes, want %d", len(buf), c.PageSize)
		}
		n2, err := c.DecodeNode(buf)
		if err != nil {
			t.Fatalf("decode of synthesized page failed: %v", err)
		}
		if n2.ID != n.ID || n2.Level != n.Level || len(n2.Entries) != len(n.Entries) {
			t.Fatalf("round trip changed header: got (%d,%d,%d), want (%d,%d,%d)",
				n2.ID, n2.Level, len(n2.Entries), n.ID, n.Level, len(n.Entries))
		}
		buf2, err := c.Encode(n2)
		if err != nil {
			t.Fatalf("re-encode of round-tripped node failed: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("round trip is not lossless:\n% x\n% x", buf, buf2)
		}
		view, err = c.Decode(buf)
		if err != nil {
			t.Fatalf("flat decode of synthesized page failed: %v", err)
		}
		if err := viewsNode(view, n); err != nil {
			t.Fatalf("flat decode of synthesized page: %v", err)
		}
	})
}

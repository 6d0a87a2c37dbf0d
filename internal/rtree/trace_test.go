package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/geom"
)

func TestTraceOpInsert(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(51, 500, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	// A plain insert reads the root-to-leaf path and writes at least the
	// leaf.
	trace := tr.TraceOp(func() {
		_ = tr.InsertPoint(geom.Point{500, 500}, 9999)
	})
	if len(trace.Reads) < tr.Height() {
		t.Errorf("insert read %d pages, height is %d", len(trace.Reads), tr.Height())
	}
	if len(trace.Writes) < 1 {
		t.Error("insert wrote no pages")
	}
	// IDs are sorted and unique.
	for i := 1; i < len(trace.Reads); i++ {
		if trace.Reads[i] <= trace.Reads[i-1] {
			t.Error("reads not sorted/unique")
		}
	}
}

func TestTraceOpDelete(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	pts := randPoints(52, 400, 2)
	for i, p := range pts {
		_ = tr.InsertPoint(p, ObjectID(i))
	}
	trace := tr.TraceOp(func() {
		if !tr.DeletePoint(pts[7], 7) {
			t.Fatal("delete failed")
		}
	})
	if len(trace.Reads) == 0 || len(trace.Writes) == 0 {
		t.Errorf("delete trace empty: %+v", trace)
	}
}

func TestTraceOpDisarmed(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 8})
	_ = tr.InsertPoint(geom.Point{1, 1}, 1)
	// Operations outside TraceOp must not leak into a later trace.
	_ = tr.InsertPoint(geom.Point{2, 2}, 2)
	trace := tr.TraceOp(func() {})
	if len(trace.Reads) != 0 || len(trace.Writes) != 0 {
		t.Errorf("empty op traced %+v", trace)
	}
}

func TestTraceOpSplitWritesMultiplePages(t *testing.T) {
	tr := mustTree(t, Config{Dim: 2, MaxEntries: 4, MinEntries: 2})
	// Fill one leaf to the brim; the next insert splits it.
	for i := 0; i < 4; i++ {
		_ = tr.InsertPoint(geom.Point{float64(i), 0}, ObjectID(i))
	}
	trace := tr.TraceOp(func() {
		_ = tr.InsertPoint(geom.Point{9, 0}, 99)
	})
	// Split: old leaf + new leaf + new root all written.
	if len(trace.Writes) < 3 {
		t.Errorf("split wrote only %v", trace.Writes)
	}
}

// TestTraceOpSetsPinned pins the read and write sets TraceOp reports
// for every step of a scripted run of inserts and deletes. The hashes
// were recorded before the write path's scans were pruned (PR 19,
// f4d14b0): a cheaper insert touches exactly the pages the dear one did.
func TestTraceOpSetsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"rstar-2d", Config{Dim: 2, MaxEntries: 8}, "94bd104fff8458bd8fb80124d44bcc650ef66f6bc53c6a632e6d4cda17e75af7"},
		{"sr-3d", Config{Dim: 3, MaxEntries: 10, UseSpheres: true}, "cb4e64cf1a6681fe077741c73f7dafdb4e3f795f8bcb6e0970e280ee3f29af5d"},
		{"x-6d", Config{Dim: 6, MaxEntries: 6, MaxOverlapRatio: 0.05}, "6027eb3dce36567eea57ea14ca5bc4d471656e157c5405eda46600a03ea9d4d7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := mustTree(t, c.cfg)
			pts := randPoints(77, 900, c.cfg.Dim)
			h := sha256.New()
			put := func(tag byte, ids []PageID) {
				h.Write([]byte{tag, byte(len(ids)), byte(len(ids) >> 8)})
				for _, id := range ids {
					h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
				}
			}
			deleted := 0
			for i, p := range pts {
				trace := tr.TraceOp(func() {
					if err := tr.InsertPoint(p, ObjectID(i)); err != nil {
						t.Fatal(err)
					}
				})
				put('r', trace.Reads)
				put('w', trace.Writes)
				// From the 300th insert on, every second step also deletes
				// the oldest object still alive.
				if i >= 300 && i%2 == 0 {
					trace = tr.TraceOp(func() {
						if !tr.DeletePoint(pts[deleted], ObjectID(deleted)) {
							t.Fatalf("delete of live object %d failed", deleted)
						}
					})
					deleted++
					put('R', trace.Reads)
					put('W', trace.Writes)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("trace hash = %s, want %s", got, c.want)
			}
		})
	}
}

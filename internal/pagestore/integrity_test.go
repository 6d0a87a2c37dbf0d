package pagestore

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// committed opens a durable store under a fresh directory and commits
// the given single-entry leaves to it, returning their page ids.
func committed(t *testing.T, rects ...geom.Rect) (*DurableStore, []rtree.PageID) {
	t.Helper()
	ds := openDurableT(t, t.TempDir(), nil)
	t.Cleanup(func() {
		if err := ds.Close(); err != nil {
			t.Error(err)
		}
	})
	ids := make([]rtree.PageID, len(rects))
	for i, r := range rects {
		n := ds.Allocate(0)
		n.Entries = append(n.Entries, rtree.LeafEntry(r, rtree.ObjectID(i+1)))
		ds.Update(n)
		ids[i] = n.ID
	}
	if err := ds.Commit(ids[0], len(ids), nil, nil); err != nil {
		t.Fatal(err)
	}
	return ds, ids
}

// Regression: a misdirected read — a well-formed page served from the
// wrong slot — must surface as a typed IntegrityError, not as a silently
// wrong node. Before the fix ReadPage returned whatever node the image
// decoded to. The read path is the data file's, where a checkpoint put
// both pages.
func TestReadPageDetectsMisdirectedRead(t *testing.T) {
	ds, ids := committed(t, geom.PointRect(geom.Point{1, 1}), geom.PointRect(geom.Point{2, 2}))
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	aID, bID := ids[0], ids[1]
	// Simulate the faulty disk: slot a now holds b's (valid!) image.
	img, err := ds.fs.ReadImage(bID)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.fs.WriteImage(aID, img); err != nil {
		t.Fatal(err)
	}
	_, err = ds.fs.ReadPage(aID)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("ReadPage after misdirection: err = %v, want *IntegrityError", err)
	}
	if ie.Want != aID || ie.Got != bID {
		t.Errorf("IntegrityError = want %d got %d; expected want %d got %d", ie.Want, ie.Got, aID, bID)
	}
	// The untouched slot still reads fine.
	if _, err := ds.fs.ReadPage(bID); err != nil {
		t.Fatalf("ReadPage(%d) = %v", bID, err)
	}
}

// Regression (satellite 2): Decode must reject an image that is not
// exactly one page. Before the fix trailing garbage was silently
// accepted.
func TestDecodeRejectsOversizedBuffer(t *testing.T) {
	c := Codec{Dim: 2, PageSize: 512}
	n := &rtree.Node{ID: 9, Level: 0}
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{3, 4}), 5))
	buf, err := c.Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	long := append(append([]byte(nil), buf...), 0xDE, 0xAD)
	for name, decode := range bothDecoders(c) {
		if decode(long) == nil {
			t.Errorf("%s accepted an oversized page image", name)
		}
		if decode(buf[:len(buf)-1]) == nil {
			t.Errorf("%s accepted an undersized page image", name)
		}
		if err := decode(buf); err != nil {
			t.Errorf("%s rejected an exact page image: %v", name, err)
		}
	}
}

// VerifyShadow compares geometry bitwise, so
// a NaN coordinate (equal to nothing, including itself) still verifies
// against its own round trip, and a -0/+0 substitution is corruption.
func TestVerifyShadowBitwise(t *testing.T) {
	nan := geom.Point{0, 0}
	nan[0] = nan[0] / nan[0] // NaN without the compiler folding a constant
	ds, ids := committed(t, geom.PointRect(nan))
	if err := ds.VerifyShadow(); err != nil {
		t.Fatalf("NaN round trip failed bitwise shadow check: %v", err)
	}
	// Flip the sign bit of one stored coordinate: tolerant comparison
	// (0.0 == -0.0) would miss it; bitwise must not.
	n := ds.Get(ids[0])
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := ds.fs.ReadImage(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	img[headerSize+2*8-1] = 0x80 // the sign of the point's second coordinate, 0
	if err := ds.fs.WriteImage(n.ID, img); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err == nil || !strings.Contains(err.Error(), "shadow mismatch") {
		t.Errorf("VerifyShadow over a -0/+0 substitution: %v, want a shadow mismatch", err)
	}
}

package pagestore

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// populatePair builds a store holding two distinct single-entry leaves.
func populatePair(t *testing.T) (*PagedStore, rtree.PageID, rtree.PageID) {
	t.Helper()
	ps := NewPagedStore(4096, 2)
	a := ps.Allocate(0)
	a.Entries = append(a.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{1, 1}), 1))
	ps.Update(a)
	b := ps.Allocate(0)
	b.Entries = append(b.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{2, 2}), 2))
	ps.Update(b)
	return ps, a.ID, b.ID
}

// Regression (satellite 1): a misdirected read — a well-formed page
// served from the wrong slot — must surface as a typed IntegrityError,
// not as a silently wrong node. Before the fix ReadPage returned
// whatever node the image decoded to.
func TestReadPageDetectsMisdirectedRead(t *testing.T) {
	ps, aID, bID := populatePair(t)
	// Simulate the faulty disk: slot a now holds b's (valid!) image.
	ps.mu.Lock()
	ps.pages[aID] = ps.pages[bID]
	ps.mu.Unlock()
	_, err := ps.ReadPage(aID)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("ReadPage after misdirection: err = %v, want *IntegrityError", err)
	}
	if ie.Want != aID || ie.Got != bID {
		t.Errorf("IntegrityError = want %d got %d; expected want %d got %d", ie.Want, ie.Got, aID, bID)
	}
	// The untouched slot still reads fine.
	if _, err := ps.ReadPage(bID); err != nil {
		t.Fatalf("ReadPage(%d) = %v", bID, err)
	}
}

// Regression (satellite 2): Page must hand out a copy. Before the fix a
// caller could scribble on the returned buffer and corrupt the shadow
// image VerifyShadow audits.
func TestPageReturnsCopy(t *testing.T) {
	ps, aID, _ := populatePair(t)
	buf := ps.Page(aID)
	if buf == nil {
		t.Fatal("Page returned nil for a live page")
	}
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if err := ps.VerifyShadow(); err != nil {
		t.Fatalf("caller mutation reached the shadow image: %v", err)
	}
	if _, err := ps.ReadPage(aID); err != nil {
		t.Fatalf("ReadPage after caller mutation: %v", err)
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

// Regression (satellite 3): Update encodes under the store lock, so
// concurrent ReadPage decoders never race the in-place entry rewrite.
// Run with -race; before the fix InvalidateFlat+Encode happened outside
// s.mu.
func TestUpdateRacesReadPage(t *testing.T) {
	ps := NewPagedStore(4096, 2)
	n := ps.Allocate(0)
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{0, 0}), 0))
	ps.Update(n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ps.ReadPage(n.ID); err != nil {
					var ie *IntegrityError
					if errors.As(err, &ie) {
						t.Errorf("integrity error under concurrent update: %v", err)
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		n.Entries = n.Entries[:0]
		n.Entries = append(n.Entries,
			rtree.LeafEntry(geom.PointRect(geom.Point{float64(i), float64(i)}), rtree.ObjectID(i)))
		ps.Update(n)
	}
	close(stop)
	wg.Wait()
}

// Satellite 3's second half: VerifyShadow compares geometry bitwise, so
// a NaN coordinate (equal to nothing, including itself) still verifies
// against its own round trip, and a -0/+0 substitution is corruption.
func TestVerifyShadowBitwise(t *testing.T) {
	ps := NewPagedStore(4096, 2)
	n := ps.Allocate(0)
	nan := geom.Point{0, 0}
	nan[0] = nan[0] / nan[0] // NaN without the compiler folding a constant
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.Rect{Lo: nan, Hi: geom.Point{1, 1}}, 3))
	ps.Update(n)
	if err := ps.VerifyShadow(); err != nil {
		t.Fatalf("NaN round trip failed bitwise shadow check: %v", err)
	}
	// Flip the sign bit of one stored coordinate: tolerant comparison
	// (0.0 == -0.0) would miss it; bitwise must not.
	n.Entries[0].Rect.Hi[0] = 0
	ps.Update(n)
	ps.mu.Lock()
	img := ps.pages[n.ID]
	img[headerSize+2*8] = 0x00 // lo byte of Hi[0] stays 0
	img[headerSize+3*8-1] = 0x80
	ps.mu.Unlock()
	if err := ps.VerifyShadow(); err == nil {
		t.Error("VerifyShadow missed a -0/+0 substitution")
	}
}

package pagestore

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Test access to a DurableStore's committed images, which it keeps on
// disk only: a page committed since the last checkpoint in its last WAL
// record, any other committed page in its data-file slot.

// committedImage reads page id's committed image into a fresh buffer;
// ok is false when the page has none. Callers hold s.mu.
func (s *DurableStore) committedImage(id rtree.PageID) (img []byte, ok bool, err error) {
	if off, logged := s.tail[id]; logged {
		img, err := s.wal.readPage(off, id, make([]byte, pageRecordLen(s.codec.PageSize)))
		return img, err == nil, err
	}
	off, err := s.fs.pageOffset(id)
	if err != nil {
		return nil, false, err
	}
	img = make([]byte, s.codec.PageSize)
	if err := s.fs.pread(id, off, img); errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, false, nil // past the end of the file: never written
	} else if err != nil {
		return nil, false, err
	}
	return img, img[0] == magic, nil
}

// committedPage decodes page id's committed image: the page as recovery
// would see it now.
func (s *DurableStore) committedPage(id rtree.PageID) (*rtree.FlatNode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	img, ok, err := s.committedImage(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("pagestore: page %d has no committed image", id)
	}
	return decodeChecked(s.codec, id, img)
}

// VerifyShadow checks every node against its committed image, bitwise.
// A page updated since the last Commit has no image to be checked
// against yet: the Commit encodes it from the node.
func (s *DurableStore) VerifyShadow() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, n := range s.nodes {
		if s.dirty[id] {
			continue
		}
		img, ok, err := s.committedImage(id)
		if err != nil {
			return err
		}
		if !ok {
			if len(n.Entries) != 0 {
				return fmt.Errorf("pagestore: page %d has entries but no encoded image", id)
			}
			continue
		}
		if err := verifyShadowNode(s.codec, n, img); err != nil {
			return err
		}
	}
	return nil
}

// verifyShadowNode checks one node against its encoded shadow image.
// Geometry compares bitwise (Float64bits, not geometric tolerance): the
// shadow is a codec round trip of the exact in-memory floats, so any
// difference at all — including a NaN payload or a -0/+0 flip — is
// corruption, not numeric noise.
func verifyShadowNode(codec Codec, n *rtree.Node, buf []byte) error {
	dec, err := codec.DecodeNode(buf)
	if err != nil {
		return fmt.Errorf("pagestore: page %d: %v", n.ID, err)
	}
	if dec.ID != n.ID || dec.Level != n.Level || len(dec.Entries) != len(n.Entries) {
		return fmt.Errorf("pagestore: page %d: shadow header mismatch", n.ID)
	}
	for i := range n.Entries {
		a, b := n.Entries[i], dec.Entries[i]
		if !rectBitsEqual(a.Rect, b.Rect) || a.Child != b.Child || a.Object != b.Object || a.Count != b.Count {
			return fmt.Errorf("pagestore: page %d entry %d: shadow mismatch", n.ID, i)
		}
		if codec.Spheres {
			if !pointBitsEqual(a.Sphere.Center, b.Sphere.Center) ||
				math.Float64bits(a.Sphere.Radius) != math.Float64bits(b.Sphere.Radius) {
				return fmt.Errorf("pagestore: page %d entry %d: sphere shadow mismatch", n.ID, i)
			}
		}
	}
	return nil
}

// pointBitsEqual reports exact bit-level equality of two coordinate
// vectors (IEEE-754 bit patterns, so NaNs compare by payload and
// -0 != +0 — stricter than geometric equality, which is the point).
func pointBitsEqual(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rectBitsEqual is pointBitsEqual over both corners.
func rectBitsEqual(a, b geom.Rect) bool {
	return pointBitsEqual(a.Lo, b.Lo) && pointBitsEqual(a.Hi, b.Hi)
}

// pointColumns reports whether f is one column set, Rects.Hi the same
// slices as Rects.Lo: the view of a leaf that holds entries.
func pointColumns(f *rtree.FlatNode) bool {
	return len(f.Rects.Lo) > 0 && &f.Rects.Lo[0] == &f.Rects.Hi[0]
}

// FileStoreOn is a FileStore on f: a store's data file read the way an
// engine's replica is.
func FileStoreOn(f BlockFile, codec Codec) *FileStore { return &FileStore{codec: codec, f: f} }

// AppendWALRecord serializes rec and appends it to buf, returning the
// extended slice: appendWALRecord with the payload in one part.
func AppendWALRecord(buf []byte, rec WALRecord) []byte {
	return appendWALRecord(buf, rec.LSN, rec.Type, rec.Payload, nil)
}

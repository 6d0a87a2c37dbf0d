package pagestore

import (
	"fmt"

	"repro/internal/rtree"
)

// IntegrityError reports a misdirected read: a structurally valid page
// was decoded, but its self-declared ID is not the page that was asked
// for. This is the disk-array failure mode the paper's mirrored
// declustering tolerates — a drive (or a buggy cache layer) serving a
// well-formed page from the wrong address. Read paths surface it as a
// typed error so callers can distinguish "wrong data" from "no data"
// and, with mirrors available, redirect to another replica instead of
// silently returning the wrong subtree.
//
// The same class covers an image whose stored 64-bit page id or child
// reference names no page at all (outside 1..MaxInt32): Raw carries the
// stored value, Got is NilPage, and Want is the requested page once a
// reader that knows it has seen the error.
type IntegrityError struct {
	Want rtree.PageID // page that was requested
	Got  rtree.PageID // page the decoded image claims to be
	Raw  uint64       // stored id or child reference that fits no PageID; 0 otherwise
}

func (e *IntegrityError) Error() string {
	if e.Got == rtree.NilPage {
		return fmt.Sprintf("pagestore: page %d: image stores page reference %d, outside the valid range", e.Want, e.Raw)
	}
	return fmt.Sprintf("pagestore: misdirected read: asked for page %d, image is page %d", e.Want, e.Got)
}

package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Who owns a committed page image (DESIGN.md, decision 17): Commit
// encodes into the images earlier Commits released, and it releases
// only images no pinned epoch can reach.

// An image recycled from a full node and re-encoded with a few entries
// is the page Encode makes, to the last byte.
func TestEncodeIntoRecycledImage(t *testing.T) {
	for _, spheres := range []bool{false, true} {
		c := Codec{Dim: 2, PageSize: 4096, Spheres: spheres}
		node := func(id rtree.PageID, n int) *rtree.Node {
			nd := &rtree.Node{ID: id}
			for i := 0; i < n; i++ {
				p := geom.Point{float64(i) + 0.25, -float64(i)}
				e := rtree.LeafEntry(geom.PointRect(p), rtree.ObjectID(i+1))
				if spheres {
					e.Sphere = geom.Sphere{Center: p}
				}
				nd.Entries = append(nd.Entries, e)
			}
			return nd
		}
		old, err := c.Encode(node(7, min(90, c.Capacity())))
		if err != nil {
			t.Fatal(err)
		}
		small := node(8, 10)
		want, err := c.Encode(small)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodeInto(old, small)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &old[0] {
			t.Errorf("spheres=%v: EncodeInto did not encode into the page it was given", spheres)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("spheres=%v: re-encoded image differs from Encode's", spheres)
		}
		short := make([]byte, 10, c.PageSize-1)
		if got, err := c.EncodeInto(short, small); err != nil || !bytes.Equal(got, want) {
			t.Errorf("spheres=%v: EncodeInto a short buffer: %v, equal %v", spheres, err, bytes.Equal(got, want))
		}
	}
}

// churn deletes every object of the tree and inserts n new ones, then
// marks every page left dirty: the next Commit rewrites or frees every
// page the last one published.
type churn struct {
	t    *testing.T
	ds   *DurableStore
	tr   *rtree.Tree
	rnd  *rand.Rand
	live []geom.Point // object i+base is live[i]
	base int
}

func (c *churn) round(n int) {
	for i, p := range c.live {
		if !c.tr.DeletePoint(p, rtree.ObjectID(c.base+i)) {
			c.t.Fatalf("delete of live object %d failed", c.base+i)
		}
	}
	c.base += len(c.live)
	c.live = c.live[:0]
	for i := 0; i < n; i++ {
		p := geom.Point{c.rnd.Float64() * 100, c.rnd.Float64() * 100}
		if err := c.tr.InsertPoint(p, rtree.ObjectID(c.base+i)); err != nil {
			c.t.Fatal(err)
		}
		c.live = append(c.live, p)
	}
	c.tr.Walk(func(n *rtree.Node, _ int) bool {
		c.ds.Update(n)
		return true
	})
	if err := c.ds.Commit(c.tr.Root(), c.tr.Len()); err != nil {
		c.t.Fatal(err)
	}
}

// addrs identifies images by their first byte.
func addrs(images map[rtree.PageID][]byte) map[*byte]bool {
	out := make(map[*byte]bool, len(images))
	for _, img := range images {
		out[&img[0]] = true
	}
	return out
}

// A Snapshot's pages stay the bytes they were when it was taken, across
// commits that rewrite or free every one of them and that reuse images
// all the while — read between the commits, or (under -race) while they
// run, beside readers of the current epoch.
func TestDurableStoreSnapshotSurvivesRecycling(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			ds := openDurableT(t, t.TempDir(), nil)
			defer ds.Close()
			c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(5))}
			// Two rounds first: the epoch about to be pinned holds images
			// its own commits encoded, the ones recycling would take.
			c.round(300)
			c.round(300)
			if len(ds.owned) == 0 {
				t.Fatal("no image is the current epoch's own")
			}

			view := ds.Snapshot()
			want := make(map[rtree.PageID][]byte, view.Pages())
			for id, img := range view.epoch.pages {
				want[id] = bytes.Clone(img)
			}
			check := func() {
				for id, img := range want {
					if got := view.epoch.pages[id]; !bytes.Equal(got, img) {
						t.Errorf("pinned image of page %d changed", id)
						return
					}
					if f, err := view.ReadPage(id); err != nil || f.ID != id {
						t.Errorf("pinned page %d: %v", id, err)
						return
					}
				}
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			if concurrent {
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							check()
							// The current epoch's newest pages, whose images the
							// commits do reuse.
							next := ds.Meta().NextID
							for id := max(1, next-100); id < next; id++ {
								if f, err := ds.ReadPage(id); err != nil {
									if !strings.Contains(err.Error(), "not in committed epoch") {
										t.Errorf("ReadPage(%d): %v", id, err)
									}
								} else if f.ID != id {
									t.Errorf("ReadPage(%d) decoded page %d", id, f.ID)
								}
							}
						}
					}()
				}
			}
			reused := 0
			for k := 0; k < 4; k++ {
				spare := make(map[*byte]bool)
				for _, img := range ds.spare {
					spare[&img[0]] = true
				}
				c.round(300)
				for a := range addrs(ds.cur.pages) {
					if spare[a] {
						reused++
					}
				}
				if !concurrent {
					check()
				}
			}
			close(stop)
			wg.Wait()
			check()
			if reused == 0 {
				t.Error("no commit encoded into a spare image: the test checked nothing")
			}
			pinned := addrs(view.epoch.pages)
			for a := range addrs(ds.cur.pages) {
				if pinned[a] {
					t.Fatal("every page was rewritten, yet the current epoch shares an image with the pinned one")
				}
			}
		})
	}
}

// memFile is an in-memory BlockFile whose writes fail while fail is set.
type memFile struct {
	buf  []byte
	fail error
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fail != nil {
		return 0, f.fail
	}
	if end := off + int64(len(p)); end > int64(len(f.buf)) {
		f.buf = append(f.buf, make([]byte, end-int64(len(f.buf)))...)
	}
	return copy(f.buf[off:], p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Truncate(size int64) error {
	f.buf = f.buf[:min(size, int64(len(f.buf)))]
	return nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.buf)), nil }
func (f *memFile) Close() error         { return nil }

// A Commit that fails to encode a page, or to append to the log, leaves
// the published pages (the same images, the same bytes), the spare list
// and the log as they were; the next Commit publishes the whole batch.
func TestDurableStoreFailedCommitChangesNothing(t *testing.T) {
	wal := &memFile{}
	ds, err := OpenDurableOn(&memFile{}, wal, durableCodec(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(9))}
	c.round(200)
	c.round(200)
	if len(ds.spare) == 0 {
		t.Fatal("no spare image to lose")
	}
	pages := maps.Clone(ds.cur.pages)
	images := make(map[rtree.PageID][]byte, len(pages))
	for id, img := range pages {
		images[id] = bytes.Clone(img)
	}
	spare := slices.Clone(ds.spare)
	log, end, lsn := bytes.Clone(wal.buf), ds.wal.end, ds.wal.nextLSN
	unchanged := func(label string) {
		t.Helper()
		if len(ds.cur.pages) != len(pages) {
			t.Fatalf("%s: %d published pages, want %d", label, len(ds.cur.pages), len(pages))
		}
		for id, img := range pages {
			got := ds.cur.pages[id]
			if &got[0] != &img[0] || !bytes.Equal(got, images[id]) {
				t.Fatalf("%s: published image of page %d changed", label, id)
			}
		}
		if len(ds.spare) != len(spare) {
			t.Fatalf("%s: %d spare images, want %d", label, len(ds.spare), len(spare))
		}
		for i := range spare {
			if &ds.spare[i][0] != &spare[i][0] {
				t.Fatalf("%s: spare image %d replaced", label, i)
			}
		}
		if !bytes.Equal(wal.buf, log) || ds.wal.end != end || ds.wal.nextLSN != lsn {
			t.Fatalf("%s: the log moved", label)
		}
	}

	// A batch that dirties more pages than there are spares, the last
	// of them (the highest id) unencodable.
	for i := 0; i < 60; i++ {
		p := geom.Point{c.rnd.Float64() * 100, c.rnd.Float64() * 100}
		if err := c.tr.InsertPoint(p, rtree.ObjectID(c.base+len(c.live))); err != nil {
			t.Fatal(err)
		}
		c.live = append(c.live, p)
	}
	bad := ds.Allocate(0)
	bad.Entries = append(bad.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{1, 2, 3}), 1))
	ds.Update(bad)
	if err := ds.Commit(c.tr.Root(), c.tr.Len()); err == nil {
		t.Fatal("Commit encoded a 3-d entry into a 2-d page")
	}
	unchanged("encode error")

	ds.Free(bad.ID)
	errFull := errors.New("disk full")
	wal.fail = errFull
	if err := ds.Commit(c.tr.Root(), c.tr.Len()); !errors.Is(err, errFull) {
		t.Fatalf("Commit with a failing log returned %v", err)
	}
	unchanged("append error")

	wal.fail = nil
	if err := ds.Commit(c.tr.Root(), c.tr.Len()); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if err := c.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Across a script that only deletes, the spare list never holds more
// images than the last batch dirtied, and never an image an epoch holds.
func TestDurableStoreSpareListIsBounded(t *testing.T) {
	ds := openDurableT(t, t.TempDir(), nil)
	defer ds.Close()
	tr := treeOver(t, ds)
	rnd := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{rnd.Float64() * 100, rnd.Float64() * 100}
		if err := tr.InsertPoint(pts[i], rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	most := 0
	for i := range pts {
		if !tr.DeletePoint(pts[i], rtree.ObjectID(i)) {
			t.Fatalf("delete of live object %d failed", i)
		}
		if i%25 != 24 && i != len(pts)-1 {
			continue
		}
		if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
			t.Fatal(err)
		}
		if len(ds.spare) > len(ds.ids) {
			t.Fatalf("after deleting %d objects: %d spare images, the batch dirtied %d pages",
				i+1, len(ds.spare), len(ds.ids))
		}
		published := addrs(ds.cur.pages)
		for _, img := range ds.spare {
			if published[&img[0]] {
				t.Fatal("a spare image is still published")
			}
		}
		most = max(most, len(ds.spare))
	}
	if most == 0 {
		t.Error("the script never released an image")
	}
}

// TestCommitAllocBudget: in a steady state of the write path's unit of
// work (45 inserts, 5 deletes, Commit — BenchmarkDurableIngest's batch),
// a Commit with as many spare images as dirty pages allocates no page
// image, and such commits allocate fewer than 0.5 objects on average (a
// bookkeeping map grows now and then; nothing else allocates). Commits
// with fewer spares than dirty pages make one image per missing spare;
// with the spare list bounded by the last batch, that is one per page
// the batch dirtied beyond the last one's, and one per new page.
func TestCommitAllocBudget(t *testing.T) {
	codec := Codec{Dim: 2, PageSize: 4096}
	ds, err := OpenDurable(t.TempDir(), codec, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: codec.Capacity()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(17))
	var pts []geom.Point
	insert := func(n int) {
		for i := 0; i < n; i++ {
			p := geom.Point{rnd.Float64(), rnd.Float64()}
			if err := tr.InsertPoint(p, rtree.ObjectID(len(pts))); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, p)
		}
	}
	insert(2000)
	if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	class := -1 // the size class of a page image
	for i, c := range before.BySize {
		if c.Size == uint32(codec.PageSize) {
			class = i
		}
	}
	if class < 0 {
		t.Fatalf("no %d-byte size class", codec.PageSize)
	}
	victim, measured, allocs := 0, 0, uint64(0)
	for b := 0; b < 80; b++ {
		insert(45)
		for j := 0; j < 5; j++ {
			if !tr.DeletePoint(pts[victim], rtree.ObjectID(victim)) {
				t.Fatalf("delete of live object %d failed", victim)
			}
			victim++
		}
		covered := len(ds.dirty) <= len(ds.spare)
		runtime.ReadMemStats(&before)
		if err := ds.Commit(tr.Root(), tr.Len()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b < 10 || !covered {
			continue
		}
		measured++
		allocs += after.Mallocs - before.Mallocs
		if images := after.BySize[class].Mallocs - before.BySize[class].Mallocs; images != 0 {
			t.Errorf("batch %d: Commit allocated %d page images with a spare for every dirty page", b, images)
		}
	}
	if measured < 20 {
		t.Fatalf("only %d of 70 steady-state commits had a spare image for every dirty page", measured)
	}
	if mean := float64(allocs) / float64(measured); mean >= 0.5 {
		t.Errorf("Commit allocated %.2f objects on average, want < 0.5", mean)
	}
}

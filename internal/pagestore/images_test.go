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
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// Where a committed page image lives (DESIGN.md, decision 17): in its
// WAL record until a Checkpoint copies it into the data file. Memory
// holds the node and one page buffer, nothing else.

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
		old, err := c.Encode(node(7, min(90, c.Capacity(1))))
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
	if err := c.ds.Commit(c.tr.Root(), c.tr.Len(), nil, nil); err != nil {
		c.t.Fatal(err)
	}
}

// memFile is an in-memory BlockFile. When fail is set, its write after
// the next okWrites fails, once, and fail is cleared; while truncErr is
// set its truncations fail, and while syncErr is set its syncs.
type memFile struct {
	buf      []byte
	fail     error
	okWrites int
	truncErr error
	syncErr  error
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
		if f.okWrites == 0 {
			err := f.fail
			f.fail = nil
			return 0, err
		}
		f.okWrites--
	}
	if end := off + int64(len(p)); end > int64(len(f.buf)) {
		f.buf = append(f.buf, make([]byte, end-int64(len(f.buf)))...)
	}
	return copy(f.buf[off:], p), nil
}

func (f *memFile) Sync() error { return f.syncErr }

func (f *memFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	f.buf = f.buf[:min(size, int64(len(f.buf)))]
	return nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.buf)), nil }
func (f *memFile) Close() error         { return nil }

// memFiles are the four files of a DurableStore, in memory.
type memFiles struct {
	data, wal *memFile
	tables    [2]*memFile
}

func newMemFiles() memFiles {
	return memFiles{&memFile{}, &memFile{}, [2]*memFile{{}, {}}}
}

func (f memFiles) open(t *testing.T, counters *obs.StorageCounters) *DurableStore {
	t.Helper()
	ds, err := OpenDurableOn(f.data, f.wal, [2]BlockFile{f.tables[0], f.tables[1]}, durableCodec(),
		DurableOptions{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// clone copies the files' bytes: the directory as a reboot would find
// it.
func (f memFiles) clone() memFiles {
	c := func(m *memFile) *memFile { return &memFile{buf: bytes.Clone(m.buf)} }
	return memFiles{c(f.data), c(f.wal), [2]*memFile{c(f.tables[0]), c(f.tables[1])}}
}

// equal reports whether f and g hold the same bytes.
func (f memFiles) equal(g memFiles) bool {
	return bytes.Equal(f.data.buf, g.data.buf) && bytes.Equal(f.wal.buf, g.wal.buf) &&
		bytes.Equal(f.tables[0].buf, g.tables[0].buf) && bytes.Equal(f.tables[1].buf, g.tables[1].buf)
}

// committedObjects restores the tree ds holds and lists its objects,
// sorted.
func committedObjects(t *testing.T, ds *DurableStore) []rtree.ObjectID {
	t.Helper()
	m := ds.Meta()
	tr, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity(1)}, ds, m.Root, m.Size)
	if err != nil {
		t.Fatal(err)
	}
	var objs []rtree.ObjectID
	tr.Walk(func(n *rtree.Node, _ int) bool {
		for _, e := range n.Entries {
			if n.IsLeaf() {
				objs = append(objs, e.Object)
			}
		}
		return true
	})
	slices.Sort(objs)
	return objs
}

// A Commit that fails to encode a page, or to append any of its records
// to the log, leaves the committed state and the log as they were — the
// records it did append are truncated away and their LSNs reused — and
// the next Commit publishes the whole batch. When the truncation fails
// too, both errors are returned.
func TestDurableStoreFailedCommitChangesNothing(t *testing.T) {
	files := newMemFiles()
	var counters obs.StorageCounters
	ds := files.open(t, &counters)
	c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(9))}
	c.round(200)
	c.round(200)
	wal := files.wal
	tail, recs, cur := maps.Clone(ds.tail), maps.Clone(ds.recs), ds.cur
	log, end, lsn := bytes.Clone(wal.buf), ds.wal.end, ds.wal.nextLSN
	unchanged := func(label string) {
		t.Helper()
		if !maps.Equal(ds.tail, tail) || !maps.Equal(ds.recs, recs) || ds.cur != cur {
			t.Fatalf("%s: the committed state changed", label)
		}
		if !bytes.Equal(wal.buf, log) || ds.wal.end != end || ds.wal.nextLSN != lsn {
			t.Fatalf("%s: the log moved (end %d → %d, next LSN %d → %d)", label, end, ds.wal.end, lsn, ds.wal.nextLSN)
		}
		if err := ds.VerifyShadow(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	// A batch of many dirty pages, the last of them (the highest id)
	// unencodable: every other page is appended before it fails.
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
	before := counters.WALAppends.Load()
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), nil, nil); err == nil {
		t.Fatal("Commit encoded a 3-d entry into a 2-d page")
	}
	if appended := counters.WALAppends.Load() - before; int(appended) != len(ds.dirty)-1 {
		t.Fatalf("the failed Commit appended %d records before the bad page, want %d", appended, len(ds.dirty)-1)
	}
	unchanged("encode error")

	ds.Free(bad.ID)
	errFull := errors.New("disk full")
	last := len(ds.dirty) + len(ds.freedStage) + 1 // page records, free records, the commit record
	for _, k := range []int{1, 4, last} {
		wal.fail, wal.okWrites = errFull, k-1
		before := counters.WALAppends.Load()
		if err := ds.Commit(c.tr.Root(), c.tr.Len(), nil, nil); !errors.Is(err, errFull) {
			t.Fatalf("Commit whose append %d of %d fails returned %v", k, last, err)
		}
		if appended := counters.WALAppends.Load() - before; int(appended) != k-1 {
			t.Fatalf("append %d of %d failed after %d appends", k, last, appended)
		}
		unchanged(fmt.Sprintf("append %d of %d fails", k, last))
	}

	errTrunc := errors.New("truncate refused")
	wal.fail, wal.okWrites, wal.truncErr = errFull, 3, errTrunc
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), nil, nil); !errors.Is(err, errFull) || !errors.Is(err, errTrunc) {
		t.Fatalf("Commit whose append and rewind fail returned %v, want both errors", err)
	}
	wal.fail, wal.truncErr = nil, nil
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if err := c.tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The three records the unrewound batch left are replayed before the
	// batch that re-logged them: recovery restores the committed tree.
	want := c.tr.Len()
	ds = files.open(t, nil)
	tr, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity(1)}, ds, ds.Meta().Root, ds.Meta().Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil || tr.Len() != want {
		t.Fatalf("reopened tree: %d objects, want %d (%v)", tr.Len(), want, err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
}

// A Commit whose WAL fsync fails returns the error and publishes
// nothing: the committed metadata, the state record, the log tail and
// the page records stay what the last durable Commit left. The log is
// deliberately not rewound: the failed batch's records, its commit
// record included, stay where they were appended, so a reopen may find
// the batch. The store is poisoned: a retried Commit and a Checkpoint
// fail with the sync's error and write nothing, though the drive would
// now sync, and the reads and Close keep working.
func TestDurableStoreFailedSyncPublishesNothing(t *testing.T) {
	files := newMemFiles()
	ds := files.open(t, nil)
	c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(11))}
	c.round(200)
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), []byte("durable"), nil); err != nil {
		t.Fatal(err)
	}
	meta, state := ds.Meta(), ds.State()
	tail, recs := maps.Clone(ds.tail), maps.Clone(ds.recs)
	for i := 0; i < 60; i++ {
		p := geom.Point{c.rnd.Float64() * 100, c.rnd.Float64() * 100}
		if err := c.tr.InsertPoint(p, rtree.ObjectID(c.base+len(c.live))); err != nil {
			t.Fatal(err)
		}
		c.live = append(c.live, p)
	}
	staged := len(ds.dirty)

	errSync := errors.New("fsync: I/O error")
	files.wal.syncErr = errSync
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), []byte("lost"), nil); !errors.Is(err, errSync) {
		t.Fatalf("Commit whose WAL sync fails returned %v, want %v", err, errSync)
	}
	if got := ds.Meta(); got != meta {
		t.Fatalf("a failed sync published the batch's metadata: %+v, committed %+v", got, meta)
	}
	if got := ds.State(); !bytes.Equal(got, state) {
		t.Fatalf("a failed sync published state %q, committed %q", got, state)
	}
	if !maps.Equal(ds.tail, tail) || !maps.Equal(ds.recs, recs) {
		t.Fatal("a failed sync published the batch's page records")
	}
	if len(ds.dirty) != staged {
		t.Fatalf("%d pages staged after the failed Commit, %d before", len(ds.dirty), staged)
	}

	files.wal.syncErr = nil
	images := func() [][]byte {
		return [][]byte{bytes.Clone(files.data.buf), bytes.Clone(files.wal.buf),
			bytes.Clone(files.tables[0].buf), bytes.Clone(files.tables[1].buf)}
	}
	before := images()
	if err := ds.Commit(c.tr.Root(), c.tr.Len(), []byte("retried"), nil); !errors.Is(err, errSync) {
		t.Fatalf("the retried Commit after a failed sync returned %v, want %v", err, errSync)
	}
	if err := ds.Checkpoint(); !errors.Is(err, errSync) {
		t.Fatalf("a Checkpoint after a failed sync returned %v, want %v", err, errSync)
	}
	if !slices.EqualFunc(images(), before, bytes.Equal) {
		t.Fatal("a refused Commit or Checkpoint wrote to the store's files")
	}
	if got := ds.Meta(); got != meta {
		t.Fatalf("a refused Commit published %+v, committed %+v", got, meta)
	}
	if got := ds.State(); !bytes.Equal(got, state) {
		t.Fatalf("State after the refusals: %q, committed %q", got, state)
	}
	for id, want := range recs {
		if got, ok := ds.Record(id); !ok || got != want {
			t.Fatalf("Record(%d) after the refusals: %+v, %v, want %+v", id, got, ok, want)
		}
	}
	if ds.Get(c.tr.Root()) == nil {
		t.Fatal("Get of the root after the refusals: nil")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAllocBudget: in a steady state of the write path's unit of
// work (45 inserts, 5 deletes, Commit — BenchmarkDurableIngest's batch),
// no Commit allocates a page image (each page is encoded into the
// store's one page buffer, and the log copies it into its own record
// buffer), and commits allocate fewer than 0.5 objects on average (a
// bookkeeping map or list grows now and then; nothing else allocates).
// Nor does a Checkpoint allocate a page: it reads each record back into
// the same buffer, and zeroes freed slots from a page the data file
// keeps.
func TestCommitAllocBudget(t *testing.T) {
	codec := Codec{Dim: 2, PageSize: 4096}
	ds, err := OpenDurable(t.TempDir(), codec, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: codec.Capacity(1)}, ds)
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
	victim := 0
	remove := func(n int) {
		for j := 0; j < n; j++ {
			if !tr.DeletePoint(pts[victim], rtree.ObjectID(victim)) {
				t.Fatalf("delete of live object %d failed", victim)
			}
			victim++
		}
	}
	// Warm up: a checkpoint that zeroes freed slots makes the data
	// file's zero page.
	insert(3000)
	if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	remove(1000)
	if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(ds.ckptFreed) == 0 {
		t.Fatal("deleting a third of the objects freed no page")
	}
	if err := ds.Checkpoint(); err != nil {
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
	measured, allocs, checkpoints := 0, uint64(0), 0
	for b := 0; b < 80; b++ {
		insert(45)
		remove(5)
		runtime.ReadMemStats(&before)
		if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if images := after.BySize[class].Mallocs - before.BySize[class].Mallocs; images != 0 {
			t.Errorf("batch %d: Commit allocated %d page images", b, images)
		}
		if b >= 10 {
			measured++
			allocs += after.Mallocs - before.Mallocs
		}
		if b%10 != 9 {
			continue
		}
		checkpoints++
		runtime.ReadMemStats(&before)
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if pages := after.BySize[class].Mallocs - before.BySize[class].Mallocs; pages != 0 {
			t.Errorf("batch %d: Checkpoint allocated %d page-sized buffers", b, pages)
		}
	}
	if mean := float64(allocs) / float64(measured); mean >= 0.5 {
		t.Errorf("Commit allocated %.2f objects on average over %d commits, want < 0.5", mean, measured)
	}
}

// TestDurableStoreHoldsNoImages: a store holds its pages as nodes and
// nothing else — no encoded copy after Commit and Checkpoint, and none
// after a reopen that replays a WAL tail. What a Commit and a Checkpoint
// leave on the heap, and what a reopen keeps beyond the nodes it decodes
// (measured against a copy of the same nodes), must stay under an
// eighth of the page images.
func TestDurableStoreHoldsNoImages(t *testing.T) {
	codec := Codec{Dim: 2, PageSize: 4096}
	dir := t.TempDir()
	ds, err := OpenDurable(dir, codec, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: codec.Capacity(1)}, ds)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(23))
	for i := 0; ds.Len() < 400; i++ {
		if err := tr.InsertPoint(geom.Point{rnd.Float64(), rnd.Float64()}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages := ds.Len()
	images := uint64(pages * codec.PageSize)
	retained := heapGrowth(func() {
		if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Commit and Checkpoint of %d pages retain %d B; the images are %d B", pages, retained, images)
	if retained >= images/8 {
		t.Errorf("Commit and Checkpoint retain %d B, want < %d (an eighth of the page images)", retained, images/8)
	}

	// A WAL tail: a tenth of the objects again, committed, not
	// checkpointed.
	for i := 0; i < tr.Len()/10; i++ {
		if err := tr.InsertPoint(geom.Point{rnd.Float64(), rnd.Float64()}, rtree.ObjectID(1<<30+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	logged := len(ds.tail)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, tr = nil, nil
	var reopened *DurableStore
	opened := heapGrowth(func() {
		if reopened, err = OpenDurable(dir, codec, DurableOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	defer reopened.Close()
	if len(reopened.tail) != logged {
		t.Fatalf("reopen replayed %d pages, want the %d of the WAL tail", len(reopened.tail), logged)
	}
	var copies map[rtree.PageID]*rtree.Node
	nodes := heapGrowth(func() {
		copies = make(map[rtree.PageID]*rtree.Node, len(reopened.nodes))
		for id, n := range reopened.nodes {
			img, err := codec.Encode(n)
			if err != nil {
				t.Fatal(err)
			}
			if copies[id], err = codec.DecodeNode(img); err != nil {
				t.Fatal(err)
			}
		}
	})
	pages, images = len(copies), uint64(len(copies)*codec.PageSize)
	t.Logf("reopen with %d logged pages retains %d B; its %d nodes are %d B, their images %d B",
		logged, opened, pages, nodes, images)
	if opened >= nodes+images/8 {
		t.Errorf("reopen retains %d B beyond its nodes, want < %d (an eighth of the page images)", opened-nodes, images/8)
	}
	runtime.KeepAlive(copies)
}

// heapGrowth is the live heap f leaves behind, measured after a forced
// collection on either side of it.
func heapGrowth(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestCheckpointRefusesBadWALRecord: Checkpoint reads each page back
// from its WAL record and refuses one whose bytes no longer check out,
// or that is another page's, before a table is written: the record
// tables and the log stay as they were, and no slot of the data file
// changes but those of pages copied before the bad one (with the
// committed images the log still holds).
func TestCheckpointRefusesBadWALRecord(t *testing.T) {
	files := newMemFiles()
	ds := files.open(t, nil)
	defer ds.Close()
	tr := treeOver(t, ds)
	rnd := rand.New(rand.NewSource(29))
	insert := func(n int) {
		for i := 0; i < n; i++ {
			if err := tr.InsertPoint(geom.Point{rnd.Float64(), rnd.Float64()}, rtree.ObjectID(tr.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Commit(tr.Root(), tr.Len(), []byte{byte(tr.Len())}, nil); err != nil {
			t.Fatal(err)
		}
	}
	insert(300)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(300)
	ids := sortedIDs(nil, ds.tail)
	if len(ids) < 3 {
		t.Fatalf("only %d pages in the WAL tail", len(ids))
	}
	tables := [2][]byte{bytes.Clone(files.tables[0].buf), bytes.Clone(files.tables[1].buf)}
	log, end := bytes.Clone(files.wal.buf), ds.wal.end
	slot := func(buf []byte, id rtree.PageID) []byte {
		off := int(id) * durableTestPage
		if off >= len(buf) {
			return nil
		}
		return buf[off:min(off+durableTestPage, len(buf))]
	}
	refused := func(label string, bad int) {
		t.Helper()
		data := bytes.Clone(files.data.buf)
		err := ds.Checkpoint()
		if err == nil {
			t.Fatalf("%s: Checkpoint accepted it", label)
		}
		if !bytes.Equal(files.tables[0].buf, tables[0]) || !bytes.Equal(files.tables[1].buf, tables[1]) {
			t.Errorf("%s: a record table changed", label)
		}
		if ds.wal.end != end || len(files.wal.buf) != len(log) {
			t.Errorf("%s: the WAL was reset", label)
		}
		for id := rtree.PageID(1); int(id)*durableTestPage < max(len(data), len(files.data.buf)); id++ {
			got, was := slot(files.data.buf, id), slot(data, id)
			if bytes.Equal(got, was) {
				continue
			}
			i, copied := slices.BinarySearch(ids, id)
			if !copied || i >= bad {
				t.Fatalf("%s: slot %d changed; only the %d pages before the bad one may be copied", label, id, bad)
			}
			img, _, err := ds.committedImage(id)
			if err != nil || !bytes.Equal(got, img) {
				t.Fatalf("%s: slot %d holds other bytes than the page's committed image (%v)", label, id, err)
			}
		}
		t.Logf("%s: %v", label, err)
	}

	for _, bad := range []int{0, len(ids) / 2} {
		at := int(ds.tail[ids[bad]]) + walRecHeader + 8 + PageRecordSize + 20 // in the image
		files.wal.buf[at] ^= 0x10
		refused(fmt.Sprintf("flipped byte in the record of page %d of %d", bad+1, len(ids)), bad)
		files.wal.buf[at] ^= 0x10
	}
	a, b := ids[0], ids[1]
	ds.tail[a], ds.tail[b] = ds.tail[b], ds.tail[a]
	refused("the first page's record names the second", 0)
	var ie *IntegrityError
	if err := ds.Checkpoint(); !errors.As(err, &ie) || ie.Want != a || ie.Got != b {
		t.Errorf("Checkpoint over another page's record: %v, want *IntegrityError{Want: %d, Got: %d}", err, a, b)
	}
	ds.tail[a], ds.tail[b] = ds.tail[b], ds.tail[a]

	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint whose record-table write, or the table's sync, fails
// returns the error and leaves the log as it was: the store still
// counts the previous table as its newest, and a reboot recovers the
// last committed tree whether or not the unsynced table reached the
// disk. So does one whose data file fails: a page's writeback, the
// zeroing of a freed slot, or the sync. A checkpoint syncs the data
// files twice: the pages, then the table.
func TestDurableStoreCheckpointTableFaults(t *testing.T) {
	files := newMemFiles()
	var counters obs.StorageCounters
	ds := files.open(t, &counters)
	defer ds.Close()
	c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(31))}
	c.round(200)
	syncs := counters.DataSyncs.Load()
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := counters.DataSyncs.Load() - syncs; got != 2 {
		t.Errorf("a checkpoint took %d data-file syncs, want 2", got)
	}
	c.round(200)
	want := committedObjects(t, ds)
	recovered := func(label string, disk memFiles, ckpt uint64) {
		t.Helper()
		ds := disk.open(t, nil)
		defer ds.Close()
		if ds.ckpt != ckpt {
			t.Errorf("%s: reopen took checkpoint %d, want %d", label, ds.ckpt, ckpt)
		}
		if got := committedObjects(t, ds); !slices.Equal(got, want) {
			t.Errorf("%s: reopen holds %d objects, want the %d committed", label, len(got), len(want))
		}
	}

	errFault := errors.New("injected fault")
	for _, fault := range []struct {
		name string
		set  func(f *memFile, err error)
	}{
		{"WriteAt", func(f *memFile, err error) { f.fail = err }},
		{"Sync", func(f *memFile, err error) { f.syncErr = err }},
	} {
		before, end := files.clone(), ds.wal.end
		next := (ds.ckpt + 1) % 2
		fault.set(files.tables[next], errFault)
		err := ds.Checkpoint()
		fault.set(files.tables[next], nil)
		if !errors.Is(err, errFault) {
			t.Fatalf("%s fault: Checkpoint returned %v", fault.name, err)
		}
		if ds.ckpt != 1 || ds.wal.end != end || !bytes.Equal(files.wal.buf, before.wal.buf) {
			t.Fatalf("%s fault: checkpoint %d, log of %d bytes; want checkpoint 1 and the log unchanged",
				fault.name, ds.ckpt, len(files.wal.buf))
		}
		if fault.name == "WriteAt" {
			recovered("failed table write", files.clone(), 1)
			continue
		}
		// The log still follows checkpoint 1: the next Checkpoint
		// rewrites table 2.
		recovered("failed table sync, the table on disk", files.clone(), 1)
		lost := files.clone()
		lost.tables[next].buf = before.tables[next].buf
		recovered("failed table sync, the table lost", lost, 1)
	}

	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ds.ckpt != 2 || len(files.wal.buf) != walHeaderSize {
		t.Errorf("after the faults: checkpoint %d, log of %d bytes; want checkpoint 2 and the log reset", ds.ckpt, len(files.wal.buf))
	}
	recovered("after the faults", files.clone(), 2)

	// The data file: each fault fails the one write site it names. A
	// round of inserts alone frees no page, so its checkpoint writes
	// pages back and zeroes nothing; a round with deletes zeroes the
	// freed slots after the writeback.
	for _, fault := range []struct {
		name    string
		deletes bool
		set     func(err error)
	}{
		{"data-file write", false, func(err error) { files.data.fail = err }},
		{"freed-slot zeroing", true, func(err error) { files.data.fail, files.data.okWrites = err, len(ds.tail) }},
		{"data-file sync", true, func(err error) { files.data.syncErr = err }},
	} {
		if !fault.deletes {
			c.base += len(c.live)
			c.live = c.live[:0]
		}
		c.round(100)
		if freed := len(ds.ckptFreed) > 0; freed != fault.deletes {
			t.Fatalf("%s fault: %d pages freed since the checkpoint", fault.name, len(ds.ckptFreed))
		}
		want = committedObjects(t, ds)
		before, end := files.clone(), ds.wal.end
		fault.set(errFault)
		err := ds.Checkpoint()
		fault.set(nil)
		if !errors.Is(err, errFault) {
			t.Fatalf("%s fault: Checkpoint returned %v", fault.name, err)
		}
		if ds.ckpt != 2 || ds.wal.end != end || !bytes.Equal(files.wal.buf, before.wal.buf) {
			t.Fatalf("%s fault: checkpoint %d, log of %d bytes; want checkpoint 2 and the log unchanged",
				fault.name, ds.ckpt, len(files.wal.buf))
		}
		recovered(fault.name+" fault", files.clone(), 2)
	}
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recovered("after the data-file faults", files.clone(), 3)
}

// The checkpoint a store writes is always the one after the checkpoint
// its log follows, also when the log lags the newest table: after a
// reset that failed, and after a reopen of a directory whose log was
// not reset. Writing the table after the newest instead would overwrite
// the table the log follows, and a crash before the next reset would
// leave a directory open refuses.
func TestDurableStoreCheckpointAfterLaggingLog(t *testing.T) {
	files := newMemFiles()
	ds := files.open(t, nil)
	defer ds.Close()
	c := &churn{t: t, ds: ds, tr: treeOver(t, ds), rnd: rand.New(rand.NewSource(37))}
	c.round(200)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	errFault := errors.New("injected fault")
	// failedReset commits a round, then checkpoints with the log's
	// truncate failing: the new table is durable, the log still
	// follows the one before. A reboot must find the committed tree.
	failedReset := func(label string, c *churn, disk memFiles) {
		t.Helper()
		c.round(150)
		want := committedObjects(t, c.ds)
		disk.wal.truncErr = errFault
		err := c.ds.Checkpoint()
		disk.wal.truncErr = nil
		if !errors.Is(err, errFault) {
			t.Fatalf("%s: Checkpoint returned %v", label, err)
		}
		if c.ds.ckpt != 1 {
			t.Fatalf("%s: the log follows checkpoint 1, the store says %d", label, c.ds.ckpt)
		}
		re := disk.clone().open(t, nil)
		defer re.Close()
		if got := committedObjects(t, re); !slices.Equal(got, want) {
			t.Errorf("%s: reopen holds %d objects, want the %d committed", label, len(got), len(want))
		}
	}

	// In one process: two failed resets in a row.
	failedReset("first failed reset", c, files)
	failedReset("second failed reset", c, files)

	// Across a reopen: a log that lags the newest table.
	lagging := files.clone()
	re := lagging.open(t, nil)
	defer re.Close()
	m := re.Meta()
	tr, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity(1)}, re, m.Root, m.Size)
	if err != nil {
		t.Fatal(err)
	}
	failedReset("failed reset after a reopen", &churn{t: t, ds: re, tr: tr, rnd: rand.New(rand.NewSource(41)), base: 1 << 20}, lagging)

	// A reset that empties the log and cannot write its header: the
	// log takes no commit, and a reboot finds the tree of the table.
	want := committedObjects(t, re)
	lagging.wal.fail = errFault
	err = re.Checkpoint()
	lagging.wal.fail = nil
	if !errors.Is(err, errFault) {
		t.Fatalf("header write fault: Checkpoint returned %v", err)
	}
	if m := re.Meta(); re.Commit(m.Root, m.Size, nil, nil) == nil {
		t.Errorf("a log with no header took a commit")
	}
	lost := lagging.clone().open(t, nil)
	defer lost.Close()
	if got := committedObjects(t, lost); !slices.Equal(got, want) {
		t.Errorf("header write fault: reopen holds %d objects, want the %d committed", len(got), len(want))
	}

	// A checkpoint that completes catches the log up.
	c.round(100)
	want = committedObjects(t, ds)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ds.ckpt != 2 || len(files.wal.buf) != walHeaderSize {
		t.Errorf("checkpoint %d, log of %d bytes; want checkpoint 2 and the log reset", ds.ckpt, len(files.wal.buf))
	}
	re2 := files.clone().open(t, nil)
	defer re2.Close()
	if got := committedObjects(t, re2); !slices.Equal(got, want) {
		t.Errorf("after a full checkpoint: reopen holds %d objects, want the %d committed", len(got), len(want))
	}
}

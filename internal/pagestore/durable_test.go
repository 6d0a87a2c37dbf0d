package pagestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

const durableTestPage = 512

func durableCodec() Codec { return Codec{Dim: 2, PageSize: durableTestPage} }

func openDurableT(t *testing.T, dir string, counters *obs.StorageCounters) *DurableStore {
	t.Helper()
	ds, err := OpenDurable(dir, durableCodec(), DurableOptions{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func treeOver(t *testing.T, store rtree.Store) *rtree.Tree {
	t.Helper()
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity()}, store)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameKNN asserts bit-identical k-NN results (object AND distance).
func sameKNN(t *testing.T, label string, a, b *rtree.Tree, q geom.Point, k int) {
	t.Helper()
	ra, _ := a.NearestNeighbors(q, k)
	rb, _ := b.NearestNeighbors(q, k)
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d results", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Object != rb[i].Object ||
			math.Float64bits(ra[i].DistSq) != math.Float64bits(rb[i].DistSq) {
			t.Fatalf("%s: result %d differs: %v/%x vs %v/%x",
				label, i, ra[i].Object, math.Float64bits(ra[i].DistSq),
				rb[i].Object, math.Float64bits(rb[i].DistSq))
		}
	}
}

// Build, commit, checkpoint, reopen: the restored tree is the committed
// tree, bit for bit.
func TestDurableStoreReopen(t *testing.T) {
	dir := t.TempDir()
	var counters obs.StorageCounters
	ds := openDurableT(t, dir, &counters)
	tr := treeOver(t, ds)
	model := treeOver(t, rtree.NewMemStore())

	rnd := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{rnd.Float64() * 1000, rnd.Float64() * 1000}
		for _, tree := range []*rtree.Tree{tr, model} {
			if err := tree.InsertPoint(pts[i], rtree.ObjectID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if i == 199 {
			if err := ds.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Deletes survive recovery too.
	for i := 0; i < 100; i++ {
		if !tr.DeletePoint(pts[i], rtree.ObjectID(i)) || !model.DeletePoint(pts[i], rtree.ObjectID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurableT(t, dir, &counters)
	defer ds2.Close()
	meta := ds2.Meta()
	if meta.Size != model.Len() {
		t.Fatalf("recovered size %d, want %d", meta.Size, model.Len())
	}
	tr2, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity()},
		ds2, meta.Root, meta.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ds2.VerifyShadow(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{500, 500}, {0, 0}, {999, 1}} {
		sameKNN(t, "recovered vs model", tr2, model, q, 10)
	}
	s := counters.Snapshot()
	if s.Recoveries != 1 || s.ReplayedRecords == 0 || s.Checkpoints != 1 || s.WALSyncs == 0 {
		t.Errorf("counters = %+v", s)
	}
}

// Mutations staged after the last commit are invisible after reopen —
// the uncommitted tail is discarded, not replayed.
func TestDurableStoreUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	tr := treeOver(t, ds)
	for i := 0; i < 50; i++ {
		if err := tr.InsertPoint(geom.Point{float64(i), float64(i)}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Commit(tr.Root(), tr.Len(), nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ { // staged, never committed
		if err := tr.InsertPoint(geom.Point{float64(i), float64(i)}, rtree.ObjectID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	ds2 := openDurableT(t, dir, nil)
	defer ds2.Close()
	if got := ds2.Meta().Size; got != 50 {
		t.Errorf("recovered size %d, want 50 (uncommitted inserts leaked)", got)
	}
}

// A fresh store that never committed recovers to an empty tree.
func TestDurableStoreFreshIsEmpty(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	ds.Close()
	ds2 := openDurableT(t, dir, nil)
	defer ds2.Close()
	if m := ds2.Meta(); m.Root != 0 || m.Size != 0 {
		t.Errorf("fresh store recovered to %+v", m)
	}
}

// A directory written before pages carried records (superblock and log
// version 1) is refused with an error naming its version: there is no
// second restore path that would re-derive what it lacks.
func TestDurableStoreRefusesVersion1(t *testing.T) {
	// The version-1 superblock: 36 bytes and their CRC-32, in both copies.
	sb := append([]byte("SQFS\x01\x00"), make([]byte, 30)...)
	binary.LittleEndian.PutUint16(sb[6:], 2)
	binary.LittleEndian.PutUint32(sb[8:], durableTestPage)
	binary.LittleEndian.PutUint64(sb[12:], 1)  // root
	binary.LittleEndian.PutUint64(sb[20:], 40) // objects
	binary.LittleEndian.PutUint64(sb[28:], 5)  // next page id
	sb = binary.LittleEndian.AppendUint32(sb, crc32.ChecksumIEEE(sb))
	page := make([]byte, durableTestPage)
	copy(page, sb)
	copy(page[superblockBackupOff:], sb)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, DataFileName), page, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDurable(dir, durableCodec(), DurableOptions{})
	if err == nil {
		ds.Close()
		t.Fatal("opened a version-1 directory")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || strings.Contains(msg, "invalid") {
		t.Errorf("error %q, want one that names version 1", msg)
	}

	// A version-1 log on its own is refused the same way.
	hdr := append([]byte("SQWL\x01\x00\x00\x00"), binary.LittleEndian.AppendUint32(nil, durableTestPage)...)
	if _, _, err := newWAL(&memFile{buf: hdr}, durableTestPage, nil); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 WAL: err = %v, want one that names version 1", err)
	}
}

// A checkpoint makes its record table live, with the state and every
// committed page's record; a table whose bytes no longer match the
// superblock's checksum is refused, never read.
func TestDurableStoreRecordTable(t *testing.T) {
	dir := t.TempDir()
	ds := openDurableT(t, dir, nil)
	tr := treeOver(t, ds)
	rnd := rand.New(rand.NewSource(3))
	recs := recorderFunc(func(id rtree.PageID) PageRecord { return PageRecord{byte(id), 0xAB} })
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 150; i++ {
			if err := tr.InsertPoint(geom.Point{rnd.Float64(), rnd.Float64()}, rtree.ObjectID(batch*150+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Commit(tr.Root(), tr.Len(), []byte{byte(batch), 7}, recs); err != nil {
			t.Fatal(err)
		}
		if batch < 2 {
			if err := ds.Checkpoint(); err != nil { // the last batch stays in the WAL
				t.Fatal(err)
			}
		}
	}
	live := ds.Meta().table.file
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds = openDurableT(t, dir, nil)
	if got := ds.State(); !bytes.Equal(got, []byte{2, 7}) {
		t.Errorf("state %v after reopen, want the last commit's [2 7]", got)
	}
	pages := 0
	tr.Walk(func(n *rtree.Node, _ int) bool {
		pages++
		if rec, ok := ds.Record(n.ID); !ok || rec != recs(n.ID) {
			t.Errorf("page %d: record %v (%v), want %v", n.ID, rec, ok, recs(n.ID))
		}
		return true
	})
	if pages < 10 || len(ds.recs) != pages {
		t.Errorf("%d records for %d live pages", len(ds.recs), pages)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, tableFileNames[live])
	table, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table[len(table)/2] ^= 1
	if err := os.WriteFile(path, table, 0o644); err != nil {
		t.Fatal(err)
	}
	if ds, err := OpenDurable(dir, durableCodec(), DurableOptions{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		if err == nil {
			ds.Close()
		}
		t.Errorf("open over a corrupt record table: err = %v", err)
	}
}

type recorderFunc func(rtree.PageID) PageRecord

func (f recorderFunc) PageRecord(id rtree.PageID) PageRecord { return f(id) }

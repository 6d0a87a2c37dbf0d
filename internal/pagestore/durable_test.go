package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	tr, err := rtree.New(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity(1)}, store)
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
	tr2, err := rtree.Restore(rtree.Config{Dim: 2, MaxEntries: durableCodec().Capacity(1)},
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

// A directory of an earlier format — version 1, whose pages carry no
// records, version 2, whose data file began with a superblock, or
// version 3, whose leaves are rectangles — is refused with an error
// naming its version: there is no second restore path that would
// re-derive what it lacks, and a version-3 leaf is never read as
// points. Its log's header names the version; without a log, its pages
// are ones no record table names, and a version-3 directory whose log a
// crash emptied (between a checkpoint's truncate and its header write)
// is refused by its record tables' version.
func TestDurableStoreRefusesVersion1(t *testing.T) {
	img, err := durableCodec().Encode(leafNode(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2, 3} {
		t.Run(fmt.Sprintf("version%d", version), func(t *testing.T) {
			dir := t.TempDir()
			data := make([]byte, 2*durableTestPage) // the superblock's slot, then a page
			copy(data, append([]byte("SQFS"), version))
			copy(data[durableTestPage:], img)
			hdr := append([]byte{'S', 'Q', 'W', 'L', version, 0, 0, 0}, binary.LittleEndian.AppendUint32(nil, durableTestPage)...)
			for name, b := range map[string][]byte{DataFileName: data, WALFileName: hdr} {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := fmt.Sprintf("version %d", version)
			ds, err := OpenDurable(dir, durableCodec(), DurableOptions{})
			if err == nil {
				ds.Close()
				t.Fatalf("opened a version-%d directory", version)
			}
			if msg := err.Error(); !strings.Contains(msg, want) || strings.Contains(msg, "invalid") {
				t.Errorf("error %q, want one that names %s", msg, want)
			}
			if _, _, _, err := newWAL(&memFile{buf: hdr}, durableCodec(), nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d WAL: err = %v, want one that names %s", version, err, want)
			}
			if err := os.Remove(filepath.Join(dir, WALFileName)); err != nil {
				t.Fatal(err)
			}
			if ds, err := OpenDurable(dir, durableCodec(), DurableOptions{}); err == nil {
				ds.Close()
				t.Errorf("opened a version-%d directory without its log", version)
			}
		})
	}
	t.Run("version3-empty-log", func(t *testing.T) {
		dir := t.TempDir()
		data := make([]byte, 2*durableTestPage)
		copy(data[durableTestPage:], img)
		files := map[string][]byte{DataFileName: data, WALFileName: nil}
		for seq, name := range tableFileNames {
			files[name] = version1Table(uint64(seq+1), durableCodec())
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := OpenDurable(dir, durableCodec(), DurableOptions{})
		if err == nil {
			ds.Close()
			t.Fatal("opened a version-3 directory whose log is empty")
		}
		if msg := err.Error(); !strings.Contains(msg, "record table records-0.db version 1, want 2") || !strings.Contains(msg, "predates") {
			t.Errorf("error %q, want one that names the table's version", msg)
		}
		if wal, err := os.ReadFile(filepath.Join(dir, WALFileName)); err != nil || len(wal) != 0 {
			t.Errorf("the refused open wrote the log: %d bytes, %v", len(wal), err)
		}
	})
}

// version1Table is a record table as directories of version 3 wrote
// it: checkpoint seq of a tree whose root, page 1, holds one object.
func version1Table(seq uint64, c Codec) []byte {
	var hdr [52]byte
	copy(hdr[:], tableMagic[:])
	hdr[4] = 1
	putLayout(hdr[:], c)
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint64(hdr[24:], 1)
	binary.LittleEndian.PutUint64(hdr[32:], 1)
	binary.LittleEndian.PutUint64(hdr[40:], 2)
	buf := binary.LittleEndian.AppendUint32(hdr[:], 0)
	buf = binary.LittleEndian.AppendUint64(buf, 1)
	buf = append(buf, make([]byte, PageRecordSize)...)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[48:], crc32.Update(crc32.ChecksumIEEE(buf[:48]), crc32.IEEETable, buf[52:]))
	return buf
}

// A torn newest table is passed over for the older one, and the log,
// which still holds every batch since the older one, is replayed. Both
// tables invalid over a data file holding pages the log does not name
// is refused, as is a log that was reset after a table that is now
// invalid; a refused open writes nothing. A fresh directory opens
// empty.
func TestDurableStoreTableCorruption(t *testing.T) {
	files := newMemFiles()
	ds := files.open(t, nil)
	tr := treeOver(t, ds)
	rnd := rand.New(rand.NewSource(5))
	batch := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := tr.InsertPoint(geom.Point{rnd.Float64(), rnd.Float64()}, rtree.ObjectID(tr.Len())); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Commit(tr.Root(), tr.Len(), []byte{byte(tr.Len())}, nil); err != nil {
			t.Fatal(err)
		}
	}
	batch(200)
	if err := ds.Checkpoint(); err != nil { // checkpoint 1: records-1
		t.Fatal(err)
	}
	batch(200)
	// Checkpoint 2 writes records-0 and dies at its sync: the log is not
	// reset. Tear the table it wrote.
	files.tables[0].syncErr = errors.New("sync: device lost")
	if err := ds.Checkpoint(); err == nil {
		t.Fatal("Checkpoint survived a failed table sync")
	}
	files.tables[0].syncErr = nil
	files.tables[0].buf = files.tables[0].buf[:len(files.tables[0].buf)/2]
	want := committedObjects(t, ds)
	ds.Close()

	reopened := files.clone().open(t, nil)
	if reopened.ckpt != 1 || len(reopened.tail) == 0 {
		t.Errorf("reopen took checkpoint %d with %d logged pages, want checkpoint 1 and the log replayed",
			reopened.ckpt, len(reopened.tail))
	}
	if got := committedObjects(t, reopened); !slices.Equal(got, want) {
		t.Errorf("reopen over a torn newest table holds %d objects, want the %d committed", len(got), len(want))
	}
	reopened.Close()

	refused := func(label string, f memFiles, why string) {
		t.Helper()
		before := f.clone()
		ds, err := OpenDurableOn(f.data, f.wal, [2]BlockFile{f.tables[0], f.tables[1]}, durableCodec(), DurableOptions{})
		if err == nil {
			ds.Close()
			t.Fatalf("%s: opened", label)
		}
		if !strings.Contains(err.Error(), why) {
			t.Errorf("%s: error %q, want it to say %q", label, err, why)
		}
		if !f.equal(before) {
			t.Errorf("%s: the refused open wrote to the directory", label)
		}
	}
	// A complete checkpoint, then both tables damaged.
	ds = files.open(t, nil)
	if err := ds.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	bad := files.clone()
	bad.tables[0].buf[tableHeaderSize] ^= 1
	bad.tables[1].buf[tableHeaderSize] ^= 1
	refused("both tables invalid after the log was reset", bad, "checksum")
	bad.wal.buf = nil
	refused("both tables invalid, no log", bad, "neither the record table nor the WAL names")
	bad = files.clone()
	bad.tables[0].buf[tableHeaderSize] ^= 1
	refused("the newest table invalid after the log was reset", bad, "checksum")

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		ds := openDurableT(t, dir, nil)
		if m := ds.Meta(); m.Root != 0 || m.Size != 0 || ds.Len() != 0 || ds.ckpt != 0 {
			t.Errorf("open %d of a fresh directory: %+v, %d pages, checkpoint %d", i+1, m, ds.Len(), ds.ckpt)
		}
		ds.Close()
	}
}

// A checkpoint makes its record table the newest, with the state and
// every committed page's record. Once the log is reset past it, that
// table damaged is refused: the older table would miss a checkpoint.
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
	live := ds.ckpt % 2
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

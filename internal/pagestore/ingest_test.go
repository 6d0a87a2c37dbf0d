package pagestore

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// What the write path owes the durable store after it stopped encoding
// a page on every touch: the same log, byte for byte, from one encode
// per dirty page at Commit.
// AppendPage assembles a page record in the log's reused buffer; the
// bytes in the file are the ones Append writes for the joined payload,
// record after record.
func TestWALAppendPageWritesTheSameBytes(t *testing.T) {
	images := make([][]byte, 4)
	for i := range images {
		images[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, 512)
		images[i][0] = byte(i)
	}
	write := func(page func(w *WAL, id rtree.PageID, img []byte) error) []byte {
		path := walPath(t)
		w, _, err := openWAL(path, 512, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range images {
			if err := page(w, rtree.PageID(i+7), img); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(WALFree, FreeRecordPayload(rtree.PageID(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(WALCommit, CommitRecordPayload(7, 4, 11)); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(w.Sync(), w.Close()); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	joined := write(func(w *WAL, id rtree.PageID, img []byte) error {
		return w.Append(WALPage, PageRecordPayload(id, img))
	})
	inPlace := write((*WAL).AppendPage)
	if !bytes.Equal(joined, inPlace) {
		t.Fatalf("AppendPage wrote %d bytes that differ from Append's %d", len(inPlace), len(joined))
	}
}

// Update only marks the page: however often a batch touches it, the
// Commit encodes it once, in its final state, and logs one record.
func TestDurableStoreEncodesDirtyPageOnceAtCommit(t *testing.T) {
	var counters obs.StorageCounters
	ds := openDurableT(t, t.TempDir(), &counters)
	defer ds.Close()
	n := ds.Allocate(0)
	for i := 0; i < 5; i++ {
		p := geom.Point{float64(i), float64(i)}
		n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(p), rtree.ObjectID(i)))
		ds.Update(n)
	}
	if allocs := testing.AllocsPerRun(100, func() { ds.Update(n) }); allocs != 0 {
		t.Errorf("Update of a dirty page allocates %.0f times, want 0 (no image before Commit)", allocs)
	}
	if _, err := ds.ReadPage(n.ID); err == nil {
		t.Error("an uncommitted page is readable")
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Errorf("VerifyShadow with a dirty page: %v", err)
	}
	if err := ds.Commit(n.ID, 5); err != nil {
		t.Fatal(err)
	}
	if got := counters.WALAppends.Load(); got != 2 {
		t.Errorf("Commit appended %d WAL records, want 2 (one page, one commit)", got)
	}
	f, err := ds.ReadPage(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 5 || f.Object(4) != 4 {
		t.Errorf("committed image has %d entries, want the 5 of the last Update", f.Len())
	}
	if err := ds.VerifyShadow(); err != nil {
		t.Error(err)
	}
	// Nothing dirty: the next Commit logs its commit record alone.
	if err := ds.Commit(n.ID, 5); err != nil {
		t.Fatal(err)
	}
	if got := counters.WALAppends.Load(); got != 3 {
		t.Errorf("an empty Commit brought the WAL to %d records, want 3", got)
	}
}

// A node that outgrew its page still panics in Update, where the tree
// made it, not at some later Commit.
func TestDurableStoreUpdatePanicsOverCapacity(t *testing.T) {
	ds := openDurableT(t, t.TempDir(), nil)
	defer ds.Close()
	n := ds.Allocate(0)
	for i := 0; i <= ds.Codec().Capacity(); i++ {
		n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{1, 2}), rtree.ObjectID(i)))
	}
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "exceed page capacity") {
			t.Errorf("Update of an over-full node recovered %v, want the capacity panic", err)
		}
	}()
	ds.Update(n)
}

// What Update can no longer catch — an entry that does not encode — is
// the Commit's error, before the log has seen any of the batch.
func TestDurableStoreCommitReportsEncodeError(t *testing.T) {
	var counters obs.StorageCounters
	ds := openDurableT(t, t.TempDir(), &counters)
	defer ds.Close()
	n := ds.Allocate(0)
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{1, 2, 3}), 1)) // 3-d in a 2-d store
	ds.Update(n)
	if err := ds.Commit(n.ID, 1); err == nil {
		t.Fatal("Commit encoded a 3-d entry into a 2-d page")
	}
	if got := counters.WALAppends.Load(); got != 0 {
		t.Errorf("a failed Commit appended %d WAL records, want 0", got)
	}
}

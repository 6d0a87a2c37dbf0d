package pagestore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

func leafNode(id rtree.PageID, x float64) *rtree.Node {
	n := &rtree.Node{ID: id, Level: 0}
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.PointRect(geom.Point{x, x + 1}), rtree.ObjectID(id)))
	return n
}

// writeLeaf writes leafNode(id, id) to its slot the way the engine
// fills a replica: Codec.Encode, then WriteImage.
func writeLeaf(fs *FileStore, id rtree.PageID) error {
	buf, err := fs.Codec().Encode(leafNode(id, float64(id)))
	if err != nil {
		return err
	}
	return fs.WriteImage(id, buf)
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drive.pages")
	codec := Codec{Dim: 2, PageSize: 512}
	var counters obs.StorageCounters
	fs, err := OpenFileStore(path, codec, FileStoreOptions{Counters: &counters})
	if err != nil {
		t.Fatal(err)
	}
	for id := rtree.PageID(1); id <= 5; id++ {
		if err := writeLeaf(fs, id); err != nil {
			t.Fatal(err)
		}
	}
	meta := FileMeta{Root: 1, Size: 5, NextID: 6}
	if err := fs.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if got := fs2.Meta(); got != meta {
		t.Errorf("Meta = %+v, want %+v", got, meta)
	}
	pages, err := fs2.LoadPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 5 {
		t.Fatalf("LoadPages returned %d pages, want 5", len(pages))
	}
	for id := rtree.PageID(1); id <= 5; id++ {
		n, err := fs2.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.ID != id || n.Len() != 1 || n.Object(0) != rtree.ObjectID(id) {
			t.Errorf("page %d decoded wrong: %+v", id, n)
		}
	}
	s := counters.Snapshot()
	if s.PageWrites != 5 || s.DataSyncs != 1 {
		t.Errorf("counters = %+v", s)
	}
}

// A slot past the end of the file is a short read — the same thing a
// truncated drive returns — and must wrap io.ErrUnexpectedEOF.
func TestFileStoreShortRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drive.pages")
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := writeLeaf(fs, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadImage(7); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("read past EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Truncate mid-page: a torn page is a short read too.
	if err := os.Truncate(path, 512+100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadImage(1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("torn page: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// A well-formed image sitting in the wrong slot is a misdirected read.
func TestFileStoreMisdirectedSlot(t *testing.T) {
	dir := t.TempDir()
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(filepath.Join(dir, "drive.pages"), codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	img, err := codec.Encode(leafNode(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteImage(3, img); err != nil { // page 2's bytes in slot 3
		t.Fatal(err)
	}
	_, err = fs.ReadPage(3)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	if ie.Want != 3 || ie.Got != 2 {
		t.Errorf("IntegrityError = %+v", ie)
	}
}

func TestFileStoreZeroPageSkippedByLoad(t *testing.T) {
	dir := t.TempDir()
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(filepath.Join(dir, "drive.pages"), codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for id := rtree.PageID(1); id <= 3; id++ {
		if err := writeLeaf(fs, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.ZeroPage(2); err != nil {
		t.Fatal(err)
	}
	pages, err := fs.LoadPages()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pages[2]; ok || len(pages) != 2 {
		t.Errorf("LoadPages = %d pages (freed slot present: %v), want 2 without slot 2", len(pages), ok)
	}
}

func TestFileStoreSuperblockCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drive.pages")
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta := FileMeta{Root: 1, Size: 7, NextID: 9}
	if err := fs.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A torn primary copy falls back to the backup — and open heals the
	// primary, so a second open succeeds from either copy again.
	torn := append([]byte(nil), raw...)
	torn[20] ^= 0x01 // flip a bit inside the primary's checksummed region
	write(torn)
	fs2, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatalf("open with a torn primary superblock: %v", err)
	}
	if got := fs2.Meta(); got != meta {
		t.Errorf("backup fallback recovered %+v, want %+v", got, meta)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2.Close()
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if healed[20] == torn[20] {
		t.Error("open did not heal the torn primary copy")
	}

	// Both copies corrupt: unrecoverable, open must fail.
	bad := append([]byte(nil), raw...)
	bad[20] ^= 0x01
	bad[superblockBackupOff+20] ^= 0x01
	write(bad)
	if _, err := OpenFileStore(path, codec, FileStoreOptions{}); err == nil {
		t.Error("open accepted a file with both superblock copies corrupt")
	}

	// A codec mismatch is rejected even with valid checksums.
	write(raw)
	if _, err := OpenFileStore(path, Codec{Dim: 3, PageSize: 512}, FileStoreOptions{}); err == nil {
		t.Error("open accepted a dimension mismatch")
	}
}

// Readers decode pages through pooled buffers while a writer appends
// pages and Syncs: every read must still yield one whole page with the
// identity that was asked for.
func TestFileStoreReadersWhileWriting(t *testing.T) {
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "drive.pages"), codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := writeLeaf(fs, 1); err != nil {
		t.Fatal(err)
	}
	const pages = 400
	var written atomic.Int64 // highest page id fully written
	written.Store(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; written.Load() < pages || i < 2*pages; i++ {
				id := rtree.PageID(1 + (i*7+g)%int(written.Load()))
				f, err := fs.ReadPage(id)
				if err != nil {
					t.Errorf("ReadPage(%d): %v", id, err)
					return
				}
				want := geom.PointRect(geom.Point{float64(id), float64(id) + 1})
				if f.ID != id || f.Len() != 1 || f.Object(0) != rtree.ObjectID(id) || !rectBitsEqual(f.Rect(0), want) {
					t.Errorf("ReadPage(%d) returned page %d, %d entries, object %d, rect %v",
						id, f.ID, f.Len(), f.Object(0), f.Rect(0))
					return
				}
			}
		}(g)
	}
	var werr error
	for id := rtree.PageID(2); id <= pages && werr == nil; id++ {
		if werr = writeLeaf(fs, id); werr == nil {
			written.Store(int64(id))
			if id%8 == 0 {
				werr = fs.Sync() // remap: the file grew
			}
		}
	}
	written.Store(pages) // a failed writer must not leave the readers spinning
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
}

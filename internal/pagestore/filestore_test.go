package pagestore

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
)

func leafNode(id rtree.PageID, x float64) *rtree.Node {
	n := &rtree.Node{ID: id, Level: 0}
	n.Entries = append(n.Entries, rtree.LeafEntry(geom.Point{x, x + 1}, rtree.ObjectID(id)))
	return n
}

// writeLeaf writes leafNode(id, id) to its slot the way the engine
// fills a replica: Codec.Encode, then WriteImage.
func writeLeaf(fs *FileStore, id rtree.PageID) error {
	buf, err := fs.codec.Encode(leafNode(id, float64(id)))
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
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// The file holds the pages and nothing else: slot 0 is never written.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6*512 || !bytes.Equal(raw[:512], make([]byte, 512)) {
		t.Errorf("file of %d bytes, slot 0 zero: %v; want 6 slots and an unwritten slot 0",
			len(raw), bytes.Equal(raw[:512], make([]byte, 512)))
	}

	fs2, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	pages := scanPages(t, fs2)
	if len(pages) != 5 {
		t.Fatalf("ScanPages found %d pages, want 5", len(pages))
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

// Page ids start at 1: every FileStore call refuses one below, which
// would name slot 0 or bytes before the file, and writes nothing.
func TestFileStoreRefusesInvalidPageIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drive.pages")
	codec := Codec{Dim: 2, PageSize: 512}
	fs, err := OpenFileStore(path, codec, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := writeLeaf(fs, 1); err != nil {
		t.Fatal(err)
	}
	img, err := codec.Encode(leafNode(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []rtree.PageID{0, -1, math.MinInt32} {
		for name, call := range map[string]func() error{
			"WriteImage": func() error { return fs.WriteImage(id, img) },
			"ZeroPage":   func() error { return fs.ZeroPage(id) },
			"ReadImage":  func() error { _, err := fs.ReadImage(id); return err },
			"ReadPage":   func() error { _, err := fs.ReadPage(id); return err },
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s(%d): err = %v, want the id refused", name, id, err)
			}
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the refused calls changed the file (%v)", err)
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

// scanPages collects what ScanPages hands over: a copy of every image.
func scanPages(t *testing.T, fs *FileStore) map[rtree.PageID][]byte {
	t.Helper()
	pages := make(map[rtree.PageID][]byte)
	if err := fs.ScanPages(func(id rtree.PageID, img []byte) error {
		pages[id] = bytes.Clone(img)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pages
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
	pages := scanPages(t, fs)
	if _, ok := pages[2]; ok || len(pages) != 2 {
		t.Errorf("ScanPages found %d pages (freed slot present: %v), want 2 without slot 2", len(pages), ok)
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
				want := geom.Point{float64(id), float64(id) + 1}
				if f.ID != id || f.Len() != 1 || f.Object(0) != rtree.ObjectID(id) || !pointBitsEqual(f.Point(0), want) {
					t.Errorf("ReadPage(%d) returned page %d, %d entries, object %d, point %v",
						id, f.ID, f.Len(), f.Object(0), f.Point(0))
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

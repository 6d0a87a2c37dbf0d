package pagestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// FileStoreOptions configures OpenFileStore. The zero value is valid:
// no telemetry.
type FileStoreOptions struct {
	// Counters, when non-nil, receives PageReads/PageWrites/DataSyncs.
	Counters *obs.StorageCounters
}

// FileStore is one drive's page file: a run of page-sized slots, one
// encoded R*-tree node per slot — the persistent realization of the
// paper's "one node = one disk page" layout (§2.1) for a single
// simulated drive. Page id n lives at byte offset n*PageSize; ids start
// at 1, so slot 0 is never written. The file holds nothing but pages:
// what a tree needs beside them — root, size, every page's record — is
// the DurableStore's, in its record tables and its WAL. Reads and
// writes are positional (pread/pwrite); writes become durable at Sync.
// Crash consistency across multi-page tree operations is the job of
// DurableStore's write-ahead log, which replays into it. Safe for
// concurrent use.
type FileStore struct {
	codec    Codec
	counters *obs.StorageCounters
	f        BlockFile
	images   sync.Pool              // *[]byte page buffers for ReadPage, which decodes and drops the image
	zero     atomic.Pointer[[]byte] // ZeroPage's page of zeroes, made at its first call
}

// OpenFileStore opens (creating if absent) the page file at path.
func OpenFileStore(path string, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileStore{codec: codec, counters: opts.Counters, f: osBlockFile{f: f}}, nil
}

// pageOffset maps a page id to its byte offset (valid ids start at 1).
func (fs *FileStore) pageOffset(id rtree.PageID) (int64, error) {
	if id < 1 {
		return 0, fmt.Errorf("pagestore: page id %d out of range (ids start at 1)", id)
	}
	return int64(id) * int64(fs.codec.PageSize), nil
}

// WriteImage writes one already-encoded page image at its slot. The
// image must be exactly one page.
func (fs *FileStore) WriteImage(id rtree.PageID, buf []byte) error {
	if len(buf) != fs.codec.PageSize {
		return fmt.Errorf("pagestore: image for page %d is %d bytes, want %d", id, len(buf), fs.codec.PageSize)
	}
	off, err := fs.pageOffset(id)
	if err != nil {
		return err
	}
	if _, err := fs.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("pagestore: writing page %d: %w", id, err)
	}
	if fs.counters != nil {
		fs.counters.PageWrites.Add(1)
	}
	return nil
}

// ZeroPage overwrites a page slot with zeroes — the on-disk
// representation of a freed page (ScanPages skips slots without the
// node magic) — from a zero page the store keeps.
func (fs *FileStore) ZeroPage(id rtree.PageID) error {
	off, err := fs.pageOffset(id)
	if err != nil {
		return err
	}
	size, err := fs.f.Size()
	if err != nil {
		return err
	}
	if off >= size {
		return nil // never written; nothing to erase
	}
	zero := fs.zero.Load()
	if zero == nil {
		z := make([]byte, fs.codec.PageSize)
		zero = &z
		fs.zero.Store(zero)
	}
	if _, err := fs.f.WriteAt(*zero, off); err != nil {
		return fmt.Errorf("pagestore: zeroing page %d: %w", id, err)
	}
	if fs.counters != nil {
		fs.counters.PageWrites.Add(1)
	}
	return nil
}

// ReadImage reads the raw image of one page into a buffer the caller
// owns. A short read — the slot lies past the end of the file, or the
// file was truncated mid-page — surfaces as an error wrapping
// io.ErrUnexpectedEOF, exactly what a real drive returning fewer bytes
// than asked looks like to callers.
func (fs *FileStore) ReadImage(id rtree.PageID) ([]byte, error) {
	off, err := fs.pageOffset(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fs.codec.PageSize)
	if err := fs.pread(id, off, buf); err != nil {
		return nil, err
	}
	if fs.counters != nil {
		fs.counters.PageReads.Add(1)
	}
	return buf, nil
}

// pread fills buf with the page at off, mapping a short read to
// io.ErrUnexpectedEOF.
func (fs *FileStore) pread(id rtree.PageID, off int64, buf []byte) error {
	n, err := fs.f.ReadAt(buf, off)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("pagestore: short read of page %d (%d of %d bytes): %w",
				id, n, fs.codec.PageSize, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("pagestore: reading page %d: %w", id, err)
	}
	return nil
}

// ReadPage implements Reader: a physical page read plus decode, with
// the misdirected-read identity check (decoded id must equal the slot).
// The image is read into a pooled buffer; the decoder copies every field
// out, so the view keeps no reference to it.
func (fs *FileStore) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	off, err := fs.pageOffset(id)
	if err != nil {
		return nil, err
	}
	bp, _ := fs.images.Get().(*[]byte)
	if bp == nil {
		buf := make([]byte, fs.codec.PageSize)
		bp = &buf
	}
	defer fs.images.Put(bp)
	if err := fs.pread(id, off, *bp); err != nil {
		return nil, err
	}
	if fs.counters != nil {
		fs.counters.PageReads.Add(1)
	}
	return decodeChecked(fs.codec, id, *bp)
}

// decodeChecked builds the view of page id from its image and enforces
// the misdirected-read identity check.
func decodeChecked(codec Codec, id rtree.PageID, buf []byte) (*rtree.FlatNode, error) {
	f, err := codec.Decode(buf)
	if err != nil {
		var ie *IntegrityError
		if errors.As(err, &ie) {
			ie.Want = id // the decoder's own error, not yet shared
			return nil, ie
		}
		return nil, fmt.Errorf("pagestore: page %d: %w", id, err)
	}
	if f.ID != id {
		return nil, &IntegrityError{Want: id, Got: f.ID}
	}
	return f, nil
}

// ScanPages reads every page slot, in slot order, into one buffer and
// hands each slot that holds an encoded node to fn (slots without the
// node magic — freed or never written — are skipped). The buffer is the
// next slot's: fn must not keep img. Open decodes the checkpointed pages
// with it.
func (fs *FileStore) ScanPages(fn func(id rtree.PageID, img []byte) error) error {
	end, err := fs.f.Size()
	if err != nil {
		return err
	}
	page := int64(fs.codec.PageSize)
	buf := make([]byte, page)
	for off := page; off+page <= end; off += page {
		id := rtree.PageID(off / page)
		if err := fs.pread(id, off, buf); err != nil {
			return err
		}
		if fs.counters != nil {
			fs.counters.PageReads.Add(1)
		}
		if buf[0] != magic {
			continue
		}
		if err := fn(id, buf); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes all writes to stable storage.
func (fs *FileStore) Sync() error {
	if err := fs.f.Sync(); err != nil {
		return err
	}
	if fs.counters != nil {
		fs.counters.DataSyncs.Add(1)
	}
	return nil
}

// Close closes the file.
func (fs *FileStore) Close() error {
	return fs.f.Close()
}

package pagestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"encoding/binary"

	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// FileStore is a page-aligned file of encoded R*-tree nodes — the
// persistent realization of the paper's "one node = one disk page"
// layout (§2.1) for a single simulated drive. Page id n lives at byte
// offset n*PageSize; slot 0 is the superblock. Reads and writes are
// positional (pread/pwrite); writes become durable at Sync. FileStore
// itself is a dumb block device with a checksummed superblock — crash
// consistency across multi-page tree operations is the job of
// DurableStore's write-ahead log, which replays into it.
//
// The superblock layout (always in slot 0, pages start at slot 1 —
// rtree page ids start at 1, so the slots line up with ids):
//
//	offset 0   4 bytes  magic "SQFS"
//	offset 4   uint8    version (2)
//	offset 5   uint8    spheres flag
//	offset 6   uint16   dimension
//	offset 8   uint32   page size
//	offset 12  uint64   root page id
//	offset 20  uint64   object count
//	offset 28  uint64   next page id
//	offset 36  uint8    live record table (0 or 1, see records.go)
//	offset 37  3 bytes  reserved (zero)
//	offset 40  uint32   record table length
//	offset 44  uint32   record table CRC-32
//	offset 48  uint32   IEEE CRC-32 of bytes 0..48
//
// Slot 0 holds TWO copies of this record: the primary at offset 0 and
// a backup at offset 64. Updates write the backup first, then the
// primary, so a crash mid-update tears at most the copy being written
// and open always finds a copy with a valid checksum. Falling back to
// a stale copy is safe: the WAL is reset only after the superblock is
// durable, so replay re-derives any newer metadata, and a checkpoint
// writes only the record table neither copy names.
//
// Version 1 (no record table) is refused: its pages carry no
// placements, and there is no second way to restore them.
var fileMagic = [4]byte{'S', 'Q', 'F', 'S'}

const (
	fileVersion         = 2
	superblockSize      = 52
	superblockBackupOff = 64
)

// FileMeta is the tree metadata persisted in the superblock: everything
// rtree.Restore needs besides the pages themselves, and where the
// pages' records are.
type FileMeta struct {
	Root   rtree.PageID
	Size   int
	NextID rtree.PageID
	table  tableRef
}

// errTornSuperblock marks a superblock copy that does not check out:
// torn by a crash, or never written. Open falls back to the other copy.
var errTornSuperblock = errors.New("pagestore: torn superblock")

// FileStoreOptions configures OpenFileStore. The zero value is valid:
// no telemetry.
type FileStoreOptions struct {
	// Counters, when non-nil, receives PageReads/PageWrites/DataSyncs.
	Counters *obs.StorageCounters
}

// FileStore implements page-granular persistent storage for one drive.
// Safe for concurrent use.
type FileStore struct {
	codec    Codec
	counters *obs.StorageCounters
	images   sync.Pool // *[]byte page buffers for ReadPage, which decodes and drops the image

	mu   lockrank.Mutex[lockrank.FileStoreMu]
	f    BlockFile // guarded by mu
	meta FileMeta  // guarded by mu
	zero []byte    // ZeroPage's page of zeroes, made at its first call; guarded by mu
}

// OpenFileStore opens (creating if absent) the page file at path. An
// existing file must carry a superblock matching the codec's page size,
// dimensionality and sphere layout.
func OpenFileStore(path string, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fs, err := NewFileStoreOn(osBlockFile{f: f}, codec, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// NewFileStoreOn builds a store over a caller-supplied block file (the
// crash-test injection seam).
func NewFileStoreOn(f BlockFile, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	if codec.PageSize < superblockBackupOff+superblockSize {
		return nil, fmt.Errorf("pagestore: page size %d smaller than the superblock pair (%d bytes)",
			codec.PageSize, superblockBackupOff+superblockSize)
	}
	fs := &FileStore{codec: codec, counters: opts.Counters, f: f}
	// Open-time: the store is not shared yet, but lock anyway to keep
	// the guarded-field discipline uniform.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		fs.meta = FileMeta{NextID: 1}
		if err := fs.writeMetaLocked(); err != nil {
			return nil, err
		}
		return fs, nil
	}
	meta, fromBackup, err := fs.readSuperblock()
	if err != nil {
		return nil, err
	}
	fs.meta = meta
	if fromBackup {
		// The primary copy was torn (crash mid-update). Heal it now so a
		// second crash before the next checkpoint still finds a valid
		// copy; durability rides on the next Sync.
		if err := fs.writeMetaLocked(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// readSuperblock reads and validates slot 0, falling back to the backup
// copy when the primary is torn. fromBackup reports that the fallback
// was taken. A copy that checks out but describes another layout or
// version is the answer, not a tear. Called before the store is shared,
// so no locking.
func (fs *FileStore) readSuperblock() (meta FileMeta, fromBackup bool, err error) {
	meta, errPrimary := fs.readSuperblockAt(0)
	if !errors.Is(errPrimary, errTornSuperblock) {
		return meta, false, errPrimary
	}
	meta, errBackup := fs.readSuperblockAt(superblockBackupOff)
	if !errors.Is(errBackup, errTornSuperblock) {
		return meta, errBackup == nil, errBackup
	}
	return FileMeta{}, false, fmt.Errorf(
		"pagestore: both superblock copies invalid: %w; backup: %v", errPrimary, errBackup)
}

// readSuperblockAt reads and validates one superblock copy.
func (fs *FileStore) readSuperblockAt(off int64) (FileMeta, error) {
	var sb [superblockSize]byte
	if _, err := fs.f.ReadAt(sb[:], off); err != nil { //lint:allow lockcheck open-time, store not yet shared
		return FileMeta{}, fmt.Errorf("%w: reading superblock: %v", errTornSuperblock, err)
	}
	if [4]byte(sb[0:4]) != fileMagic {
		return FileMeta{}, fmt.Errorf("%w: bad file magic %q", errTornSuperblock, sb[0:4])
	}
	if sb[4] != fileVersion {
		// Version 1 kept its checksum at offset 36.
		if sb[4] == 1 && crc32.ChecksumIEEE(sb[:36]) == binary.LittleEndian.Uint32(sb[36:]) {
			return FileMeta{}, fmt.Errorf("pagestore: data file version 1, want %d: the directory predates "+
				"per-page placement records and cannot be opened; rebuild it", fileVersion)
		}
		return FileMeta{}, fmt.Errorf("%w: file version %d", errTornSuperblock, sb[4])
	}
	sum := crc32.ChecksumIEEE(sb[:48])
	if got := binary.LittleEndian.Uint32(sb[48:]); got != sum {
		return FileMeta{}, fmt.Errorf("%w: checksum 0x%08x vs 0x%08x", errTornSuperblock, got, sum)
	}
	spheres := sb[5] == 1
	dim := int(binary.LittleEndian.Uint16(sb[6:]))
	pageSize := int(binary.LittleEndian.Uint32(sb[8:]))
	for _, f := range []struct {
		name      string
		dir, open any
	}{
		{"Dim", dim, fs.codec.Dim},
		{"PageSize", pageSize, fs.codec.PageSize},
		{"UseSpheres", spheres, fs.codec.Spheres},
	} {
		if f.dir != f.open {
			return FileMeta{}, fmt.Errorf("pagestore: directory was written with %s %v, opened with %v", f.name, f.dir, f.open)
		}
	}
	return FileMeta{
		Root:   rtree.PageID(binary.LittleEndian.Uint64(sb[12:])),
		Size:   int(binary.LittleEndian.Uint64(sb[20:])),
		NextID: rtree.PageID(binary.LittleEndian.Uint64(sb[28:])),
		table: tableRef{
			file: sb[36],
			size: binary.LittleEndian.Uint32(sb[40:]),
			crc:  binary.LittleEndian.Uint32(sb[44:]),
		},
	}, nil
}

// writeMetaLocked serializes fs.meta into slot 0: backup copy first,
// then the primary, as two separate writes, so a crash tears at most
// one of them (see the superblock layout comment). Callers hold fs.mu
// (or, at open time, have exclusive access).
func (fs *FileStore) writeMetaLocked() error {
	var sb [superblockSize]byte
	copy(sb[0:4], fileMagic[:])
	sb[4] = fileVersion
	if fs.codec.Spheres {
		sb[5] = 1
	}
	binary.LittleEndian.PutUint16(sb[6:], uint16(fs.codec.Dim))
	binary.LittleEndian.PutUint32(sb[8:], uint32(fs.codec.PageSize))
	m := fs.meta //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
	binary.LittleEndian.PutUint64(sb[12:], uint64(m.Root))
	binary.LittleEndian.PutUint64(sb[20:], uint64(m.Size))
	binary.LittleEndian.PutUint64(sb[28:], uint64(m.NextID))
	sb[36] = m.table.file
	binary.LittleEndian.PutUint32(sb[40:], m.table.size)
	binary.LittleEndian.PutUint32(sb[44:], m.table.crc)
	binary.LittleEndian.PutUint32(sb[48:], crc32.ChecksumIEEE(sb[:48]))
	if _, err := fs.f.WriteAt(sb[:], superblockBackupOff); err != nil { //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
		return fmt.Errorf("pagestore: writing backup superblock: %w", err)
	}
	if _, err := fs.f.WriteAt(sb[:], 0); err != nil { //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
		return fmt.Errorf("pagestore: writing superblock: %w", err)
	}
	return nil
}

// WriteMeta persists new tree metadata to the superblock. It does not
// sync; pair with Sync for durability.
func (fs *FileStore) WriteMeta(m FileMeta) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.meta = m
	return fs.writeMetaLocked()
}

// Meta returns the last written tree metadata.
func (fs *FileStore) Meta() FileMeta {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.meta
}

// pageOffset maps a page id to its byte offset (slot 0 is the
// superblock; valid ids start at 1).
func (fs *FileStore) pageOffset(id rtree.PageID) (int64, error) {
	if id < 1 {
		return 0, fmt.Errorf("pagestore: page id %d out of range (slot 0 is the superblock)", id)
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
	fs.mu.Lock()
	defer fs.mu.Unlock()
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
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, err := fs.f.Size()
	if err != nil {
		return err
	}
	if off >= size {
		return nil // never written; nothing to erase
	}
	if fs.zero == nil {
		fs.zero = make([]byte, fs.codec.PageSize)
	}
	if _, err := fs.f.WriteAt(fs.zero, off); err != nil {
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
	fs.mu.Lock()
	f := fs.f
	fs.mu.Unlock()
	n, err := f.ReadAt(buf, off)
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
	fs.mu.Lock()
	end, err := fs.f.Size()
	fs.mu.Unlock()
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
	fs.mu.Lock()
	defer fs.mu.Unlock()
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
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.f.Close()
}

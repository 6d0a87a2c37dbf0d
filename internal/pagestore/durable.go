package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// DurableStore is the crash-safe rtree.Store: a decoded working set in
// memory, a FileStore holding the checkpointed pages, and a WAL holding
// everything committed since. Mutations (Allocate/Update/Free) stage in
// memory; Commit makes a batch durable (WAL append + one fsync) and
// publishes it to readers as a new epoch; Checkpoint folds the
// committed state into the data file and resets the WAL.
//
// Epoch isolation: readers obtain an immutable *EpochView via Snapshot
// and read a frozen page set — a tree mid-split never shows readers a
// torn parent/child pair, because splits only become visible at the
// Commit that publishes both halves atomically. Once an epoch has been
// handed to a reader its page map is never mutated again; the next
// Commit copies it (copy-on-write at commit granularity). Nor is any
// image it holds: Commit encodes into the images earlier Commits
// released, and only an image no pinned epoch can reach is released.
//
// Recovery: OpenDurable loads the checkpointed pages, then replays the
// WAL's committed batches in LSN order (redo only — every record is
// idempotent, so replaying after a crash mid-checkpoint is safe), and
// truncates whatever follows the last commit record.
type DurableStore struct {
	codec    Codec
	fs       *FileStore
	wal      *WAL
	counters *obs.StorageCounters

	mu         sync.RWMutex
	nodes      map[rtree.PageID]*rtree.Node // decoded working set; guarded by mu
	dirty      map[rtree.PageID]bool        // pages updated since last Commit; guarded by mu
	freedStage map[rtree.PageID]bool        // staged frees since last Commit; guarded by mu
	cur        *storeEpoch                  // committed state; guarded by mu
	ckptDirty  map[rtree.PageID]bool        // committed but not yet checkpointed; guarded by mu
	ckptFreed  map[rtree.PageID]bool        // freed since last checkpoint; guarded by mu
	nextID     rtree.PageID                 // guarded by mu

	// owned holds the pages whose image in cur was encoded by a Commit
	// into cur itself: no pinned epoch can reach those images, so the one
	// a later Commit replaces or frees goes to spare, where the next
	// Commit encodes into it. Images cur shares with a pinned epoch, and
	// images recovered at open, are never reused (DESIGN.md, decision 17).
	owned map[rtree.PageID]bool // guarded by mu
	spare [][]byte              // guarded by mu

	// Commit's and Checkpoint's working lists, reused.
	ids, freedIDs []rtree.PageID // guarded by mu
	images        [][]byte       // guarded by mu
}

// storeEpoch is one committed, immutable-once-shared version of the
// page set. pinned flips to true the first time a reader snapshots it;
// from then on Commit clones instead of mutating.
type storeEpoch struct {
	pages  map[rtree.PageID][]byte
	root   rtree.PageID
	size   int
	pinned bool
}

// DurableOptions configures OpenDurable. The zero value is valid.
type DurableOptions struct {
	// Mmap enables the FileStore's mapped read path.
	Mmap bool
	// Counters, when non-nil, receives all storage telemetry.
	Counters *obs.StorageCounters
}

// Standard file names inside a DurableStore directory.
const (
	DataFileName = "pages.db"
	WALFileName  = "wal.log"
)

// OpenDurable opens (creating if absent) the store rooted at dir,
// running crash recovery if the WAL holds committed batches.
func OpenDurable(dir string, codec Codec, opts DurableOptions) (*DurableStore, error) {
	fs, err := OpenFileStore(filepath.Join(dir, DataFileName), codec, FileStoreOptions{
		Mmap: opts.Mmap, Counters: opts.Counters,
	})
	if err != nil {
		return nil, err
	}
	w, entries, err := openWAL(filepath.Join(dir, WALFileName), codec.PageSize, opts.Counters)
	if err != nil {
		return nil, errors.Join(err, fs.Close())
	}
	s, err := newDurable(fs, w, entries, opts.Counters)
	if err != nil {
		return nil, errors.Join(err, w.Close(), fs.Close())
	}
	return s, nil
}

// OpenDurableOn assembles a store over caller-supplied block files —
// the dependency-injection seam the crash-recovery torture tests use to
// run the full commit/checkpoint/recover protocol against in-memory
// files that tear their writes at programmed sync points. No mmap
// (that needs a real OS file).
func OpenDurableOn(data, wal BlockFile, codec Codec, opts DurableOptions) (*DurableStore, error) {
	fs, err := NewFileStoreOn(data, codec, FileStoreOptions{Counters: opts.Counters})
	if err != nil {
		return nil, err
	}
	w, entries, err := newWAL(wal, codec.PageSize, opts.Counters)
	if err != nil {
		return nil, err
	}
	return newDurable(fs, w, entries, opts.Counters)
}

// newDurable assembles the store and performs WAL replay (the crash
// tests call it directly over in-memory crash files).
func newDurable(fs *FileStore, w *WAL, entries []walEntry, counters *obs.StorageCounters) (*DurableStore, error) {
	pages, err := fs.LoadPages()
	if err != nil {
		return nil, err
	}
	meta := fs.Meta()
	nextID := meta.NextID
	if nextID < 1 {
		nextID = 1
	}
	s := &DurableStore{
		codec:    fs.Codec(),
		fs:       fs,
		wal:      w,
		counters: counters,
		nodes:    make(map[rtree.PageID]*rtree.Node),
		dirty:    make(map[rtree.PageID]bool),

		freedStage: make(map[rtree.PageID]bool),
		ckptDirty:  make(map[rtree.PageID]bool),
		ckptFreed:  make(map[rtree.PageID]bool),
		cur:        &storeEpoch{pages: pages, root: meta.Root, size: meta.Size},
		nextID:     nextID,
		owned:      make(map[rtree.PageID]bool),
	}
	if err := s.replay(entries); err != nil {
		return nil, err
	}
	if err := s.materialize(); err != nil {
		return nil, err
	}
	return s, nil
}

// materialize decodes the recovered page set into the working-set node
// map, with the misdirected-read identity check on every slot.
func (s *DurableStore) materialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range sortedIDs(nil, s.cur.pages) {
		n, err := s.codec.DecodeNode(s.cur.pages[id])
		if err != nil {
			return fmt.Errorf("pagestore: recovering page %d: %w", id, err)
		}
		if n.ID != id {
			return &IntegrityError{Want: id, Got: n.ID}
		}
		s.nodes[id] = n
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	// A committed tree whose root was still an empty fresh node has no
	// root image; synthesize the empty node so rtree.Restore can walk.
	if s.cur.root != 0 {
		if _, ok := s.nodes[s.cur.root]; !ok && s.cur.size == 0 {
			s.nodes[s.cur.root] = &rtree.Node{ID: s.cur.root}
		}
	}
	return nil
}

// replay applies the WAL's committed batches to the base page set and
// truncates the log past the last commit record. Runs at open, before
// the store is shared; it takes the lock anyway to keep the locking
// discipline uniform.
func (s *DurableStore) replay(entries []walEntry) error {
	if len(entries) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters != nil {
		s.counters.Recoveries.Add(1)
	}
	staged := make(map[rtree.PageID][]byte)
	var stagedIDs []rtree.PageID // insertion order: replay preserves LSN order
	freed := make(map[rtree.PageID]bool)
	var freedIDs []rtree.PageID
	lastCommit := -1
	for i, e := range entries {
		rec := e.rec
		switch rec.Type {
		case WALPage:
			if len(rec.Payload) != 8+s.codec.PageSize {
				return fmt.Errorf("pagestore: WAL page record lsn %d: payload %d bytes, want %d",
					rec.LSN, len(rec.Payload), 8+s.codec.PageSize)
			}
			id := rtree.PageID(binary.LittleEndian.Uint64(rec.Payload))
			if _, ok := staged[id]; !ok {
				stagedIDs = append(stagedIDs, id)
			}
			staged[id] = rec.Payload[8:]
			delete(freed, id)
		case WALFree:
			if len(rec.Payload) != 8 {
				return fmt.Errorf("pagestore: WAL free record lsn %d: payload %d bytes, want 8",
					rec.LSN, len(rec.Payload))
			}
			id := rtree.PageID(binary.LittleEndian.Uint64(rec.Payload))
			if !freed[id] {
				freedIDs = append(freedIDs, id)
			}
			freed[id] = true
			delete(staged, id)
		case WALCommit:
			if len(rec.Payload) != 24 {
				return fmt.Errorf("pagestore: WAL commit record lsn %d: payload %d bytes, want 24",
					rec.LSN, len(rec.Payload))
			}
			for _, id := range stagedIDs {
				img, ok := staged[id]
				if !ok {
					continue // freed later in the same batch
				}
				s.cur.pages[id] = img
				s.ckptDirty[id] = true
				delete(s.ckptFreed, id)
			}
			for _, id := range freedIDs {
				if !freed[id] {
					continue // re-written later in the same batch
				}
				delete(s.cur.pages, id)
				delete(s.ckptDirty, id)
				s.ckptFreed[id] = true
			}
			s.cur.root = rtree.PageID(binary.LittleEndian.Uint64(rec.Payload[0:]))
			s.cur.size = int(binary.LittleEndian.Uint64(rec.Payload[8:]))
			s.nextID = rtree.PageID(binary.LittleEndian.Uint64(rec.Payload[16:]))
			staged = make(map[rtree.PageID][]byte)
			stagedIDs = stagedIDs[:0]
			freed = make(map[rtree.PageID]bool)
			freedIDs = freedIDs[:0]
			lastCommit = i
		}
		if s.counters != nil {
			s.counters.ReplayedRecords.Add(1)
		}
	}
	// Drop everything after the last commit: those records belong to a
	// batch whose commit never became durable.
	if lastCommit < len(entries)-1 {
		end := int64(walHeaderSize)
		nextLSN := uint64(1)
		if lastCommit >= 0 {
			end = entries[lastCommit].end
			nextLSN = entries[lastCommit].rec.LSN + 1
		}
		if err := s.wal.rewind(end, nextLSN); err != nil {
			return fmt.Errorf("pagestore: rewinding WAL past last commit: %w", err)
		}
	}
	return nil
}

// Codec returns the store's codec.
func (s *DurableStore) Codec() Codec { return s.codec }

// Get implements rtree.Store.
func (s *DurableStore) Get(id rtree.PageID) *rtree.Node {
	s.mu.RLock()
	n, ok := s.nodes[id]
	s.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("pagestore: unknown page %d", id))
	}
	return n
}

// Allocate implements rtree.Store.
func (s *DurableStore) Allocate(level int) *rtree.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &rtree.Node{ID: s.nextID, Level: level}
	s.nextID++
	s.nodes[n.ID] = n
	return n
}

// Update implements rtree.Store: the page is marked for the next
// Commit, which encodes it once, in the state it has then — however
// many times the batch touched it. A node that has outgrown its page
// panics here, where it happened (capacity misconfiguration, a
// programming error); what else can fail to encode fails the Commit.
func (s *DurableStore) Update(n *rtree.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n.InvalidateFlat()
	if err := s.codec.checkCapacity(n); err != nil {
		panic(err)
	}
	s.dirty[n.ID] = true
	delete(s.freedStage, n.ID)
}

// Free implements rtree.Store.
func (s *DurableStore) Free(id rtree.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.nodes, id)
	delete(s.dirty, id)
	s.freedStage[id] = true
}

// Len implements rtree.Store.
func (s *DurableStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Commit makes every staged mutation durable and visible: page and
// free records append to the WAL in sorted page order, a commit record
// carrying the tree metadata terminates the batch, one WAL fsync makes
// it the new durable state, and the staged images publish as a fresh
// reader epoch. root and size are the tree's post-batch metadata
// (tree.Root(), tree.Len()).
func (s *DurableStore) Commit(root rtree.PageID, size int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The root must always have a durable image, or recovery cannot
	// rebuild the tree. A fresh empty root never saw Update — stage it
	// on the spot.
	if root != 0 && !s.dirty[root] {
		if _, inEpoch := s.cur.pages[root]; !inEpoch {
			if _, ok := s.nodes[root]; ok {
				s.dirty[root] = true
			}
		}
	}
	s.ids = sortedIDs(s.ids, s.dirty)
	s.freedIDs = sortedIDs(s.freedIDs, s.freedStage)
	dirtyIDs, freedIDs := s.ids, s.freedIDs

	// One image per dirty page, before the log sees any of the batch: an
	// encoding failure leaves the WAL where it was. The images are the
	// spares, last first, then fresh pages; the spare list itself changes
	// only once the batch is published.
	images := s.images[:0]
	for i, id := range dirtyIDs {
		var buf []byte
		if i < len(s.spare) {
			buf = s.spare[len(s.spare)-1-i]
		}
		img, err := s.codec.EncodeInto(buf, s.nodes[id])
		if err != nil {
			return err
		}
		images = append(images, img)
	}
	s.images = images

	for i, id := range dirtyIDs {
		if err := s.wal.AppendPage(id, images[i]); err != nil {
			return err
		}
	}
	for _, id := range freedIDs {
		if err := s.wal.Append(WALFree, FreeRecordPayload(id)); err != nil {
			return err
		}
	}
	if err := s.wal.Append(WALCommit, CommitRecordPayload(root, size, s.nextID)); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}

	// Durable; now publish. If a reader pinned the current epoch, copy
	// it — their view must stay frozen, and every image in the copy is
	// theirs too.
	target := s.cur
	if target.pinned {
		clone := make(map[rtree.PageID][]byte, len(target.pages))
		for id, img := range target.pages {
			clone[id] = img
		}
		target = &storeEpoch{pages: clone}
		s.cur = target
		clear(s.owned)
	}
	// The spares encoded into are the epoch's now. The list keeps at most
	// one image per page of this batch; the rest is the collector's. An
	// image the epoch drops becomes a spare when the epoch alone held it.
	bound := len(dirtyIDs)
	used := min(bound, len(s.spare))
	keep := min(len(s.spare)-used, bound)
	clear(s.spare[keep:])
	s.spare = s.spare[:keep]
	release := func(id rtree.PageID) {
		if img, ok := target.pages[id]; ok && s.owned[id] && len(s.spare) < bound {
			s.spare = append(s.spare, img)
		}
	}
	for i, id := range dirtyIDs {
		release(id)
		target.pages[id] = images[i]
		s.owned[id] = true
		s.ckptDirty[id] = true
		delete(s.ckptFreed, id)
	}
	for _, id := range freedIDs {
		release(id)
		delete(target.pages, id)
		delete(s.owned, id)
		delete(s.ckptDirty, id)
		s.ckptFreed[id] = true
	}
	clear(images)
	target.root = root
	target.size = size
	clear(s.dirty)
	clear(s.freedStage)
	return nil
}

// sortedIDs refills dst with the pages of set in ascending order.
func sortedIDs[V any](dst []rtree.PageID, set map[rtree.PageID]V) []rtree.PageID {
	dst = dst[:0]
	for id := range set {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}

// Checkpoint folds every committed-since-last-checkpoint page into the
// data file, zeroes freed slots, persists the tree metadata, fsyncs,
// and resets the WAL. Crash-safe at any point: until the WAL reset the
// log still holds every batch, and redo replay over an arbitrarily
// partial checkpoint converges to the same state (records are
// idempotent page images).
func (s *DurableStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids = sortedIDs(s.ids, s.ckptDirty)
	for _, id := range s.ids {
		img, ok := s.cur.pages[id]
		if !ok {
			continue
		}
		if err := s.fs.WriteImage(id, img); err != nil {
			return err
		}
	}
	s.freedIDs = sortedIDs(s.freedIDs, s.ckptFreed)
	for _, id := range s.freedIDs {
		if err := s.fs.ZeroPage(id); err != nil {
			return err
		}
	}
	if err := s.fs.Sync(); err != nil {
		return err
	}
	if err := s.fs.WriteMeta(FileMeta{Root: s.cur.root, Size: s.cur.size, NextID: s.nextID}); err != nil {
		return err
	}
	if err := s.fs.Sync(); err != nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	clear(s.ckptDirty)
	clear(s.ckptFreed)
	if s.counters != nil {
		s.counters.Checkpoints.Add(1)
	}
	return nil
}

// Meta returns the committed tree metadata (what recovery would
// restore right now).
func (s *DurableStore) Meta() FileMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return FileMeta{Root: s.cur.root, Size: s.cur.size, NextID: s.nextID}
}

// Snapshot pins the current committed epoch and returns an immutable
// reader over it. The view stays valid (and frozen) across any number
// of later Commits; it costs the next Commit one page-map copy.
func (s *DurableStore) Snapshot() *EpochView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.pinned = true
	return &EpochView{codec: s.codec, epoch: s.cur}
}

// ReadPage implements Reader against the committed epoch: uncommitted
// staged pages are invisible, exactly like a reader that snapshotted
// this instant. It decodes under the lock: the next Commit may reuse
// the image once the epoch has replaced it.
func (s *DurableStore) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	buf, ok := s.cur.pages[id]
	if !ok {
		return nil, fmt.Errorf("pagestore: page %d not in committed epoch", id)
	}
	return decodeChecked(s.codec, id, buf)
}

// VerifyShadow checks every working-set node against its committed
// image, bitwise. A page updated since the last Commit has no image to
// be checked against yet: the Commit encodes it from the node.
func (s *DurableStore) VerifyShadow() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, n := range s.nodes {
		if s.dirty[id] {
			continue
		}
		buf, ok := s.cur.pages[id]
		if !ok {
			if len(n.Entries) != 0 {
				return fmt.Errorf("pagestore: page %d has entries but no encoded image", id)
			}
			continue
		}
		if err := verifyShadowNode(s.codec, n, buf); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the WAL and the data file. It does not commit or
// checkpoint — callers decide what the final durable state is.
func (s *DurableStore) Close() error {
	return errors.Join(s.wal.Close(), s.fs.Close())
}

// decodeChecked is the one decode of every Reader in this package: it
// builds the page's view from an image and enforces the misdirected-read
// identity check.
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

// EpochView is an immutable reader over one committed epoch. Safe for
// concurrent use; decoded pages are optionally cached (WithCache).
type EpochView struct {
	codec Codec
	epoch *storeEpoch
	cache *bufferpool.Sharded[rtree.PageID, *rtree.FlatNode]
}

// WithCache attaches a decoded-page cache (singleflight LRU) to the
// view and returns it. Each view owns its cache: page ids are not
// stable keys across epochs.
func (v *EpochView) WithCache(capacity, shards int) *EpochView {
	v.cache = bufferpool.NewSharded[rtree.PageID, *rtree.FlatNode](capacity, shards, func(id rtree.PageID) uint64 {
		return uint64(id) * 0x9E3779B97F4A7C15
	})
	return v
}

// Root returns the epoch's root page.
func (v *EpochView) Root() rtree.PageID { return v.epoch.root }

// Size returns the epoch's object count.
func (v *EpochView) Size() int { return v.epoch.size }

// Pages returns the number of pages in the epoch.
func (v *EpochView) Pages() int { return len(v.epoch.pages) }

// ReadPage implements Reader over the frozen page set.
func (v *EpochView) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	if v.cache != nil {
		return v.cache.GetOrFetch(id, func() (*rtree.FlatNode, error) {
			return v.decode(id)
		})
	}
	return v.decode(id)
}

func (v *EpochView) decode(id rtree.PageID) (*rtree.FlatNode, error) {
	buf, ok := v.epoch.pages[id]
	if !ok {
		return nil, fmt.Errorf("pagestore: page %d not in epoch", id)
	}
	return decodeChecked(v.codec, id, buf)
}

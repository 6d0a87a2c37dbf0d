package obs

import "sync/atomic"

// StorageCounters is the persistence-layer telemetry shared by the
// file-backed page stores and the write-ahead log (package pagestore):
// physical page traffic, WAL appends and fsyncs, checkpoints and
// recovery replays. All fields are atomics; do not copy a
// StorageCounters once in use. The engine aggregates one instance
// across all of its replica files and exposes it in its Snapshot.
type StorageCounters struct {
	// PageReads counts physical page reads (pread).
	PageReads atomic.Uint64
	// PageWrites counts physical page writes (pwrite).
	PageWrites atomic.Uint64
	// WALAppends counts records appended to the write-ahead log.
	WALAppends atomic.Uint64
	// WALSyncs counts WAL fsyncs — one per commit boundary, the
	// durability points crash recovery replays to.
	WALSyncs atomic.Uint64
	// DataSyncs counts data-file fsyncs (page-file writes made durable,
	// typically at checkpoints).
	DataSyncs atomic.Uint64
	// Checkpoints counts completed checkpoints (pages flushed to the
	// data file and the WAL truncated).
	Checkpoints atomic.Uint64
	// Recoveries counts recovery replays performed at open.
	Recoveries atomic.Uint64
	// ReplayedRecords counts WAL records applied during recovery.
	ReplayedRecords atomic.Uint64
}

// Snapshot freezes the storage counters.
func (c *StorageCounters) Snapshot() StorageSnapshot { return Load[StorageSnapshot](c) }

// StorageSnapshot is a point-in-time copy of a StorageCounters.
type StorageSnapshot struct {
	PageReads       uint64
	PageWrites      uint64
	WALAppends      uint64
	WALSyncs        uint64
	DataSyncs       uint64
	Checkpoints     uint64
	Recoveries      uint64
	ReplayedRecords uint64
}

// Sub diffs two snapshots (s taken after prev).
func (s StorageSnapshot) Sub(prev StorageSnapshot) StorageSnapshot { return Diff(s, prev) }

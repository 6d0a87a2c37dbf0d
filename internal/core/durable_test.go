package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pagestore"
)

// The durable index round trip: build, commit, checkpoint, close,
// reopen — the recovered index must report the committed population and
// answer queries bit-identically to the pre-crash index.
func TestIndexDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: dir}
	pts := dataset.Uniform(1500, 2, 5)
	queries := dataset.SampleQueries(pts, 10, 9)

	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Recovered() != 0 {
		t.Fatalf("fresh index claims %d recovered points", ix.Recovered())
	}
	if err := ix.InsertAll(pts[:1000], 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second batch rides on the WAL only (no checkpoint): recovery
	// must replay it.
	if err := ix.InsertAll(pts[1000:], 1000); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		obj  []int64
		dist []uint64
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		res, _, err := ix.KNN(q, 10, "crss")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			want[i].obj = append(want[i].obj, int64(r.Object))
			want[i].dist = append(want[i].dist, math.Float64bits(r.DistSq))
		}
	}
	s := ix.StorageStats()
	if s.WALSyncs == 0 || s.Checkpoints != 1 || s.PageWrites == 0 {
		t.Errorf("storage stats = %+v", s)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := NewIndex(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ix2.Close()
	if got := ix2.Recovered(); got != len(pts) {
		t.Fatalf("recovered %d points, want %d", got, len(pts))
	}
	if err := ix2.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, _, err := ix2.KNN(q, 10, "crss")
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want[i].obj) {
			t.Fatalf("query %d: recovered %d results, want %d", i, len(res), len(want[i].obj))
		}
		for j, r := range res {
			if int64(r.Object) != want[i].obj[j] || math.Float64bits(r.DistSq) != want[i].dist[j] {
				t.Fatalf("query %d result %d differs after recovery", i, j)
			}
		}
	}
}

// Mutations staged after the last Commit must not survive a reopen.
func TestIndexDurableUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	cfg := IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: dir}
	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.Uniform(300, 2, 5)
	if err := ix.InsertAll(pts[:200], 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertAll(pts[200:], 200); err != nil { // never committed
		t.Fatal(err)
	}
	ix.Close()

	ix2, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if got := ix2.Recovered(); got != 200 {
		t.Errorf("recovered %d points, want the 200 committed ones", got)
	}
}

// A reopen with another geometry or another array is refused, with an
// error that names the field and both values once, not as corruption.
func TestIndexDurableReopenMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	base := IndexConfig{Dim: 2, NumDisks: 10, Seed: 1998, DataDir: dir}
	ix, err := NewIndex(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertAll(dataset.CaliforniaLike(2000, 1998), 0); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(ix.Commit(), ix.Close()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field, dir, opened string
		set                func(*IndexConfig)
	}{
		{"Dim", "2", "3", func(c *IndexConfig) { c.Dim = 3 }},
		{"PageSize", "4096", "8192", func(c *IndexConfig) { c.PageSize = 8192 }},
		{"UseSpheres", "false", "true", func(c *IndexConfig) { c.UseSpheres = true }},
		{"NumDisks", "10", "3", func(c *IndexConfig) { c.NumDisks = 3 }},
		{"Policy", "proximity", "roundrobin", func(c *IndexConfig) { c.Policy = "roundrobin" }},
		{"Seed", "1998", "99", func(c *IndexConfig) { c.Seed = 99 }},
	} {
		t.Run(c.field, func(t *testing.T) {
			cfg := base
			c.set(&cfg)
			ix, err := NewIndex(cfg)
			if err == nil {
				ix.Close()
				t.Fatalf("reopen with %s %s accepted a directory written with %s", c.field, c.opened, c.dir)
			}
			want := fmt.Sprintf("written with %s %s, opened with %s", c.field, c.dir, c.opened)
			if msg := err.Error(); strings.Count(msg, want) != 1 || strings.Contains(msg, "invalid") {
				t.Errorf("error %q, want it to say %q once and nothing about corruption", msg, want)
			}
		})
	}
	// The matching configuration still opens.
	ix, err = NewIndex(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(ix.Check(), ix.Close()); err != nil {
		t.Fatal(err)
	}
}

// A recovered index must reject a geometry that does not match the
// files on disk instead of silently misreading them.
func TestIndexDurableGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	ix, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertAll([]geom.Point{{1, 2}, {3, 4}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if _, err := NewIndex(IndexConfig{Dim: 3, NumDisks: 4, Seed: 3, DataDir: dir}); err == nil {
		t.Error("reopen with a different dimensionality succeeded")
	}
}

// An index whose page file cannot take a write (it is /dev/full, where
// every write fails with ENOSPC) commits into its log and fails its
// checkpoint with the device's error; a reopen recovers the commit from
// the log.
func TestIndexDurableFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "pages.db")); err != nil {
		t.Fatal(err)
	}
	cfg := IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: dir}
	ix, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.Uniform(300, 2, 5)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err == nil || !strings.Contains(err.Error(), "no space left on device") {
		t.Errorf("Checkpoint onto a full disk: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Errorf("reopen holds %d points, want the %d committed", re.Len(), len(pts))
	}
}

// Index.Close reports its store's close error: an index whose store was
// closed under it fails its own Close.
func TestIndexDurableCloseReportsStoreErrors(t *testing.T) {
	ix, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close over a closed store: %v, want os.ErrClosed", err)
	}
}

// blockFile is a DurableStore file on disk whose Sync fails while
// syncErr is set.
type blockFile struct {
	*os.File
	syncErr error
}

func (f *blockFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *blockFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// An index whose WAL sync fails returns the sync's error from that
// Commit, and from every later Commit and Checkpoint: it neither hangs
// nor takes a later batch. Reads and Close keep working.
func TestIndexDurableFailedSyncRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	var files [4]*blockFile
	for i, name := range []string{pagestore.DataFileName, pagestore.WALFileName, "records-0.db", "records-1.db"} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = &blockFile{File: f}
	}
	openDurable = func(_ string, codec pagestore.Codec, opts pagestore.DurableOptions) (*pagestore.DurableStore, error) {
		return pagestore.OpenDurableOn(files[0], files[1], [2]pagestore.BlockFile{files[2], files[3]}, codec, opts)
	}
	defer func() { openDurable = pagestore.OpenDurable }()
	ix, err := NewIndex(IndexConfig{Dim: 2, NumDisks: 4, Seed: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pts := dataset.Uniform(300, 2, 5)
	if err := ix.InsertAll(pts, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); err != nil {
		t.Fatal(err)
	}
	errSync := errors.New("fsync: input/output error")
	files[1].syncErr = errSync
	if err := ix.Insert(Point{0.5, 0.5}, ObjectID(len(pts))); err != nil {
		t.Fatal(err)
	}
	if err := ix.Commit(); !errors.Is(err, errSync) {
		t.Fatalf("Commit whose WAL sync fails: %v, want %v", err, errSync)
	}
	files[1].syncErr = nil
	if err := ix.Commit(); !errors.Is(err, errSync) {
		t.Errorf("Commit after a failed sync: %v, want %v", err, errSync)
	}
	if err := ix.Checkpoint(); !errors.Is(err, errSync) {
		t.Errorf("Checkpoint after a failed sync: %v, want %v", err, errSync)
	}
	if got, _, err := ix.KNN(Point{0.5, 0.5}, 3, "crss"); err != nil || len(got) != 3 {
		t.Errorf("KNN after a failed sync: %d neighbours, %v", len(got), err)
	}
	if err := ix.Close(); err != nil {
		t.Errorf("Close after a failed sync: %v", err)
	}
}

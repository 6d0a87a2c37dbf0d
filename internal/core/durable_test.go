package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
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

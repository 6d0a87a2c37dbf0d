package parallel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/decluster"
	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// A durable tree keeps its placement state in its pagestore.DurableStore
// and nowhere else. Each page's record is its placement and the area its
// MBR had when it was placed. Each commit's state record is the array
// history no live page holds:
//
//	uint32 disks | uint32 cylinders | int64 seed | uint8 n | n bytes policy name
//	uint64 pages created | uint8 has-space flag
//	dim float64 space Lo | dim float64 space Hi | disks float64 area per disk
//
// The space and the areas accumulate over every page ever placed, freed
// ones included, so they are kept bit for bit, never recomputed. Open
// restores all of it, and a reopened tree goes on exactly as one that
// was never closed.

// PageRecord implements pagestore.PageRecorder: disk and cylinder
// (uint32 each) and the float64 area of the page's placement.
func (t *Tree) PageRecord(id rtree.PageID) pagestore.PageRecord {
	var rec pagestore.PageRecord
	p := t.placements[id]
	binary.LittleEndian.PutUint32(rec[0:], uint32(p.Disk))
	binary.LittleEndian.PutUint32(rec[4:], uint32(p.Cylinder))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(p.area))
	return rec
}

// Commit makes the tree's staged mutations durable in ds, the store the
// tree is built over, with every dirty page's record and the array's
// state.
func (t *Tree) Commit(ds *pagestore.DurableStore) error {
	b := t.stateRec[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(t.cfg.NumDisks))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.cfg.Cylinders))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.cfg.Seed))
	name := t.policy.Name()
	b = append(b, byte(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint64(b, t.created)
	st := t.state
	var hasSpace byte
	if st.HasSpace {
		hasSpace = 1
	}
	b = append(b, hasSpace)
	for _, side := range [2]geom.Point{st.Space.Lo, st.Space.Hi} {
		for a := 0; a < t.cfg.Dim; a++ {
			var v float64
			if st.HasSpace {
				v = side[a]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, area := range st.AreaPerDisk {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(area))
	}
	t.stateRec = b
	return ds.Commit(t.Root(), t.Len(), b, t)
}

// Open restores the tree a DurableStore holds: its pages, every page's
// placement and the array's state, as the last commit left them. cfg
// must describe the array the tree was committed on; a directory
// written with another NumDisks, Cylinders, Policy or Seed is refused.
// cfg.Policy must be a fresh instance: Open advances a policy's stream
// or cursor to where the committed tree left it.
func Open(cfg Config, ds *pagestore.DurableStore) (*Tree, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pt := newShell(cfg)
	if err := pt.restoreState(ds.State()); err != nil {
		return nil, err
	}
	meta := ds.Meta()
	base, err := rtree.Restore(cfg.rtreeConfig(), ds, meta.Root, meta.Size)
	if err != nil {
		return nil, err
	}
	pt.Tree = base
	base.Walk(func(n *rtree.Node, _ int) bool {
		rec, ok := ds.Record(n.ID)
		if !ok {
			err = fmt.Errorf("parallel: page %d has no placement record", n.ID)
			return false
		}
		p := placed{Placement{
			Disk:     int(binary.LittleEndian.Uint32(rec[0:])),
			Cylinder: int(binary.LittleEndian.Uint32(rec[4:])),
		}, math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))}
		if p.Disk >= cfg.NumDisks {
			err = fmt.Errorf("parallel: page %d on disk %d of %d", n.ID, p.Disk, cfg.NumDisks)
			return false
		}
		pt.placements[n.ID] = p
		pt.state.PagesPerDisk[p.Disk]++
		return true
	})
	if err != nil {
		return nil, err
	}
	// Resume the streams where the committed tree left them: Intn may
	// take more than one value from its source, so each draw is redone
	// with its own bound.
	for range pt.created {
		pt.rnd.Intn(cfg.Cylinders)
	}
	switch cfg.Policy.(type) {
	case *decluster.RoundRobin, *decluster.Random:
		for range pt.created {
			cfg.Policy.Assign(geom.Rect{}, nil, pt.state)
		}
	}
	base.SetListener(pt) // re-reports the root; NodeCreated skips placed pages
	if err := pt.CheckPlacements(); err != nil {
		return nil, err
	}
	return pt, nil
}

// restoreState checks a state record against the tree's configuration
// and restores the page count and the array history it holds.
func (t *Tree) restoreState(b []byte) error {
	cfg := t.cfg
	if len(b) < 17 || len(b) < 17+int(b[16]) {
		return errors.New("parallel: the directory holds no placement state")
	}
	name := string(b[17 : 17+int(b[16])])
	for _, f := range []struct {
		name      string
		dir, open any
	}{
		{"NumDisks", int(binary.LittleEndian.Uint32(b[0:])), cfg.NumDisks},
		{"Cylinders", int(binary.LittleEndian.Uint32(b[4:])), cfg.Cylinders},
		{"Seed", int64(binary.LittleEndian.Uint64(b[8:])), cfg.Seed},
		{"Policy", name, t.policy.Name()},
	} {
		if f.dir != f.open {
			return fmt.Errorf("parallel: directory was written with %s %v, opened with %v", f.name, f.dir, f.open)
		}
	}
	b = b[17+len(name):]
	if want := 9 + 8*(2*cfg.Dim+cfg.NumDisks); len(b) != want {
		return fmt.Errorf("parallel: placement state holds %d bytes after the policy name, want %d", len(b), want)
	}
	t.created = binary.LittleEndian.Uint64(b)
	st := t.state
	st.HasSpace = b[8] == 1
	b = b[9:]
	float := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	space := geom.Rect{Lo: make(geom.Point, cfg.Dim), Hi: make(geom.Point, cfg.Dim)}
	for _, side := range [2]geom.Point{space.Lo, space.Hi} {
		for a := range side {
			side[a] = float()
		}
	}
	if st.HasSpace {
		st.Space = space
	}
	for d := range st.AreaPerDisk {
		st.AreaPerDisk[d] = float()
	}
	return nil
}

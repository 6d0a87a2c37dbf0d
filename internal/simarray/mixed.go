package simarray

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// MixedWorkload interleaves a Poisson stream of insertions with the
// query stream — the paper's target setting is dynamic ("insertions,
// deletions and updates can be intermixed with read-only operations",
// §1, which is why it rules out full reorganization-based declustering).
//
// An insertion is charged its real I/O: the pages its ChooseSubtree
// descent read and the pages it dirtied (leaf, split siblings, parents)
// are read from / written to their disks through the same queues the
// concurrent queries use. Structural changes apply atomically at the
// operation's completion from the perspective of later queries; new
// pages receive placements from the tree's declustering policy exactly
// as during the initial build.
type MixedWorkload struct {
	Queries Workload
	// Inserts are the points added during the run; ObjectIDs are
	// InsertBase + index.
	Inserts    []geom.Point
	InsertBase rtree.ObjectID
	// InsertRate is the Poisson λ for insert arrivals (required when
	// Inserts is non-empty).
	InsertRate float64
}

// InsertOutcome is the timing record of one simulated insertion.
type InsertOutcome struct {
	Index      int
	Arrival    float64
	Completion float64
	Response   float64
	PagesRead  int
	PagesWrite int
}

// MixedResult extends RunResult with the insert stream's outcomes.
type MixedResult struct {
	RunResult
	Inserts            []InsertOutcome
	MeanInsertResponse float64
}

// runInsert drives one insertion: the structural change happens at
// arrival (so the page set is known), then its reads and writes pay
// their way through the disk and bus queues.
func (s *System) runInsert(p geom.Point, id rtree.ObjectID, out *InsertOutcome) {
	out.Arrival = s.sim.Now()
	trace := s.tree.Tree.TraceOp(func() {
		if err := s.tree.InsertPoint(p, id); err != nil {
			panic(fmt.Sprintf("simarray: mixed insert: %v", err))
		}
	})
	out.PagesRead = len(trace.Reads)
	out.PagesWrite = len(trace.Writes)

	// Phase 1: read the descent path (parallel across disks), then
	// phase 2: write back the dirtied pages.
	pending := 0
	var startWrites func()
	finish := func() {
		out.Completion = s.sim.Now()
		out.Response = out.Completion - out.Arrival
	}
	issue := func(ids []rtree.PageID, next func()) {
		if len(ids) == 0 {
			next()
			return
		}
		pending = len(ids)
		for _, pageID := range ids {
			pl, ok := s.tree.Placement(pageID)
			if !ok {
				// Freed during a cascading structural change (possible
				// for writes of pages later dissolved): charge it to
				// disk 0 cylinder 0 as metadata traffic.
				pl.Disk, pl.Cylinder = 0, 0
			}
			// Drive faults gate the query read path only; insert traffic
			// falls back to mirror 0 when the policy finds no live drive.
			m, ok := s.pickMirror(pl.Disk, pl.Cylinder)
			if !ok {
				m = 0
			}
			drv := s.drive[pl.Disk][m]
			svc := drv.ServiceTime(pl.Cylinder, s.rot[pl.Disk])
			s.disks[pl.Disk][m].Submit(svc, func(_, _ float64) {
				s.bus.Submit(s.busTime, func(_, _ float64) {
					pending--
					if pending == 0 {
						next()
					}
				})
			})
		}
	}
	startWrites = func() {
		// RAID-1 note: a write must hit every mirror; issue one write
		// job per mirror of each dirtied page.
		if s.cfg.Mirrors == 1 {
			issue(trace.Writes, finish)
			return
		}
		pending = len(trace.Writes) * s.cfg.Mirrors
		if pending == 0 {
			finish()
			return
		}
		for _, pageID := range trace.Writes {
			pl, ok := s.tree.Placement(pageID)
			if !ok {
				pl.Disk, pl.Cylinder = 0, 0
			}
			for m := 0; m < s.cfg.Mirrors; m++ {
				drv := s.drive[pl.Disk][m]
				svc := drv.ServiceTime(pl.Cylinder, s.rot[pl.Disk])
				s.disks[pl.Disk][m].Submit(svc, func(_, _ float64) {
					s.bus.Submit(s.busTime, func(_, _ float64) {
						pending--
						if pending == 0 {
							finish()
						}
					})
				})
			}
		}
	}
	issue(trace.Reads, startWrites)
}

// RunMixed executes queries and insertions concurrently and reports
// both streams' response times. Deletions are not interleaved: a
// dissolved page could be freed while a concurrent query still holds a
// reference to it, which a real system prevents with latching that this
// simulator does not model.
func (s *System) RunMixed(w MixedWorkload) (MixedResult, error) {
	if len(w.Inserts) > 0 && w.InsertRate <= 0 {
		return MixedResult{}, errors.New("simarray: mixed workload needs a positive InsertRate")
	}
	outcomes := make([]InsertOutcome, len(w.Inserts))
	arr := rand.New(rand.NewSource(s.cfg.Seed + 777))
	t := 0.0
	for i := range w.Inserts {
		i := i
		outcomes[i] = InsertOutcome{Index: i}
		s.sim.At(t, func() {
			s.runInsert(w.Inserts[i], w.InsertBase+rtree.ObjectID(i), &outcomes[i])
		})
		t += arr.ExpFloat64() / w.InsertRate
	}

	base, err := s.Run(w.Queries)
	if err != nil {
		return MixedResult{}, err
	}
	res := MixedResult{RunResult: base, Inserts: outcomes}
	for i := range outcomes {
		if outcomes[i].Completion == 0 && outcomes[i].PagesRead == 0 {
			return res, fmt.Errorf("simarray: insert %d never completed", i)
		}
		res.MeanInsertResponse += outcomes[i].Response
	}
	if len(outcomes) > 0 {
		res.MeanInsertResponse /= float64(len(outcomes))
	}
	return res, nil
}

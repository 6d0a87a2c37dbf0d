// Package decluster implements the page-to-disk assignment heuristics
// for a parallel (multiplexed) R*-tree on a RAID-0 array, as surveyed in
// Papadopoulos & Manolopoulos (SIGMOD 1998, Section 2.2): upon a node
// split, the newly created page must be placed on one of the disks.
//
// The heuristics implemented are the ones the paper compares:
//
//   - ProximityIndex (PI) — the Kamel–Faloutsos (SIGMOD 1992) rule the
//     paper adopts: assign the new node to the disk whose resident
//     sibling pages are least proximal to the new node's MBR, so that
//     pages likely to be needed by the same query live on different
//     disks.
//   - RoundRobin, Random — the classic cheap baselines.
//   - DataBalance — the disk currently holding the fewest pages.
//   - AreaBalance — the disk currently covering the least total MBR area.
//   - MinOverlap — a geometric cousin of PI using raw MBR overlap.
//
// All policies are deterministic given their inputs (Random takes a
// seeded generator), so experiment runs are reproducible.
package decluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Sibling describes an already-placed page that shares the new page's
// parent node.
type Sibling struct {
	Page rtree.PageID
	Rect geom.Rect
	Disk int
}

// ArrayState carries the running per-disk statistics policies may use.
type ArrayState struct {
	NumDisks     int
	PagesPerDisk []int     // live pages on each disk
	AreaPerDisk  []float64 // total MBR area resident on each disk
	Space        geom.Rect // current data-space bounds, for normalization
	HasSpace     bool
}

// NewArrayState initializes state for an array of n disks.
func NewArrayState(n int) *ArrayState {
	return &ArrayState{
		NumDisks:     n,
		PagesPerDisk: make([]int, n),
		AreaPerDisk:  make([]float64, n),
	}
}

// Policy chooses a disk for a newly created page.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Assign returns the target disk in [0, state.NumDisks) for a new
	// page with MBR r whose sibling pages are given with their disks.
	// The siblings and their rectangles are the caller's scratch: valid
	// during the call only, and read-only.
	Assign(r geom.Rect, siblings []Sibling, state *ArrayState) int
}

// segmentProximity returns the proximity of two intervals [a1,b1] and
// [a2,b2], normalized by the data-space extent on that axis. Overlapping
// intervals have proximity in (1, 2]; disjoint intervals decay linearly
// from 1 to 0 as the gap grows to the full axis extent. The formulation
// follows the intent of the Kamel–Faloutsos proximity index — two pages
// likely to be touched by one range query score high — with a simpler
// closed form (documented substitution; the induced preference order is
// the same: overlap > adjacency > distance).
func segmentProximity(a1, b1, a2, b2, extent float64) float64 {
	if extent <= 0 {
		extent = 1
	}
	lo := math.Max(a1, a2)
	hi := math.Min(b1, b2)
	if hi >= lo { // overlapping or touching
		return 1 + (hi-lo)/extent
	}
	gap := (lo - hi) / extent
	if gap >= 1 {
		return 0
	}
	return 1 - gap
}

// Proximity returns the proximity index of two rectangles within the
// given data space: the product of per-axis segment proximities. A pair
// of overlapping rectangles scores highest; rectangles far apart on any
// axis score near zero (a range query must hit both in every axis to
// fetch both pages).
func Proximity(a, b geom.Rect, space geom.Rect, hasSpace bool) float64 {
	p := 1.0
	for i := range a.Lo {
		extent := 1.0
		if hasSpace {
			extent = space.Hi[i] - space.Lo[i]
		}
		p *= segmentProximity(a.Lo[i], a.Hi[i], b.Lo[i], b.Hi[i], extent)
	}
	return p
}

// ProximityIndex is the paper's declustering method of choice.
type ProximityIndex struct{}

// Name implements Policy.
func (ProximityIndex) Name() string { return "proximity" }

// Assign implements Policy: pick the disk minimizing the summed
// proximity between the new MBR and the sibling MBRs resident on that
// disk. Ties (including disks with no siblings) break toward the disk
// with fewer pages, then the lower index — keeping the assignment
// deterministic and roughly balanced.
func (ProximityIndex) Assign(r geom.Rect, siblings []Sibling, state *ArrayState) int {
	prox := make([]float64, state.NumDisks)
	for _, s := range siblings {
		if s.Disk >= 0 && s.Disk < state.NumDisks {
			prox[s.Disk] += Proximity(r, s.Rect, state.Space, state.HasSpace)
		}
	}
	best := 0
	for d := 1; d < state.NumDisks; d++ {
		switch {
		case prox[d] < prox[best]:
			best = d
		//lint:allow floatcmp exact proximity tie falls through to the load tie-break
		case prox[d] == prox[best] && state.PagesPerDisk[d] < state.PagesPerDisk[best]:
			best = d
		}
	}
	return best
}

// RoundRobin cycles through the disks.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "roundrobin" }

// Assign implements Policy.
func (p *RoundRobin) Assign(_ geom.Rect, _ []Sibling, state *ArrayState) int {
	d := p.next % state.NumDisks
	p.next = (p.next + 1) % state.NumDisks
	return d
}

// Random assigns uniformly at random from a seeded source.
type Random struct{ Rnd *rand.Rand }

// NewRandom returns a Random policy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{Rnd: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Assign implements Policy.
func (p *Random) Assign(_ geom.Rect, _ []Sibling, state *ArrayState) int {
	return p.Rnd.Intn(state.NumDisks)
}

// DataBalance picks the disk with the fewest resident pages.
type DataBalance struct{}

// Name implements Policy.
func (DataBalance) Name() string { return "databalance" }

// Assign implements Policy.
func (DataBalance) Assign(_ geom.Rect, _ []Sibling, state *ArrayState) int {
	best := 0
	for d := 1; d < state.NumDisks; d++ {
		if state.PagesPerDisk[d] < state.PagesPerDisk[best] {
			best = d
		}
	}
	return best
}

// AreaBalance picks the disk covering the least total MBR area.
type AreaBalance struct{}

// Name implements Policy.
func (AreaBalance) Name() string { return "areabalance" }

// Assign implements Policy.
func (AreaBalance) Assign(_ geom.Rect, _ []Sibling, state *ArrayState) int {
	best := 0
	for d := 1; d < state.NumDisks; d++ {
		if state.AreaPerDisk[d] < state.AreaPerDisk[best] {
			best = d
		}
	}
	return best
}

// MinOverlap picks the disk whose resident siblings share the least raw
// MBR overlap area with the new node.
type MinOverlap struct{}

// Name implements Policy.
func (MinOverlap) Name() string { return "minoverlap" }

// Assign implements Policy.
func (MinOverlap) Assign(r geom.Rect, siblings []Sibling, state *ArrayState) int {
	ov := make([]float64, state.NumDisks)
	for _, s := range siblings {
		if s.Disk >= 0 && s.Disk < state.NumDisks {
			ov[s.Disk] += r.OverlapArea(s.Rect)
		}
	}
	best := 0
	for d := 1; d < state.NumDisks; d++ {
		switch {
		case ov[d] < ov[best]:
			best = d
		//lint:allow floatcmp exact overlap tie falls through to the load tie-break
		case ov[d] == ov[best] && state.PagesPerDisk[d] < state.PagesPerDisk[best]:
			best = d
		}
	}
	return best
}

// ByName returns a fresh policy instance for a name used on command
// lines and in experiment configs.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "proximity", "pi":
		return ProximityIndex{}, nil
	case "roundrobin", "rr":
		return &RoundRobin{}, nil
	case "random":
		return NewRandom(seed), nil
	case "databalance":
		return DataBalance{}, nil
	case "areabalance":
		return AreaBalance{}, nil
	case "minoverlap":
		return MinOverlap{}, nil
	default:
		return nil, fmt.Errorf("decluster: unknown policy %q", name)
	}
}

// All returns one instance of every policy, for ablation sweeps.
func All(seed int64) []Policy {
	return []Policy{
		ProximityIndex{},
		&RoundRobin{},
		NewRandom(seed),
		DataBalance{},
		AreaBalance{},
		MinOverlap{},
	}
}

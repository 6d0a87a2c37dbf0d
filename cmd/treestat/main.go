// Command treestat builds a parallel R*-tree over a data set and prints
// its structure, fill factors, page-to-disk distribution and invariant /
// page-shadow audit results — the tool to inspect what the declustering
// policies actually do.
//
// Usage:
//
//	treestat -set california -disks 10
//	treestat -set gaussian -n 60000 -dim 10 -disks 10 -policy roundrobin
//	treestat -set longbeach -disks 8 -dir lb.tree
//	treestat -set longbeach -disks 8 -dir lb.tree   # reopens it
//
// Leaves hold points (a point and its object id per entry), directory
// pages rectangles (spheres too with -sr, whose leaves hold the same),
// and the header line prints both capacities.
//
// With -dir the tree lives in a durable directory: an empty directory
// gets the tree built, committed and checkpointed into it; a directory
// that already holds one is reopened instead, every page on the disk
// and cylinder it was placed on. A reopen takes the flags the directory
// was built with (-dim, -page, -sr, -disks, -policy, -seed) and refuses
// any other.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/decluster"
	"repro/internal/disk"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/rtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("treestat: ")

	var (
		set      = flag.String("set", "gaussian", "data set name")
		n        = flag.Int("n", 10000, "population")
		dim      = flag.Int("dim", 2, "dimensionality")
		disks    = flag.Int("disks", 10, "number of disks")
		policy   = flag.String("policy", "proximity", "declustering policy")
		pageSize = flag.Int("page", 4096, "page size in bytes")
		seed     = flag.Int64("seed", 1, "seed")
		spheres  = flag.Bool("sr", false, "build the SR-tree variant (bounding spheres)")
		packed   = flag.Bool("packed", false, "bulk-load with STR packing instead of inserting")
		dir      = flag.String("dir", "", "durable directory: build the tree into it when it holds none, else reopen the tree it holds")
	)
	flag.Parse()

	pts, err := dataset.ByName(*set, *n, *dim, *seed)
	if err != nil {
		log.Fatal(err)
	}
	treeDim := pts[0].Dim()
	pol, err := decluster.ByName(*policy, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg := parallel.Config{
		Dim:        treeDim,
		NumDisks:   *disks,
		Cylinders:  disk.HPC2200A().Cylinders,
		PageSize:   *pageSize,
		Policy:     pol,
		Seed:       *seed,
		UseSpheres: *spheres,
	}
	var ds *pagestore.DurableStore
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			log.Fatal(err)
		}
		if ds, err = pagestore.OpenDurable(*dir, cfg.Codec(), pagestore.DurableOptions{}); err != nil {
			log.Fatal(err)
		}
		cfg.Store = ds
	}
	var tree *parallel.Tree
	if ds != nil && ds.Meta().Root != 0 {
		cfg.Store = nil
		if tree, err = parallel.Open(cfg, ds); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dir %s: reopened, %d points\n", *dir, tree.Len())
	} else {
		if tree, err = parallel.New(cfg); err != nil {
			log.Fatal(err)
		}
		if *packed {
			err = tree.BuildPointsPacked(pts)
		} else {
			err = tree.BuildPoints(pts)
		}
		if err != nil {
			log.Fatal(err)
		}
		if ds != nil {
			if err := errors.Join(tree.Commit(ds), ds.Checkpoint()); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("dir %s: built, committed and checkpointed\n", *dir)
		}
	}

	st := tree.ComputeStats()
	fmt.Printf("set %s: %d points, %d-d, page %dB (capacity: leaf %d entries, directory %d)\n",
		*set, st.Objects, treeDim, *pageSize, tree.Capacity(0), tree.Capacity(1))
	fmt.Printf("height %d, %d nodes (%d leaves, %d internal)\n", st.Height, st.Nodes, st.Leaves, st.Internal)
	fmt.Printf("fill: leaves %.1f%%, directory %.1f%%\n", st.AvgLeafFill*100, st.AvgDirFill*100)

	// Per-level node counts.
	perLevel := map[int]int{}
	tree.Walk(func(nd *rtree.Node, _ int) bool {
		perLevel[nd.Level]++
		return true
	})
	for l := st.Height - 1; l >= 0; l-- {
		fmt.Printf("  level %d: %d nodes\n", l, perLevel[l])
	}

	d := tree.Distribution()
	fmt.Printf("\npolicy %s: pages per disk (imbalance %.3f):\n", *policy, d.Imbalance)
	maxPages := 0
	for _, c := range d.Pages {
		if c > maxPages {
			maxPages = c
		}
	}
	for i, c := range d.Pages {
		bar := ""
		if maxPages > 0 {
			bar = strings.Repeat("#", c*40/maxPages)
		}
		fmt.Printf("  disk %2d: %5d %s\n", i, c, bar)
	}

	if err := tree.Tree.CheckInvariants(); err != nil {
		log.Fatalf("INVARIANT VIOLATION: %v", err)
	}
	if err := tree.CheckPlacements(); err != nil {
		log.Fatalf("PLACEMENT VIOLATION: %v", err)
	}
	fmt.Println("\ninvariants: OK (MBRs, counts, balance, fill, placements)")

	// Page-codec audit: every node must round-trip through a page image.
	codec := tree.Config().Codec()
	pages := 0
	var bad error
	tree.Walk(func(nd *rtree.Node, _ int) bool {
		buf, err := codec.Encode(nd)
		if err != nil {
			bad = err
			return false
		}
		if _, err := codec.Decode(buf); err != nil {
			bad = err
			return false
		}
		pages++
		return true
	})
	if bad != nil {
		log.Fatalf("PAGE CODEC VIOLATION: %v", bad)
	}
	fmt.Printf("page codec: OK (%d nodes fit %dB pages)\n", pages, *pageSize)
	if ds != nil {
		if err := ds.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// GIS: nearest-facility and range queries over geographic point data —
// the paper's evaluation domain (Sequoia 2000 California places, TIGER
// road intersections). The example indexes a synthetic road-intersection
// map, then answers the two similarity-query types of the paper:
//
//   - range query (Definition 1): all intersections within a radius,
//   - k-NN query (Definition 2): the k closest intersections,
//
// and shows how the k-NN-as-range-series workaround wastes I/O compared
// to CRSS, motivating the paper's approach.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)

	// A Long-Beach-like street map: locally regular intersections.
	pts := dataset.LongBeachLike(30000, 11)
	ix, err := core.NewIndex(core.IndexConfig{Dim: 2, NumDisks: 8, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.InsertAll(pts, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("street map: %d intersections, %d pages on 8 disks\n\n", ix.Len(), ix.Tree().Store().Len())

	depot := core.Point{0.48, 0.52} // a dispatch center downtown

	// Range query: every intersection within 0.02 of the depot
	// (e.g. a service radius).
	within, nodes, err := ix.RangeSearch(depot, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query r=0.02: %d intersections, %d node accesses\n", len(within), nodes)

	// k-NN: the 5 closest intersections (e.g. route a crew).
	res, stats, err := ix.KNN(depot, 5, "crss")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n5 nearest intersections (CRSS):")
	for i, r := range res {
		fmt.Printf("  #%d intersection %-6d at (%.4f, %.4f), %.4f away\n",
			i+1, r.Object, r.Point[0], r.Point[1], math.Sqrt(r.DistSq))
	}
	fmt.Printf("CRSS I/O: %d node accesses in %d rounds\n\n", stats.NodesVisited, stats.Batches)

	// The naive alternative the paper warns about (§2.3): turning k-NN
	// into a series of range queries with guessed radii.
	_, eps, err := ix.KNN(depot, 5, "eps-series")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-NN as growing-ε range series: %d node accesses (%.1f× CRSS)\n",
		eps.NodesVisited, float64(eps.NodesVisited)/float64(stats.NodesVisited))

	// Where the answers actually came from: per-disk access profile —
	// declustering spreads a single query's I/O across the array.
	fmt.Println("\nCRSS per-disk accesses for this query:")
	for d, c := range stats.PerDisk {
		fmt.Printf("  disk %d: %d\n", d, c)
	}
}

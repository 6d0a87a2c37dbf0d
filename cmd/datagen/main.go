// Command datagen generates the evaluation data sets (uniform, gaussian,
// clustered, and the California/Long Beach stand-ins) and writes them in
// the library's binary format, or prints summary statistics.
//
// Usage:
//
//	datagen -set california -out cp.bin
//	datagen -set gaussian -n 60000 -dim 10 -seed 7 -out sg10.bin
//	datagen -set longbeach -stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	var (
		set   = flag.String("set", "uniform", "data set: uniform|gaussian|clustered|california|longbeach")
		n     = flag.Int("n", 0, "population (0 = paper default for california/longbeach, else 10000)")
		dim   = flag.Int("dim", 2, "dimensionality (ignored by california/longbeach)")
		seed  = flag.Int64("seed", 1, "generator seed")
		out   = flag.String("out", "", "output file (binary format); empty = no file")
		stats = flag.Bool("stats", false, "print summary statistics")
	)
	flag.Parse()
	if *n < 0 {
		log.Fatalf("-n %d: a population cannot be negative", *n)
	}
	if *dim < 1 {
		log.Fatalf("-dim %d: a point needs at least one dimension", *dim)
	}

	count := *n
	if count == 0 && *set != "california" && *set != "cp" && *set != "longbeach" && *set != "lb" {
		count = 10000
	}
	pts, err := dataset.ByName(*set, count, *dim, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d points, %d-d, set %s, seed %d\n", len(pts), pts[0].Dim(), *set, *seed)

	if *stats {
		printStats(pts)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dataset.Save(f, pts); err != nil {
			log.Fatal(err)
		}
		info, _ := f.Stat()
		fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
	}
}

func printStats(pts []geom.Point) {
	dim := pts[0].Dim()
	lo := pts[0].Clone()
	hi := pts[0].Clone()
	mean := make([]float64, dim)
	for _, p := range pts {
		for d := 0; d < dim; d++ {
			if p[d] < lo[d] {
				lo[d] = p[d]
			}
			if p[d] > hi[d] {
				hi[d] = p[d]
			}
			mean[d] += p[d]
		}
	}
	for d := 0; d < dim; d++ {
		mean[d] /= float64(len(pts))
		fmt.Printf("axis %d: min %.4f max %.4f mean %.4f\n", d, lo[d], hi[d], mean[d])
	}
}

// Quickstart: build a parallel similarity index over random feature
// vectors and run a k-nearest-neighbor query.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"parsearch"
)

func main() {
	const (
		dim   = 8
		disks = 8
		n     = 20000
	)

	// Open an index: 8-dimensional vectors declustered over 8 simulated
	// disks with the paper's near-optimal strategy (the default).
	ix, err := parsearch.Open(parsearch.Options{
		Dim:      dim,
		Disks:    disks,
		Baseline: true, // keep a sequential X-tree to report speed-up
	})
	if err != nil {
		log.Fatal(err)
	}

	// Index some feature vectors. Vector i receives ID i.
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		points[i] = p
	}
	if err := ix.Build(points); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors on %d disks (strategy %q)\n", ix.Len(), ix.Disks(), ix.Strategy())
	fmt.Printf("points per disk: %v\n\n", ix.DiskLoads())

	// Query: the 5 nearest neighbors of a random point.
	query := make([]float64, dim)
	for j := range query {
		query[j] = rng.Float64()
	}
	neighbors, stats, err := ix.KNN(query, 5)
	if err != nil {
		log.Fatal(err)
	}
	for rank, nb := range neighbors {
		fmt.Printf("#%d: id=%5d dist=%.4f\n", rank+1, nb.ID, nb.Dist)
	}
	fmt.Printf("\npages read per disk: %v\n", stats.PagesPerDisk)
	fmt.Printf("bottleneck disk read %d pages (total %d) -> speed-up %.1fx over a sequential X-tree\n",
		stats.MaxPages, stats.TotalPages, stats.BaselineSpeedup)

	// Dynamic inserts work too.
	id, err := ix.Insert(query)
	if err != nil {
		log.Fatal(err)
	}
	nearest, _, err := ix.KNN(query, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter inserting the query itself as id %d, its NN is id %d at distance %.4f\n",
		id, nearest[0].ID, nearest[0].Dist)
}

package parsearch_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"parsearch"
)

// examplePoints builds a small deterministic data set.
func examplePoints(n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func Example() {
	ix, err := parsearch.Open(parsearch.Options{Dim: 4, Disks: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build(examplePoints(1000, 4)); err != nil {
		log.Fatal(err)
	}
	neighbors, stats, err := ix.KNN([]float64{0.5, 0.5, 0.5, 0.5}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("neighbors:", len(neighbors))
	fmt.Println("disks involved:", len(stats.PagesPerDisk))
	// Output:
	// neighbors: 3
	// disks involved: 4
}

func ExampleIndex_Browse() {
	ix, err := parsearch.Open(parsearch.Options{Dim: 2, Disks: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}}); err != nil {
		log.Fatal(err)
	}
	b, err := ix.Browse([]float64{0.45, 0.45})
	if err != nil {
		log.Fatal(err)
	}
	for nb, ok := b.Next(); ok; nb, ok = b.Next() {
		fmt.Printf("id %d at %.2f\n", nb.ID, nb.Dist)
	}
	if err := b.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// id 1 at 0.07
	// id 0 at 0.49
	// id 2 at 0.64
}

func ExampleIndex_PartialMatch() {
	ix, err := parsearch.Open(parsearch.Options{Dim: 3, Disks: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build([][]float64{
		{0.50, 0.10, 0.90},
		{0.50, 0.80, 0.20},
		{0.10, 0.80, 0.50},
	}); err != nil {
		log.Fatal(err)
	}
	// First coordinate must be 0.5 (+/- 0.01); the rest are wildcards.
	matches, _, err := ix.PartialMatch([]float64{0.5, parsearch.Wildcard, parsearch.Wildcard}, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Println("id", m.ID)
	}
	// Output:
	// id 0
	// id 1
}

func ExampleIndex_Save() {
	ix, err := parsearch.Open(parsearch.Options{Dim: 2, Disks: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := ix.Build([][]float64{{0.2, 0.4}, {0.6, 0.8}}); err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		log.Fatal(err)
	}
	restored, err := parsearch.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("restored vectors:", restored.Len())
	// Output:
	// restored vectors: 2
}

func ExampleIndex_VerifyDeclustering() {
	// In 3 dimensions with 4 disks the paper's coloring is strictly
	// near-optimal; the Hilbert baseline is not (Lemma 1).
	near, _ := parsearch.Open(parsearch.Options{Dim: 3, Disks: 4})
	hil, _ := parsearch.Open(parsearch.Options{Dim: 3, Disks: 4, Kind: parsearch.Hilbert})

	v, _ := near.VerifyDeclustering(0)
	fmt.Println("near-optimal violations:", len(v))
	v, _ = hil.VerifyDeclustering(0)
	fmt.Println("hilbert violations:", len(v) > 0)
	// Output:
	// near-optimal violations: 0
	// hilbert violations: true
}

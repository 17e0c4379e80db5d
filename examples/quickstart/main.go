// Quickstart: build an NN-cell index over a small point set and answer
// nearest-neighbor queries with a single point query on the precomputed
// solution space.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

func main() {
	// A database of 1000 uniformly distributed 8-dimensional feature vectors.
	rng := rand.New(rand.NewSource(42))
	const n, d = 1000, 8
	points := make([]vec.Point, n)
	for i := range points {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		points[i] = p
	}

	// Build the index: every point's Voronoi cell is approximated by an MBR
	// (solved by linear programming) and entered into the cell directory.
	pg := pager.New(pager.Config{CachePages: 64})
	index, err := nncell.Build(points, vec.UnitCube(d), pg, nncell.Options{
		Algorithm: nncell.Sphere, // the paper's best choice for d <= 8
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d points, one cell approximation each\n", index.Len())

	// Nearest-neighbor search is now a point query plus candidate refinement.
	query := vec.Point{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	nb, err := index.NearestNeighbor(query)
	if err != nil {
		log.Fatal(err)
	}
	p, _ := index.Point(nb.ID)
	fmt.Printf("query  %v\nanswer point #%d = %v (distance² %.5f)\n", query, nb.ID, p, nb.Dist2)

	// The result is exact: no false dismissals by the paper's Lemma 2.
	stats := index.Stats()
	fmt.Printf("candidates inspected: %d, scan fallbacks: %d\n", stats.Candidates, stats.Fallbacks)
}

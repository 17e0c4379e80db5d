// Shapes reproduces the paper's real-data scenario: retrieval of similar
// contour shapes by Fourier descriptors, the exact kind of data the authors
// evaluated on ("Fourier points in high-dimensional space", §4). A closed
// 2-D contour r(t) is sampled, its low-order Fourier coefficients form the
// feature vector, and similar silhouettes are found by exact NN search on
// the NN-cell index. Deformed variants of a shape should retrieve their
// original family.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

const (
	dims        = 8   // Fourier descriptor length (the paper's d = 8)
	samples     = 256 // contour samples for the transform
	numShapes   = 1500
	numFamilies = 12
)

// family is a prototype silhouette: a radius function r(t) built from a few
// random harmonics.
type family struct {
	name  string
	amp   [5]float64
	phase [5]float64
}

func newFamily(rng *rand.Rand, id int) family {
	f := family{name: fmt.Sprintf("family-%02d", id)}
	for h := 0; h < 5; h++ {
		f.amp[h] = rng.Float64() / float64(h+1)
		f.phase[h] = 2 * math.Pi * rng.Float64()
	}
	return f
}

// contour evaluates the (deformed) radius function at angle t.
func (f family) contour(t float64, deform float64, rng *rand.Rand) float64 {
	r := 1.0
	for h := 0; h < 5; h++ {
		r += f.amp[h] * (1 + deform*(rng.Float64()-0.5)) * math.Cos(float64(h+1)*t+f.phase[h])
	}
	return r
}

// descriptor computes the first dims Fourier magnitude coefficients of the
// sampled contour — a rotation-invariant shape signature.
func descriptor(f family, deform float64, rng *rand.Rand) vec.Point {
	sampled := make([]float64, samples)
	for i := range sampled {
		t := 2 * math.Pi * float64(i) / samples
		sampled[i] = f.contour(t, deform, rng)
	}
	desc := make(vec.Point, dims)
	for k := 0; k < dims; k++ {
		re, im := 0.0, 0.0
		for i, v := range sampled {
			ang := 2 * math.Pi * float64(k+1) * float64(i) / samples
			re += v * math.Cos(ang)
			im -= v * math.Sin(ang)
		}
		mag := math.Hypot(re, im) / samples
		// Low-order coefficients carry most energy; compress into [0,1].
		desc[k] = math.Min(1, mag*2)
	}
	return desc
}

func main() {
	rng := rand.New(rand.NewSource(11))
	families := make([]family, numFamilies)
	for i := range families {
		families[i] = newFamily(rng, i)
	}

	// The shape database: deformed instances of the prototype families.
	owner := make([]int, numShapes)
	points := make([]vec.Point, numShapes)
	for i := range points {
		fam := rng.Intn(numFamilies)
		owner[i] = fam
		points[i] = descriptor(families[fam], 0.3, rng)
	}

	pg := pager.New(pager.Config{CachePages: 128})
	index, err := nncell.Build(points, vec.UnitCube(dims), pg, nncell.Options{
		Algorithm: nncell.Sphere,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shape database: %d contours from %d families, %d Fourier dims\n",
		numShapes, numFamilies, dims)
	fmt.Printf("index: %d cells, volume sum %.2f\n\n", index.Len(), index.ApproxVolumeSum())

	// Retrieval test: strongly deformed new instances must find their family.
	hits := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		fam := rng.Intn(numFamilies)
		q := descriptor(families[fam], 0.5, rng)
		nb, err := index.NearestNeighbor(q)
		if err != nil {
			log.Fatal(err)
		}
		if owner[nb.ID] == fam {
			hits++
		}
	}
	fmt.Printf("family retrieval: %d/%d deformed probes matched to their own family\n", hits, trials)

	// Show one ranked result list.
	fam := 3
	q := descriptor(families[fam], 0.5, rng)
	top, err := index.KNearest(q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprobe from %s, top 5 matches:\n", families[fam].name)
	for rank, nb := range top {
		fmt.Printf("  %d. shape #%-5d %s distance=%.5f\n", rank+1, nb.ID, families[owner[nb.ID]].name, nb.Dist2)
	}
}

// Imagesearch demonstrates the paper's motivating application: content-based
// retrieval in an image database. Each "image" is summarized by a color
// histogram (the feature transformation of [SH 94] the paper cites), and
// similar images are found by nearest-neighbor search among the histogram
// vectors — here answered exactly by the NN-cell index.
//
// The images are synthetic: every image mixes the palette of one of several
// scene classes (sunset, forest, ocean, ...) with noise, so the feature
// space is clustered the way real multimedia data is.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// scene classes with characteristic color distributions over 8 color bins
// (think: coarse hue histogram).
var classes = []struct {
	name    string
	palette [8]float64
}{
	{"sunset", [8]float64{0.35, 0.30, 0.15, 0.05, 0.03, 0.02, 0.05, 0.05}},
	{"forest", [8]float64{0.02, 0.05, 0.10, 0.45, 0.25, 0.05, 0.05, 0.03}},
	{"ocean", [8]float64{0.02, 0.03, 0.05, 0.10, 0.15, 0.40, 0.20, 0.05}},
	{"desert", [8]float64{0.20, 0.35, 0.25, 0.05, 0.05, 0.03, 0.02, 0.05}},
	{"night", [8]float64{0.05, 0.02, 0.03, 0.05, 0.10, 0.15, 0.25, 0.35}},
}

type image struct {
	id    int
	class string
	hist  vec.Point
}

// histogram synthesizes a color histogram near the class palette.
func histogram(rng *rand.Rand, class int) vec.Point {
	h := make(vec.Point, 8)
	total := 0.0
	for j := 0; j < 8; j++ {
		v := classes[class].palette[j] * (0.7 + 0.6*rng.Float64())
		h[j] = v
		total += v
	}
	// Normalize, then scale into [0,1] per bin (bins sum to 1, so each bin
	// is already in [0,1]).
	for j := range h {
		h[j] /= total
	}
	return h
}

func main() {
	rng := rand.New(rand.NewSource(7))
	const numImages = 2000

	// "Ingest" the image collection: extract features.
	images := make([]image, numImages)
	points := make([]vec.Point, numImages)
	for i := range images {
		c := rng.Intn(len(classes))
		images[i] = image{id: i, class: classes[c].name, hist: histogram(rng, c)}
		points[i] = images[i].hist
	}

	pg := pager.New(pager.Config{CachePages: 128})
	index, err := nncell.Build(points, vec.UnitCube(8), pg, nncell.Options{Algorithm: nncell.Sphere})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("image database: %d images, %d classes, %d cells indexed\n\n",
		numImages, len(classes), index.Len())

	// Query by example: a fresh photo of each scene type.
	correct := 0
	for c := range classes {
		queryImage := histogram(rng, c)
		nb, err := index.NearestNeighbor(queryImage)
		if err != nil {
			log.Fatal(err)
		}
		match := images[nb.ID]
		fmt.Printf("query: new %-7s photo -> best match: image #%d (%s), distance %.4f\n",
			classes[c].name, match.id, match.class, nb.Dist2)
		if match.class == classes[c].name {
			correct++
		}
	}
	fmt.Printf("\n%d/%d queries retrieved an image of the same scene class\n", correct, len(classes))

	// Top-5 retrieval for a gallery view uses k-NN.
	q := histogram(rng, 2) // an ocean shot
	top, err := index.KNearest(q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-5 results for an ocean query:")
	for rank, nb := range top {
		fmt.Printf("  %d. image #%-5d class=%-7s distance=%.4f\n", rank+1, nb.ID, images[nb.ID].class, nb.Dist2)
	}
}

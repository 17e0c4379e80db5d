package nncell

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// FuzzLoad drives the persistence loader with arbitrary bytes: Load must
// return an error or a fully-validated index — never panic, never allocate
// proportionally to forged header fields, and never hand back an index whose
// queries misbehave. Run with `go test -fuzz FuzzLoad` for exploration; the
// seed corpus (a valid image plus truncations, bit flips, and junk) runs in
// normal `go test`.
func FuzzLoad(f *testing.F) {
	pts := uniquePoints(f, dataset.NameUniform, 401, 25, 3)
	ix := mustBuild(f, pts, Options{Algorithm: Sphere})
	if err := ix.Delete(3); err != nil { // a tombstone slot in the image
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()

	f.Add(good)
	for _, cut := range []int{0, 4, 8, 9, 44, len(good) / 2, len(good) - 4, len(good) - 1} {
		if cut <= len(good) {
			f.Add(good[:cut])
		}
	}
	for _, pos := range []int{8, 12, 20, 40, 76, 84, len(good) / 2} {
		flipped := append([]byte(nil), good...)
		flipped[pos] ^= 0xFF
		f.Add(flipped)
	}
	// No live slot: tombstones only.
	drained := mustBuild(f, pts[:2], Options{Algorithm: Sphere})
	if err := drained.DeleteBatch([]int{0, 1}); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := drained.Save(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// Cell corners that are no float32 values: Load rounds them outward.
	forged, _ := float64CellStream(f)
	f.Add(forged)
	f.Add([]byte("NNCELLv2"))
	f.Add([]byte("NNCELLv2\x00\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xA5}, 200))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), newTestPager())
		if err != nil {
			return
		}
		// A successfully loaded index must be internally consistent and
		// answer queries without panicking.
		if loaded.Dim() <= 0 {
			t.Fatalf("loaded index with Dim=%d", loaded.Dim())
		}
		b := loaded.Bounds()
		q := make(vec.Point, loaded.Dim())
		for j := range q {
			q[j] = (b.Lo[j] + b.Hi[j]) / 2
		}
		nb, err := loaded.NearestNeighbor(q)
		if loaded.Len() == 0 {
			if err != ErrEmpty {
				t.Fatalf("query on loaded empty index: %v, want ErrEmpty", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("query on loaded index: %v", err)
		}
		if _, ok := loaded.Point(nb.ID); !ok {
			t.Fatalf("loaded index answered dead id %d", nb.ID)
		}
	})
}

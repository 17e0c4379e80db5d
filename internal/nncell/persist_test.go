package nncell

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	pts := uniquePoints(t, dataset.NameClustered, 81, 150, 5)
	orig := mustBuild(t, pts, Options{Algorithm: Sphere})
	// Exercise tombstones in the saved image.
	if err := orig.Delete(7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()

	loaded, err := Load(&buf, newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatalf("loaded index: %v", err)
	}
	if loaded.Len() != orig.Len() || loaded.Dim() != orig.Dim() {
		t.Fatalf("Len/Dim mismatch: %d/%d vs %d/%d", loaded.Len(), loaded.Dim(), orig.Len(), orig.Dim())
	}
	if loaded.Stats().LPSolves != 0 {
		t.Error("Load ran LPs")
	}
	// Every stored cell must round-trip exactly, and so must the stream.
	for id := range pts {
		oc, ook := orig.CellApprox(id)
		lc, lok := loaded.CellApprox(id)
		if ook != lok {
			t.Fatalf("cell %d presence mismatch", id)
		}
		if ook && !oc.Equal(lc) {
			t.Fatalf("cell %d differs", id)
		}
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), image) {
		t.Fatal("saving the loaded index wrote other bytes than the stream it was loaded from")
	}
	// And the loaded index answers exactly (including further dynamics).
	livePts := make([]vec.Point, 0, len(pts))
	for id := range pts {
		if p, ok := loaded.Point(id); ok {
			livePts = append(livePts, p)
		}
	}
	oracle := scan.New(livePts, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 40; trial++ {
		q := randQuery(rng, 5)
		_, wantD2 := oracle.Nearest(q)
		got, err := loaded.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, wantD2)
		}
		// The bulk-loaded trees hold the cells the original holds, so the two
		// indexes answer bit for bit alike.
		if want, err := orig.NearestNeighbor(q); err != nil || got != want {
			t.Fatalf("trial %d: loaded answers %v, original %v (err %v)", trial, got, want, err)
		}
	}
	id, err := loaded.Insert(vec.Point{0.123, 0.456, 0.789, 0.321, 0.654})
	if err != nil {
		t.Fatalf("insert into loaded index: %v", err)
	}
	for _, victim := range []int{id, 3} {
		if err := loaded.Delete(victim); err != nil {
			t.Fatalf("delete %d from loaded index: %v", victim, err)
		}
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatalf("loaded index after Insert/Delete: %v", err)
	}
}

// repack applies a byte-level patch to a valid saved image and recomputes the
// trailing CRC32, so the patched payload reaches Load's semantic validation
// instead of being rejected by the checksum.
func repack(good []byte, patch func(b []byte)) []byte {
	b := append([]byte(nil), good...)
	patch(b)
	crc := crc32.ChecksumIEEE(b[8 : len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 83, 20, 3)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("NOTMAGIC"), good[8:]...),
		"truncated":        good[:len(good)/2],
		"short magic":      good[:4],
		"missing crc":      good[:len(good)-4],
		"trailing garbage": append(append([]byte(nil), good...), 0xAB),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data), newTestPager()); err == nil {
			t.Errorf("%s: Load accepted corrupt input", name)
		}
	}
	// Any bit flip in the payload must be detected by the checksum: a loaded
	// index must never carry a silently-altered solution space.
	for _, pos := range []int{9, len(good) / 3, len(good) / 2, len(good) - 5} {
		flipped := append([]byte(nil), good...)
		flipped[pos] ^= 0x10
		if _, err := Load(bytes.NewReader(flipped), newTestPager()); err == nil {
			t.Errorf("bit flip at %d: Load accepted corrupt input", pos)
		}
	}
}

// Semantic validation behind a correct checksum: each patch below forges a
// structurally plausible stream that the pre-hardening loader either accepted
// (building a corrupt index), panicked on, or — for the forged point count —
// answered with an enormous up-front allocation. The hardened loader must
// return an error for every one of them.
//
// Layout of the fixture (d = 2, Correct): header = magic 8 + dim 4 + flags 4
// + alg 4 + decompose 4 + obliqueness 4 + sphereScale 8 + epsilon 8 = 44
// bytes; bounds 2·2·8 = 32; count (uint64) at offset 76; slots from offset
// 84, each alive slot = flag 1 + coords 16 + nfrags 4 + cell 32 = 53 bytes.
// The decompose, obliqueness, sphereScale, epsilon and nfrags slots are fixed
// (1, 0, 1, 1e-9, 1): a stream that decomposed its cells, or padded them by
// another epsilon, is refused.
func TestLoadRejectsForgedPayloads(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 84, 12, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	le := binary.LittleEndian
	const (
		offAlg         = 16
		offDecompose   = 20
		offObliqueness = 24
		offSphereScale = 28
		offEpsilon     = 36
		offCount       = 76
		offSlots       = 84
		slotSize       = 53
	)

	cases := map[string]func(b []byte){
		// Pre-hardening: make([]vec.Point, 1<<39) before reading a single
		// point — a multi-terabyte allocation from a 700-byte stream.
		"forged huge count": func(b []byte) { le.PutUint64(b[offCount:], 1<<39) },
		"count over limit":  func(b []byte) { le.PutUint64(b[offCount:], 1<<50) },
		"count times dim over limit": func(b []byte) {
			le.PutUint64(b[offCount:], (maxPersistCoords/2)+1)
		},
		"unknown algorithm": func(b []byte) { le.PutUint32(b[offAlg:], 99) },
		"NaN epsilon": func(b []byte) {
			le.PutUint64(b[offEpsilon:], math.Float64bits(math.NaN()))
		},
		"epsilon not the constant": func(b []byte) {
			le.PutUint64(b[offEpsilon:], math.Float64bits(1e-12))
		},
		"decompose 2":   func(b []byte) { le.PutUint32(b[offDecompose:], 2) },
		"obliqueness 1": func(b []byte) { le.PutUint32(b[offObliqueness:], 1) },
		"sphereScale 2": func(b []byte) { le.PutUint64(b[offSphereScale:], math.Float64bits(2)) },
		"NaN point coordinate": func(b []byte) {
			le.PutUint64(b[offSlots+1:], math.Float64bits(math.NaN()))
		},
		"infinite point coordinate": func(b []byte) {
			le.PutUint64(b[offSlots+1:], math.Float64bits(math.Inf(1)))
		},
		"duplicate point": func(b []byte) {
			copy(b[offSlots+slotSize+1:offSlots+slotSize+17], b[offSlots+1:offSlots+17])
		},
		"zero fragment count": func(b []byte) { le.PutUint32(b[offSlots+17:], 0) },
		"nfrags 2":            func(b []byte) { le.PutUint32(b[offSlots+17:], 2) },
		"huge fragment count": func(b []byte) { le.PutUint32(b[offSlots+17:], 1<<24) },
		"NaN fragment corner": func(b []byte) {
			le.PutUint64(b[offSlots+21:], math.Float64bits(math.NaN()))
		},
		"inverted fragment": func(b []byte) {
			le.PutUint64(b[offSlots+21:], math.Float64bits(1e9)) // Lo[0] > Hi[0]
		},
		"corrupt alive flag": func(b []byte) { b[offSlots] = 7 },
	}
	for name, patch := range cases {
		if _, err := Load(bytes.NewReader(repack(good, patch)), newTestPager()); err == nil {
			t.Errorf("%s: Load accepted forged payload", name)
		}
	}

	// Control: repack without a patch must still load (proves the offsets
	// and CRC recomputation above are exercising the real validation).
	if _, err := Load(bytes.NewReader(repack(good, func([]byte) {})), newTestPager()); err != nil {
		t.Fatalf("control repack failed to load: %v", err)
	}
}

func TestSaveLoadSinglePoint(t *testing.T) {
	ix := mustBuild(t, []vec.Point{{0.5, 0.5}}, Options{Algorithm: Correct})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := loaded.NearestNeighbor(vec.Point{0.1, 0.9})
	if err != nil || nb.ID != 0 {
		t.Errorf("NN = %v, %v", nb, err)
	}
}

// TestSaveLoadNoLivePoints: an index with no live point — never filled, or
// drained by deletes — round-trips, keeps its tombstone slots, and hands the
// next Insert the next id (a reload that restarted ids at 0 would reissue ids
// and reject the log records written after the snapshot).
func TestSaveLoadNoLivePoints(t *testing.T) {
	pts := []vec.Point{{0.2, 0.3}, {0.7, 0.1}, {0.5, 0.9}}
	for _, drained := range []int{0, len(pts)} {
		ix, err := NewEmpty(2, vec.UnitCube(2), newTestPager(), Options{Algorithm: Correct})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts[:drained] {
			id, err := ix.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, newTestPager())
		if err != nil {
			t.Fatalf("%d drained slots: Load: %v", drained, err)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%d drained slots: %v", drained, err)
		}
		if loaded.Len() != 0 {
			t.Fatalf("%d drained slots: Len = %d, want 0", drained, loaded.Len())
		}
		if _, err := loaded.NearestNeighbor(vec.Point{0.5, 0.5}); err != ErrEmpty {
			t.Errorf("%d drained slots: NN on reloaded empty index: %v, want ErrEmpty", drained, err)
		}
		id, err := loaded.Insert(vec.Point{0.4, 0.4})
		if err != nil || id != drained {
			t.Fatalf("%d drained slots: Insert after reload = id %d, %v; want id %d", drained, id, err, drained)
		}
		if nb, err := loaded.NearestNeighbor(vec.Point{0.1, 0.9}); err != nil || nb.ID != id {
			t.Errorf("%d drained slots: NN after insert = %v, %v", drained, nb, err)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%d drained slots, after insert: %v", drained, err)
		}
	}
}

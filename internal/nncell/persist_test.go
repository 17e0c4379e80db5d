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

// The algorithm slot (byte 16) holds a selection's position in Algorithms, not
// its Go value: every snapshot written before NNDirection became the zero
// value loads under the selection it was built with.
func TestSaveAlgorithmCodes(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 85, 30, 2)
	var good []byte
	for code, alg := range []Algorithm{Correct, PointAlg, Sphere, NNDirection} {
		var buf bytes.Buffer
		if err := mustBuild(t, pts, Options{Algorithm: alg}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		good = buf.Bytes()
		if got := binary.LittleEndian.Uint32(good[16:]); got != uint32(code) {
			t.Errorf("%s: Save wrote algorithm code %d, want %d", alg, got, code)
		}
		ix, err := Load(bytes.NewReader(good), newTestPager())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if ix.Algorithm() != alg {
			t.Errorf("code %d loaded as %s, want %s", code, ix.Algorithm(), alg)
		}
	}
	forged := repack(good, func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 4) })
	if _, err := Load(bytes.NewReader(forged), newTestPager()); err == nil {
		t.Error("Load accepted algorithm code 4")
	}
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

// Save∘Load∘Save writes the stream Save started from, for indexes built under
// NN-Direction, Correct and Sphere over a data space whose edges are no
// float32 values (so Save clips rows that Load rounds back out), each with a
// tombstone; and for one over a data space past the float32 range, whose edge
// cells have infinite rows that Save must not write.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	wide := vec.Rect{Lo: vec.Point{-1e39, 0}, Hi: vec.Point{1e39, 1}}
	for k, alg := range []Algorithm{NNDirection, Correct, Sphere, NNDirection} {
		ix := buildInBox(t, oddBox, 502, 150, alg)
		if k == 3 {
			ix = buildInBox(t, wide, 502, 150, alg)
		}
		if err := ix.Delete(9); err != nil {
			t.Fatal(err)
		}
		var first, second bytes.Buffer
		if err := ix.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()), newTestPager())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: Save∘Load∘Save wrote other bytes than Save", alg)
		}
	}
}

// float64CellStream returns the stream of a small NN-Direction index over
// oddBox, with a tombstone, whose cell corners are forged to the float64
// rectangles an index stored before its cells were float32 rows (solvedCells)
// — corners that are no float32 values — and those rectangles, indexed by id.
func float64CellStream(tb testing.TB) ([]byte, []vec.Rect) {
	tb.Helper()
	ix := buildInBox(tb, oddBox, 503, 60, NNDirection)
	if err := ix.Delete(4); err != nil {
		tb.Fatal(err)
	}
	cells := solvedCells(tb, ix)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	d := ix.dim
	return repack(buf.Bytes(), func(b []byte) {
		off := 44 + 2*d*8 + 8 // header, bounds, count: the first slot
		for _, r := range cells {
			off++ // alive flag
			if r.Lo == nil {
				continue
			}
			off += d*8 + 4 // coordinates, fragment count
			for _, v := range append(r.Lo.Clone(), r.Hi...) {
				binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
				off += 8
			}
		}
	}), cells
}

// A stream whose cell corners are no float32 values — what Save wrote while
// cells were float64 rectangles — loads as their outward-rounded superset,
// answers 512 queries as the scan does, and saves to a stream Save∘Load
// reproduces byte for byte.
func TestLoadRoundsFloat64CellsOutward(t *testing.T) {
	stream, cells := float64CellStream(t)
	loaded, err := Load(bytes.NewReader(stream), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d, odd := loaded.dim, 0
	for id, r := range cells {
		if r.Lo == nil {
			if loaded.cells.has(id) {
				t.Fatalf("tombstone %d loaded with a cell", id)
			}
			continue
		}
		row := loaded.cells.row(id)
		for j := range r.Lo {
			checkRoundedOut(t, "loaded Lo", r.Lo[j], row[j], up32(r.Lo[j]))
			checkRoundedOut(t, "loaded Hi", r.Hi[j], down32(r.Hi[j]), row[d+j])
			if float64(float32(r.Lo[j])) != r.Lo[j] {
				odd++
			}
		}
	}
	if odd == 0 {
		t.Fatal("the forged stream holds float32 corners only")
	}

	rng := rand.New(rand.NewSource(504))
	live := loaded.IDs()
	for trial := 0; trial < 512; trial++ {
		q := make(vec.Point, d)
		for j := range q {
			q[j] = oddBox.Lo[j] + (oddBox.Hi[j]-oddBox.Lo[j])*rng.Float64()
		}
		if trial%4 == 3 {
			q, _ = loaded.Point(live[rng.Intn(len(live))])
		}
		got, err := loaded.NearestNeighbor(q)
		want := loaded.scanNearest(q)
		if err != nil || got.ID != want.ID || math.Abs(got.Dist2-want.Dist2) > 1e-12 {
			t.Fatalf("trial %d: q=%v: NN %v (%v), scan %v", trial, q, got, err, want)
		}
	}

	var first, second bytes.Buffer
	if err := loaded.Save(&first); err != nil {
		t.Fatal(err)
	}
	again, err := Load(bytes.NewReader(first.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save∘Load∘Save of the loaded index wrote other bytes than Save")
	}
}

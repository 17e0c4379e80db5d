package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

// A snapshot whose header records Sphere — what `nncell -n … -save f` writes by
// default — is served like any other: no write on the loaded index reads a
// page (the Point and Sphere selections are Build's), and every answer after
// each write is the scan's.
func TestLoadedSphereSnapshotWritesReadNoPage(t *testing.T) {
	const d, n = 4, 300
	pts := uniquePoints(t, 141, n+12, d)
	built, err := nncell.Build(pts[:n], vec.UnitCube(d), pager.New(pager.Config{}), nncell.Options{Algorithm: nncell.Sphere})
	if err != nil {
		t.Fatal(err)
	}
	if built.PagerStats().Accesses == 0 {
		t.Fatal("the Sphere build read no page: not the snapshot this test is about")
	}
	var stream bytes.Buffer
	if err := built.Save(&stream); err != nil {
		t.Fatal(err)
	}
	sx, err := Load(&stream, testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	live := slices.Clone(pts[:n])
	rng := rand.New(rand.NewSource(142))
	check := func(after string) {
		t.Helper()
		if pst := sx.Shard(0).PagerStats(); pst.Accesses != 0 || pst.Allocs != 0 {
			t.Fatalf("%s read %d pages and allocated %d", after, pst.Accesses, pst.Allocs)
		}
		oracle := scan.New(live, vec.Euclidean{}, pager.New(pager.Config{}))
		for trial := 0; trial < 100; trial++ {
			q := randQuery(rng, d)
			_, want := oracle.Nearest(q)
			if got, err := sx.NearestNeighbor(q); err != nil || got.Dist2 != want {
				t.Fatalf("%s, query %d: %v (%v), scan %v", after, trial, got, err, want)
			}
		}
	}
	check("Load")
	if _, err := sx.Insert(pts[n]); err != nil {
		t.Fatal(err)
	}
	live = append(live, pts[n])
	check("Insert")
	if err := sx.Delete(5); err != nil {
		t.Fatal(err)
	}
	live = slices.Delete(live, 5, 6)
	check("Delete")
	if _, err := sx.InsertBatch(pts[n+1:]); err != nil {
		t.Fatal(err)
	}
	live = append(live, pts[n+1:]...)
	check("InsertBatch")
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A bare NNCELLv2 stream — what nncell.Index.Save and `nncell -save` write —
// loads as the one shard of a hash-routed partition, and that partition is the
// saved index: same ids, same answers to the bit, same next id.
func TestLoadAdoptsBareIndexAsOneShard(t *testing.T) {
	const d, n = 4, 400
	pts := uniquePoints(t, 131, n+1, d)
	built, err := nncell.Build(pts[:n], vec.UnitCube(d), pager.New(pager.Config{}), nncell.Options{Algorithm: nncell.NNDirection})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 77, n - 1} { // tombstones travel with the stream
		if err := built.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var stream bytes.Buffer
	if err := built.Save(&stream); err != nil {
		t.Fatal(err)
	}
	bare, err := nncell.Load(bytes.NewReader(stream.Bytes()), pager.New(pager.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Load(bytes.NewReader(stream.Bytes()), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if sx.NumShards() != 1 || sx.RouteKind() != RouteHash || sx.Dim() != d || !sx.Bounds().Equal(bare.Bounds()) {
		t.Fatalf("adopted as %d %v-routed shards, d=%d, bounds %v", sx.NumShards(), sx.RouteKind(), sx.Dim(), sx.Bounds())
	}
	if !slices.Equal(sx.IDs(), bare.IDs()) {
		t.Fatal("ids changed in adoption")
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	sameNeighbor := func(a, b nncell.Neighbor) bool {
		return a.ID == b.ID && math.Float64bits(a.Dist2) == math.Float64bits(b.Dist2)
	}
	rng := rand.New(rand.NewSource(132))
	live := bare.IDs()
	for trial := 0; trial < 2000; trial++ {
		q := randQuery(rng, d)
		switch trial % 3 {
		case 1: // outside the data space
			for j := range q {
				q[j] = 2*q[j] - 0.5
			}
		case 2: // a data point itself
			q, _ = bare.Point(live[rng.Intn(len(live))])
		}
		want, werr := bare.NearestNeighbor(q)
		got, gerr := sx.NearestNeighbor(q)
		if werr != nil || gerr != nil || !sameNeighbor(got, want) {
			t.Fatalf("trial %d: NN %v (%v), bare index %v (%v)", trial, got, gerr, want, werr)
		}
		wantK, werr := bare.KNearest(q, 10)
		gotK, gerr := sx.KNearest(q, 10)
		if werr != nil || gerr != nil || !slices.EqualFunc(gotK, wantK, sameNeighbor) {
			t.Fatalf("trial %d: k-NN %v (%v), bare index %v (%v)", trial, gotK, gerr, wantK, werr)
		}
		if got, want := sx.Candidates(q), bare.Candidates(q); !slices.Equal(got, want) {
			t.Fatalf("trial %d: candidates %v, bare index %v", trial, got, want)
		}
	}

	want, werr := bare.Insert(pts[n])
	got, gerr := sx.Insert(pts[n])
	if werr != nil || gerr != nil || got != want {
		t.Fatalf("next id %d (%v), bare index %d (%v)", got, gerr, want, werr)
	}

	// What the adopted index writes is the sharded format, and it loads back.
	var snap bytes.Buffer
	if err := sx.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap.Bytes(), []byte(Magic)) {
		t.Fatalf("snapshot starts %q, want %q", snap.Bytes()[:8], Magic)
	}
	again, err := Load(&snap, testOptions(0))
	if err != nil || again.NumShards() != 1 || !slices.Equal(again.IDs(), sx.IDs()) {
		t.Fatalf("reload of the one-shard snapshot: %v", err)
	}
}

// saveBuffered is Save as it was before it streamed: every shard serialised
// into a buffer to learn its length. Kept as the byte-for-byte reference.
func saveBuffered(s *Sharded, w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	bw.WriteString(Magic)
	binary.Write(bw, le, uint32(len(s.shards)))
	binary.Write(bw, le, uint16(s.dim))
	binary.Write(bw, le, []float64(s.bounds.Lo))
	binary.Write(bw, le, []float64(s.bounds.Hi))
	binary.Write(bw, le, uint8(s.router.Kind()))
	if r, ok := s.router.(*gridRouter); ok {
		binary.Write(bw, le, uint8(len(r.dims)))
		for i, dim := range r.dims {
			binary.Write(bw, le, uint16(dim))
			binary.Write(bw, le, uint32(r.counts[i]))
		}
	}
	var buf bytes.Buffer
	for _, ix := range s.shards {
		buf.Reset()
		if err := ix.Save(&buf); err != nil {
			return err
		}
		binary.Write(bw, le, uint8(1))
		binary.Write(bw, le, uint64(buf.Len()))
		bw.Write(buf.Bytes())
	}
	return bw.Flush()
}

// The streamed Save writes the bytes the buffered one wrote: hash and grid
// routing, shards with tombstones, shards that never held a point.
func TestSaveMatchesBufferedReference(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 133, 150, d)
	grid := testOptions(4)
	grid.Route = RouteGrid
	for name, opts := range map[string]Options{"hash S=1": testOptions(1), "hash S=5": testOptions(5), "grid S=4": grid} {
		for _, n := range []int{3, 150} {
			s, err := Build(pts[:n], vec.UnitCube(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, gid := range s.IDs()[:n/3] {
				if err := s.Delete(gid); err != nil {
					t.Fatal(err)
				}
			}
			var got, want bytes.Buffer
			if err := s.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := saveBuffered(s, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s, n=%d: streamed Save wrote %d bytes that differ from the buffered %d", name, n, got.Len(), want.Len())
			}
		}
	}
}

// Save must not hold a shard's blob in memory to learn its length: at the
// served shape (n = 10^4, d = 8, one shard) the buffer was 2 MB and more of
// resident memory per snapshot, paid again for every bootstrapping follower.
func TestSaveDoesNotBufferShards(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds 10^4 points at d = 8; allocation counts are perturbed under -race")
	}
	const d, n = 8, 10000
	opts := testOptions(1)
	opts.Index.Algorithm = nncell.NNDirection
	s, err := Build(uniquePoints(t, 134, n, d), vec.UnitCube(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(save func(io.Writer) error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := save(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	bare, sharded := allocated(s.Shard(0).Save), allocated(s.Save)
	if sharded > bare+64<<10 {
		t.Errorf("Sharded.Save allocated %d bytes, its one shard's Save %d: more than 64 KiB on top", sharded, bare)
	}
}

// A log at the root of the WAL directory is a single-index server's: Recover
// must refuse it by name, since no shard would replay its records.
func TestRecoverRefusesRootLevelLog(t *testing.T) {
	s := mustBuild(t, uniquePoints(t, 135, 10, 2), 2, 1)
	m := iofault.NewMem()
	if _, err := s.Recover(m, "wal"); err != nil {
		t.Fatalf("missing directory: %v", err)
	}
	m.SetFile("wal/wal-000000007.log", []byte("NNWALv1\n"))
	_, err := s.Recover(m, "wal")
	if err == nil || !strings.Contains(err.Error(), "wal-000000007.log") {
		t.Fatalf("root-level segment: err = %v, want a refusal naming it", err)
	}
}

// testdata/nnshrdv2-float64-cells.snap was written by Save while cells were
// stored as float64 rectangles: a 2-shard, hash-routed NN-Direction index of
// 160 points, d = 3, over a data space whose edges are no float32 values, one
// point deleted. Its cell corners are no float32 values. It loads as the
// outward-rounded superset of its cells — every loaded corner a float32 value
// on the outer side, every cell around its point — answers 512 queries as the
// scan does, and what it saves Save∘Load reproduces byte for byte.
func TestLoadFloat64CellSnapshot(t *testing.T) {
	old, err := os.ReadFile("testdata/nnshrdv2-float64-cells.snap")
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Load(bytes.NewReader(old), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d, b, ids := sx.Dim(), sx.Bounds(), sx.IDs()
	if sx.NumShards() != 2 || d != 3 || len(ids) != 159 {
		t.Fatalf("loaded %d shards, d = %d, %d points; want 2, 3, 159", sx.NumShards(), d, len(ids))
	}
	live := make([]vec.Point, len(ids))
	for k, gid := range ids {
		live[k], _ = sx.Point(gid)
	}
	for i := 0; i < sx.NumShards(); i++ {
		ix := sx.Shard(i)
		for _, id := range ix.IDs() {
			cell, _ := ix.CellApprox(id)
			p, _ := ix.Point(id)
			for j := range p {
				lo, hi := cell.Lo[j], cell.Hi[j]
				if float64(float32(lo)) != lo || float64(float32(hi)) != hi || !(lo <= p[j] && p[j] <= hi) {
					t.Fatalf("shard %d cell %d: [%v, %v] in dim %d, point %v", i, id, lo, hi, j, p[j])
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 512; trial++ {
		q := make(vec.Point, d)
		for j := range q {
			q[j] = b.Lo[j] + (b.Hi[j]-b.Lo[j])*rng.Float64()
		}
		if trial%4 == 3 {
			q = live[rng.Intn(len(live))]
		}
		best, bestD2 := -1, math.Inf(1)
		for k, p := range live {
			if d2 := (vec.Euclidean{}).Dist2(q, p); d2 < bestD2 {
				best, bestD2 = ids[k], d2
			}
		}
		got, err := sx.NearestNeighbor(q)
		if err != nil || got.ID != best || math.Abs(got.Dist2-bestD2) > 1e-12 {
			t.Fatalf("trial %d: q=%v: NN %v (%v), scan id %d at %v", trial, q, got, err, best, bestD2)
		}
	}

	var first, second bytes.Buffer
	if err := sx.Save(&first); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first.Bytes(), old) {
		t.Fatal("the loaded snapshot saved its float64 corners unrounded")
	}
	again, err := Load(bytes.NewReader(first.Bytes()), testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save∘Load∘Save of the loaded snapshot wrote other bytes than Save")
	}
}

package nncell

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/pager"
	"repro/internal/vec"
)

// The on-disk format of a saved index. The expensive artifact of this data
// structure is the precomputed solution space (the LP-solved cell
// approximations); Save serializes it so Load can rebuild a queryable index
// without re-running a single linear program. Integers and floats are
// little-endian; the layout is:
//
//	magic   [8]byte  "NNCELLv2"
//	dim     uint32
//	flags   uint32   (reserved, 0)
//	options: algorithm (its position in Algorithms: 0 Correct, 1 Point,
//	         2 Sphere, 3 NN-Direction), decompose (1), obliqueness (0) uint32;
//	         sphereScale (1), epsilon (1e-9) float64
//	bounds: 2·dim float64
//	count   uint64   (point slots, including tombstones)
//	per slot: alive uint8; if alive: dim float64 coordinates,
//	          nfrags uint32 (1), then the cell's MBR, 2·dim float64
//	crc32   uint32   (IEEE, over everything after the magic)
//
// The slots with a value in parentheses are fixed: they held the fragment
// budget, its ranking heuristic and each cell's fragment count when cells
// could be stored decomposed, and two options that are constants now. Save
// writes exactly those values and Load rejects a stream holding any other, so
// the layout, and every snapshot written in it without decomposition, is
// unchanged.
//
// The index keeps its cells as float32 rows rounded outward (cellStore); the
// stream keeps float64 corners. Save writes each row widened and clipped to
// the data space; Load rounds every corner outward again, which gives the row
// back (a widened corner is a float32 value, and a clipped one rounds to the
// row's bound, the float32 next to the data-space edge). So Save∘Load∘Save
// writes the stream it started from, and a stream whose corners are not
// float32 values loads as the rounded superset of its cells, which Lemma 1
// keeps exact. The clip keeps a data space wider than the float32 range from
// writing an infinite corner.
//
// The trailing checksum covers the whole payload, so a long-lived server
// loading a snapshot detects bit rot and truncated copies instead of serving
// a silently-corrupt solution space (a flipped MBR bit can shrink a cell and
// re-introduce the false dismissals Lemma 2 rules out). The stream must end
// at the checksum; trailing bytes are rejected as corruption.
const persistMagic = "NNCELLv2"

// Hard upper bounds on header-declared sizes. They exist to reject absurd
// inputs early; Load additionally never trusts them for allocation — all
// per-slot storage grows incrementally as the stream proves it contains the
// data, so a forged count cannot reserve memory the stream never backs.
const (
	maxPersistCount = 1 << 40
	maxPersistDim   = 1 << 16
	// maxPersistCoords bounds count·dim. Tombstone slots cost one stream byte
	// but dim mirror floats, so without this cap a short forged header could
	// amplify a few kilobytes of input into gigabytes of NaN rows.
	maxPersistCoords = 1 << 28
)

// Save writes the index (points, options, and every cell approximation) to w.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.saveLocked(w, false)
}

// SaveFramed writes the byte length of the stream Save writes, a little-endian
// uint64, and then that stream, both under one hold of the read lock: what a
// container format (shard.Save) needs to frame an index without buffering it.
func (ix *Index) SaveFramed(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.saveLocked(w, true)
}

// saveLocked writes the stream, after its length when framed. The length is
// every term of the layout above, and a stream that comes out at another
// length is an error. Callers hold ix.mu.
func (ix *Index) saveLocked(w io.Writer, framed bool) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian

	d := uint64(ix.dim)
	size := uint64(len(persistMagic)) + 5*4 + 2*8 + 2*d*8 + 8 + uint64(ix.cells.len()) +
		uint64(ix.alive)*(d*8+4+2*d*8) + 4
	if framed {
		if err := binary.Write(bw, le, size); err != nil {
			return fmt.Errorf("nncell: save: %w", err)
		}
	}
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("nncell: save: %w", err)
	}
	written := uint64(len(persistMagic)) + 4 // magic and checksum, the two parts that bypass write
	sum := crc32.NewIEEE()
	body := io.MultiWriter(bw, sum)
	write := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(body, le, v); err != nil {
				return fmt.Errorf("nncell: save: %w", err)
			}
			written += uint64(binary.Size(v))
		}
		return nil
	}
	if err := write(
		uint32(ix.dim), uint32(0),
		uint32(ix.opts.Algorithm.code()), uint32(1), uint32(0),
		float64(1), float64(epsilon),
	); err != nil {
		return err
	}
	if err := write(ix.bounds.Lo, ix.bounds.Hi); err != nil {
		return err
	}
	if err := write(uint64(ix.cells.len())); err != nil {
		return err
	}
	lo, hi := make([]float64, ix.dim), make([]float64, ix.dim)
	for id := 0; id < ix.cells.len(); id++ {
		p := ix.point(id)
		if p == nil {
			if err := write(uint8(0)); err != nil {
				return err
			}
			continue
		}
		row := ix.cells.row(id)
		for j := range lo {
			lo[j] = max(float64(row[j]), ix.bounds.Lo[j])
			hi[j] = min(float64(row[ix.dim+j]), ix.bounds.Hi[j])
		}
		if err := write(uint8(1), []float64(p), uint32(1), lo, hi); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, le, sum.Sum32()); err != nil {
		return fmt.Errorf("nncell: save: %w", err)
	}
	if written != size {
		return fmt.Errorf("nncell: save: stream of %d bytes, layout says %d", written, size)
	}
	return bw.Flush()
}

// Load reconstructs a saved index onto a fresh pager. The cell approximations
// are reused, rounded outward to float32 (no LPs are solved); only the two
// directories are rebuilt from the validated entries, and no page of the pager
// is touched.
// A stream with no live slot loads as the empty index it was saved from: the
// tombstone slots are kept, so the next Insert gets the next id.
//
// Load treats the stream as untrusted: truncation, header/payload size
// mismatches, non-finite or out-of-bounds coordinates, duplicate points,
// invalid option enums, a fixed slot holding another value than the one Save
// writes, checksum mismatches and trailing garbage all return
// errors. It never panics on malformed input and never returns an index it
// did not fully validate (FuzzLoad exercises this contract).
func Load(r io.Reader, pg *pager.Pager) (*Index, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nncell: load: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("nncell: load: bad magic %q", magic)
	}
	sum := crc32.NewIEEE()
	body := io.TeeReader(br, sum)
	read := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(body, le, v); err != nil {
				return fmt.Errorf("nncell: load: %w", err)
			}
		}
		return nil
	}
	var dim, flags, alg, decomp, obliq uint32
	var sphereScale, eps float64
	if err := read(&dim, &flags, &alg, &decomp, &obliq, &sphereScale, &eps); err != nil {
		return nil, err
	}
	if dim == 0 || dim > maxPersistDim {
		return nil, fmt.Errorf("nncell: load: implausible dimensionality %d", dim)
	}
	if flags != 0 {
		return nil, fmt.Errorf("nncell: load: unknown flags %#x", flags)
	}
	if alg >= uint32(len(Algorithms())) {
		return nil, fmt.Errorf("nncell: load: unknown algorithm %d", alg)
	}
	for _, slot := range []struct {
		name      string
		got, want float64
	}{
		{"decompose", float64(decomp), 1},
		{"obliqueness", float64(obliq), 0},
		{"sphereScale", sphereScale, 1},
		{"epsilon", eps, epsilon},
	} {
		if slot.got != slot.want {
			return nil, fmt.Errorf("nncell: load: %s slot holds %v, want %v (one rectangle per cell)", slot.name, slot.got, slot.want)
		}
	}
	d := int(dim)
	opts := Options{Algorithm: Algorithms()[alg]}

	bounds := vec.EmptyRect(d)
	if err := read(bounds.Lo, bounds.Hi); err != nil {
		return nil, err
	}
	if !validRect(bounds) {
		return nil, fmt.Errorf("nncell: load: invalid data space %v", bounds)
	}
	var count uint64
	if err := read(&count); err != nil {
		return nil, err
	}
	if count > maxPersistCount {
		return nil, fmt.Errorf("nncell: load: implausible point count %d", count)
	}
	if count*uint64(d) > maxPersistCoords {
		return nil, fmt.Errorf("nncell: load: implausible index size (%d points × %d dims)", count, d)
	}

	ix := &Index{dim: d, opts: opts, pg: pg, bounds: bounds, cells: newCellStore(d, 0)}
	p := make(vec.Point, d)
	rc := vec.EmptyRect(d)
	nanRow := make([]float64, d)
	for j := range nanRow {
		nanRow[j] = math.NaN()
	}
	for id := uint64(0); id < count; id++ {
		var aliveFlag uint8
		if err := read(&aliveFlag); err != nil {
			return nil, err
		}
		// Tombstone slots carry no payload; their rows are NaN-poisoned
		// exactly as Delete leaves them.
		switch aliveFlag {
		case 0:
			ix.cells.grow()
			ix.ptsFlat = append(ix.ptsFlat, nanRow...)
			continue
		case 1:
		default:
			return nil, fmt.Errorf("nncell: load: corrupt alive flag %d at slot %d", aliveFlag, id)
		}
		var nfrags uint32
		if err := read(p, &nfrags); err != nil {
			return nil, err
		}
		if !validPoint(p, bounds) {
			return nil, fmt.Errorf("nncell: load: point %d = %v outside data space", id, p)
		}
		if nfrags != 1 {
			return nil, fmt.Errorf("nncell: load: fragment count slot of point %d holds %d, want 1 (one rectangle per cell)", id, nfrags)
		}
		if err := read(rc.Lo, rc.Hi); err != nil {
			return nil, err
		}
		if !validRect(rc) {
			return nil, fmt.Errorf("nncell: load: invalid cell of point %d: %v", id, rc)
		}
		ix.ptsFlat = append(ix.ptsFlat, p...)
		ix.cells.set(ix.cells.grow(), rc)
		ix.alive++
	}
	var wantSum uint32
	if err := binary.Read(br, le, &wantSum); err != nil {
		return nil, fmt.Errorf("nncell: load: missing checksum: %w", err)
	}
	if got := sum.Sum32(); got != wantSum {
		return nil, fmt.Errorf("nncell: load: checksum mismatch (stream %#x, computed %#x)", wantSum, got)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("nncell: load: trailing garbage after checksum")
	}
	// Duplicate detection, Build's: a duplicated point has an empty NN-cell,
	// so a stream containing one is corrupt.
	live, slots := make([]vec.Point, 0, ix.alive), make([]int, 0, ix.alive)
	for id := 0; id < ix.cells.len(); id++ {
		if q := ix.point(id); q != nil {
			live, slots = append(live, q), append(slots, id)
		}
	}
	if _, j, dup := dupIndex(live, d); dup {
		return nil, fmt.Errorf("nncell: load: duplicate point %v at slot %d", live[j], slots[j])
	}
	ix.dir = newCellDir(bounds, ix.cells)
	ix.pdir = newPointDir(ix.dir.stripeGrid, ix.ptsFlat)
	return ix, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func validPoint(p vec.Point, bounds vec.Rect) bool {
	for _, v := range p {
		if !isFinite(v) {
			return false
		}
	}
	return bounds.Contains(p)
}

// validRect reports whether every corner coordinate is finite and the
// rectangle is non-empty (Lo ≤ Hi in every dimension). NaN corners would
// otherwise slip past IsEmpty, whose comparisons are all false for NaN.
func validRect(r vec.Rect) bool {
	for i := range r.Lo {
		if !isFinite(r.Lo[i]) || !isFinite(r.Hi[i]) || r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

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
//	options: algorithm, decompose, obliqueness uint32; sphereScale (always 1), epsilon float64
//	bounds: 2·dim float64
//	count   uint64   (point slots, including tombstones)
//	per slot: alive uint8; if alive: dim float64 coordinates,
//	          nfrags uint32, then per fragment 2·dim float64
//	crc32   uint32   (IEEE, over everything after the magic)
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
	maxPersistCount  = 1 << 40
	maxPersistDim    = 1 << 16
	maxPersistDecomp = 1 << 20
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
	size := uint64(len(persistMagic)) + 5*4 + 2*8 + 2*d*8 + 8 + uint64(len(ix.cells)) +
		uint64(ix.alive)*(d*8+4) + ix.stats.fragments.Load()*2*d*8 + 4
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
		uint32(ix.opts.Algorithm), uint32(ix.opts.Decompose), uint32(ix.opts.Obliqueness),
		float64(1), ix.opts.Epsilon,
	); err != nil {
		return err
	}
	if err := write(ix.bounds.Lo, ix.bounds.Hi); err != nil {
		return err
	}
	if err := write(uint64(len(ix.cells))); err != nil {
		return err
	}
	for id := range ix.cells {
		p := ix.point(id)
		if p == nil {
			if err := write(uint8(0)); err != nil {
				return err
			}
			continue
		}
		if err := write(uint8(1), []float64(p), uint32(len(ix.cells[id]))); err != nil {
			return err
		}
		for _, r := range ix.cells[id] {
			if err := write([]float64(r.Lo), []float64(r.Hi)); err != nil {
				return err
			}
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
// are reused verbatim (no LPs are solved); only the two directories are
// rebuilt from the validated entries, and no page of the pager is touched.
// A stream with no live slot loads as the empty index it was saved from: the
// tombstone slots are kept, so the next Insert gets the next id.
//
// Load treats the stream as untrusted: truncation, header/payload size
// mismatches, non-finite or out-of-bounds coordinates, duplicate points,
// invalid option enums, checksum mismatches and trailing garbage all return
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
	var sphereScale, epsilon float64
	if err := read(&dim, &flags, &alg, &decomp, &obliq, &sphereScale, &epsilon); err != nil {
		return nil, err
	}
	if dim == 0 || dim > maxPersistDim {
		return nil, fmt.Errorf("nncell: load: implausible dimensionality %d", dim)
	}
	if flags != 0 {
		return nil, fmt.Errorf("nncell: load: unknown flags %#x", flags)
	}
	if Algorithm(alg) > NNDirection {
		return nil, fmt.Errorf("nncell: load: unknown algorithm %d", alg)
	}
	if ObliquenessHeuristic(obliq) > ExtentBased {
		return nil, fmt.Errorf("nncell: load: unknown obliqueness heuristic %d", obliq)
	}
	if decomp > maxPersistDecomp {
		return nil, fmt.Errorf("nncell: load: implausible decompose budget %d", decomp)
	}
	if !isFinite(sphereScale) || sphereScale < 0 || !isFinite(epsilon) || epsilon < 0 {
		return nil, fmt.Errorf("nncell: load: invalid options (sphereScale=%v epsilon=%v)", sphereScale, epsilon)
	}
	d := int(dim)
	opts := Options{
		Algorithm:   Algorithm(alg),
		Decompose:   int(decomp),
		Obliqueness: ObliquenessHeuristic(obliq),
		Epsilon:     epsilon,
	}
	opts.normalize()

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

	ix := &Index{dim: d, opts: opts, pg: pg, bounds: bounds}
	total := 0
	// Duplicate detection, same byte-exact keying as Build: a duplicated
	// point has an empty NN-cell, so a stream containing one is corrupt.
	seen := make(map[string]bool)
	keyBuf := make([]byte, 0, 8*d)
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
			ix.cells = append(ix.cells, nil)
			ix.ptsFlat = append(ix.ptsFlat, nanRow...)
			continue
		case 1:
		default:
			return nil, fmt.Errorf("nncell: load: corrupt alive flag %d at slot %d", aliveFlag, id)
		}
		p := make(vec.Point, d)
		var nfrags uint32
		if err := read(p, &nfrags); err != nil {
			return nil, err
		}
		if !validPoint(p, bounds) {
			return nil, fmt.Errorf("nncell: load: point %d = %v outside data space", id, p)
		}
		keyBuf = keyBuf[:0]
		for _, v := range p {
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, math.Float64bits(v))
		}
		k := string(keyBuf)
		if seen[k] {
			return nil, fmt.Errorf("nncell: load: duplicate point %v at slot %d", p, id)
		}
		seen[k] = true
		// A cell never has more fragments than the decompose budget, which
		// maxPersistDecomp has already capped.
		if nfrags == 0 || nfrags > uint32(opts.Decompose) {
			return nil, fmt.Errorf("nncell: load: implausible fragment count %d for point %d (decompose budget %d)", nfrags, id, opts.Decompose)
		}
		var frags []vec.Rect
		for f := uint32(0); f < nfrags; f++ {
			rc := vec.EmptyRect(d)
			if err := read(rc.Lo, rc.Hi); err != nil {
				return nil, err
			}
			if !validRect(rc) {
				return nil, fmt.Errorf("nncell: load: invalid fragment %d of point %d: %v", f, id, rc)
			}
			frags = append(frags, rc)
		}
		ix.ptsFlat = append(ix.ptsFlat, p...)
		ix.cells = append(ix.cells, frags)
		ix.alive++
		total += len(frags)
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
	ix.stats.fragments.Store(uint64(total))
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

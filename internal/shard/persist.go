package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// Magic identifies the sharded snapshot stream. Load tells it from a bare
// NNCELLv2 stream itself; the export and IsSnapshotMagic stay only because
// bench/ still sniffs before choosing between two replica adapters.
const Magic = "NNSHRDv2"

// IsSnapshotMagic reports whether m is the magic of a sharded snapshot.
func IsSnapshotMagic(m string) bool { return m == Magic }

// maxShardCount bounds the header-declared shard count; it exists to reject
// absurd inputs early, and Load never trusts it for allocation beyond the
// slice headers.
const maxShardCount = 1 << 16

// maxShardDim bounds the header-declared dimensionality (the per-shard blobs
// re-validate it; this only caps the header-driven bounds allocation).
const maxShardDim = 1 << 12

// maxShardBlob bounds one shard's declared blob length (the per-shard v2
// format's own caps bound the real payload far below this).
const maxShardBlob = 1 << 36

// The sharded on-disk format wraps the single-index v2 format:
//
//	magic   [8]byte  "NNSHRDv2"
//	shards  uint32   (partition width S)
//	dim     uint16
//	lo      float64 × dim   (data-space lower corner)
//	hi      float64 × dim   (data-space upper corner)
//	route   uint8    (RouteKind: 0 hash, 1 grid)
//	if grid: m uint8, then per split: dim uint16, count uint32
//	per shard: present uint8; if present: blobLen uint64, then blobLen bytes
//	           of one NNCELLv2 stream (self-checksummed)
//
// The header records everything Load needs to rebuild the router
// deterministically (grid tile edges are a pure function of bounds × dims ×
// counts), so routed placement is identical across save/load. Recording dim
// and bounds in the header also lets an all-empty sharded index round-trip,
// which the empty bootstrap path (NewEmpty + periodic snapshots before any
// insert) needs.
//
// Save writes every shard's blob, a drained or never-used one included: its
// tombstone slots keep local ids, and with them global ids, from being handed
// out twice after a reload, and let the log records that follow the snapshot
// replay. The absent flag stays legal on load (such a shard is recreated
// empty).
// Integrity is per shard: every present blob carries the v2 CRC, and Load
// additionally revalidates the routing invariant over all loaded points, so
// a stream whose blobs were shuffled between shard slots (or whose routing
// header was altered) is rejected.
//
// Save snapshots each shard under that shard's read lock; concurrent writers
// to *other* shards proceed, so the file is a point-in-time image per shard,
// not across shards. That is the same guarantee the serving layer's periodic
// snapshot had for a single index (writers wait, readers proceed), widened
// shard-wise; a cross-shard-atomic snapshot would require pausing all
// writers for the full dump, which the serving path deliberately avoids.
func (s *Sharded) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if err := binary.Write(bw, le, uint32(len(s.shards))); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if err := binary.Write(bw, le, uint16(s.dim)); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	for _, v := range s.bounds.Lo {
		if err := binary.Write(bw, le, v); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	}
	for _, v := range s.bounds.Hi {
		if err := binary.Write(bw, le, v); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	}
	switch r := s.router.(type) {
	case *hashRouter:
		if err := binary.Write(bw, le, uint8(RouteHash)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
	case *gridRouter:
		if err := binary.Write(bw, le, uint8(RouteGrid)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		if err := binary.Write(bw, le, uint8(len(r.dims))); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		for i, dim := range r.dims {
			if err := binary.Write(bw, le, uint16(dim)); err != nil {
				return fmt.Errorf("shard: save: %w", err)
			}
			if err := binary.Write(bw, le, uint32(r.counts[i])); err != nil {
				return fmt.Errorf("shard: save: %w", err)
			}
		}
	default:
		return fmt.Errorf("shard: save: unpersistable router %T", r)
	}
	for i, ix := range s.shards {
		if err := binary.Write(bw, le, uint8(1)); err != nil {
			return fmt.Errorf("shard: save: %w", err)
		}
		// Length and blob stream out under one hold of the shard's read lock;
		// nothing is buffered to learn the length.
		if err := ix.SaveFramed(bw); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Load reconstructs a sharded index from a stream written by Save. Each shard
// gets a fresh pager configured by opts.Pager; opts.Shards and opts.Route
// are ignored — the stream records the partition width and routing
// policy, which the global-id mapping and point placement depend on. Every
// present shard blob is fully validated by the per-shard v2 loader; Load
// additionally checks that all shards agree with the header on dimensionality
// and data space, and that every point routes to the shard that stores it.
//
// This is also where a snapshot's kind is decided, and the only place: a
// stream that does not open with Magic is read as a bare NNCELLv2 index (what
// nncell.Index.Save and `nncell -save` write) and adopted as the only shard of
// a hash-routed S = 1 partition — gid = local·1 + 0, so every id is unchanged.
// Any other stream fails that loader's own magic check.
func Load(r io.Reader, opts Options) (*Sharded, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian

	if magic, _ := br.Peek(len(Magic)); string(magic) != Magic {
		ix, err := nncell.Load(br, pager.New(opts.Pager))
		if err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
		return &Sharded{
			dim:    ix.Dim(),
			bounds: ix.Bounds(),
			router: &hashRouter{shards: 1},
			shards: []*nncell.Index{ix},
		}, nil
	}
	br.Discard(len(Magic)) // peeked in full just above

	var count uint32
	if err := binary.Read(br, le, &count); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if count == 0 || count > maxShardCount {
		return nil, fmt.Errorf("shard: load: implausible shard count %d", count)
	}
	var dim uint16
	if err := binary.Read(br, le, &dim); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	if dim == 0 || dim > maxShardDim {
		return nil, fmt.Errorf("shard: load: implausible dimensionality %d", dim)
	}
	bounds := vec.Rect{Lo: make(vec.Point, dim), Hi: make(vec.Point, dim)}
	for i := range bounds.Lo {
		if err := binary.Read(br, le, &bounds.Lo[i]); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
	}
	for i := range bounds.Hi {
		if err := binary.Read(br, le, &bounds.Hi[i]); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
	}
	for i := range bounds.Lo {
		lo, hi := bounds.Lo[i], bounds.Hi[i]
		// The negated comparison also rejects NaN corners.
		if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("shard: load: corrupt data space [%v, %v] in dim %d", lo, hi, i)
		}
	}
	var kind uint8
	if err := binary.Read(br, le, &kind); err != nil {
		return nil, fmt.Errorf("shard: load: %w", err)
	}
	var router Router
	switch RouteKind(kind) {
	case RouteHash:
		router = &hashRouter{shards: int(count)}
	case RouteGrid:
		var m uint8
		if err := binary.Read(br, le, &m); err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
		if int(m) > maxGridDims {
			return nil, fmt.Errorf("shard: load: grid splits %d dims, max %d", m, maxGridDims)
		}
		dims := make([]int, m)
		counts := make([]int, m)
		for i := range dims {
			var sd uint16
			var sc uint32
			if err := binary.Read(br, le, &sd); err != nil {
				return nil, fmt.Errorf("shard: load: %w", err)
			}
			if err := binary.Read(br, le, &sc); err != nil {
				return nil, fmt.Errorf("shard: load: %w", err)
			}
			dims[i], counts[i] = int(sd), int(sc)
		}
		g, err := newGridRouter(int(dim), bounds, dims, counts)
		if err != nil {
			return nil, fmt.Errorf("shard: load: %w", err)
		}
		if g.Shards() != int(count) {
			return nil, fmt.Errorf("shard: load: grid tile product %d disagrees with shard count %d", g.Shards(), count)
		}
		router = g
	default:
		return nil, fmt.Errorf("shard: load: unknown routing policy %d", kind)
	}

	sh := &Sharded{
		dim:    int(dim),
		bounds: bounds,
		router: router,
		shards: make([]*nncell.Index, count),
	}
	if err := loadShardBlobs(br, sh, opts); err != nil {
		return nil, err
	}

	// Cross-shard validation: all present shards must describe the header's
	// space. (All-empty is legal in v2 — the header carries the geometry.)
	for i, ix := range sh.shards {
		if ix == nil {
			continue
		}
		if ix.Dim() != sh.dim {
			return nil, fmt.Errorf("shard: load: shard %d has dim %d, header declares %d", i, ix.Dim(), sh.dim)
		}
		if !ix.Bounds().Equal(sh.bounds) {
			return nil, fmt.Errorf("shard: load: shard %d data space %v disagrees with %v", i, ix.Bounds(), sh.bounds)
		}
	}
	if err := fillEmptyShards(sh, opts); err != nil {
		return nil, err
	}
	if err := checkRoutingInvariant(sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// loadShardBlobs reads the per-shard present/blob section into
// sh.shards, leaving absent slots nil, and enforces that the stream
// ends exactly after the last shard.
func loadShardBlobs(br *bufio.Reader, sh *Sharded, opts Options) error {
	le := binary.LittleEndian
	for i := range sh.shards {
		var present uint8
		if err := binary.Read(br, le, &present); err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		switch present {
		case 0:
			continue // filled in later, once dim/bounds are known
		case 1:
		default:
			return fmt.Errorf("shard: load: corrupt presence flag %d for shard %d", present, i)
		}
		var blobLen uint64
		if err := binary.Read(br, le, &blobLen); err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		if blobLen == 0 || blobLen > maxShardBlob {
			return fmt.Errorf("shard: load: implausible blob length %d for shard %d", blobLen, i)
		}
		// The limited reader makes the inner loader's EOF checks line up
		// with the declared blob boundary: a blob that is shorter or longer
		// than declared fails the v2 loader's own trailing-garbage /
		// truncation validation.
		ix, err := nncell.Load(io.LimitReader(br, int64(blobLen)), pager.New(opts.Pager))
		if err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		sh.shards[i] = ix
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("shard: load: trailing garbage after last shard")
	}
	return nil
}

// fillEmptyShards replaces absent shard slots with empty indexes over the
// established data space.
func fillEmptyShards(sh *Sharded, opts Options) error {
	for i := range sh.shards {
		if sh.shards[i] != nil {
			continue
		}
		ix, err := nncell.NewEmpty(sh.dim, sh.bounds, pager.New(opts.Pager), opts.Index)
		if err != nil {
			return fmt.Errorf("shard: load: shard %d: %w", i, err)
		}
		sh.shards[i] = ix
	}
	return nil
}

// checkRoutingInvariant verifies that every stored point routes to the shard
// that holds it. A stream whose blobs were rearranged, written with a
// different hash, or whose routing header was altered would break routed
// lookups silently; reject it.
func checkRoutingInvariant(sh *Sharded) error {
	for i, ix := range sh.shards {
		for _, local := range ix.IDs() {
			p, _ := ix.Point(local)
			if want := sh.router.Route(p); want != i {
				return fmt.Errorf("shard: load: shard %d holds point %v that routes to shard %d", i, p, want)
			}
		}
	}
	return nil
}

package rescache

import (
	"repro/internal/nncell"
	"repro/internal/vec"
)

// Inner is the slice of the index surface the Front needs: the NN query it
// memoizes, the mutations it forwards, and the hook registration that wires
// commit-time invalidation. Both *nncell.Index and *shard.Sharded satisfy
// it.
type Inner interface {
	NearestNeighbor(q vec.Point) (nncell.Neighbor, error)
	NearestNeighborBatch(qs []vec.Point, workers int) ([]nncell.Neighbor, error)
	Insert(p vec.Point) (int, error)
	Delete(id int) error
	InsertBatch(ps []vec.Point) ([]int, error)
	DeleteBatch(ids []int) error
	SetMutationHook(h func(cells []int, added []vec.Point))
}

// Front wraps an index with the result cache: NearestNeighbor consults the
// cache first, mutations pass through (their commit hooks invalidate). It
// is the one integration of the cache; the HTTP server has none (DESIGN.md
// §13 has the served verdict).
type Front struct {
	Inner
	cache *Cache
}

// NewFront builds a cache of the given capacity (<= 0 means
// DefaultCapacity) and installs its invalidation as inner's mutation hook.
func NewFront(inner Inner, capacity int) *Front {
	c := New(capacity)
	inner.SetMutationHook(c.Invalidate)
	return &Front{Inner: inner, cache: c}
}

// Cache exposes the underlying cache (stats, manual invalidation in tests).
func (f *Front) Cache() *Cache { return f.cache }

// NearestNeighbor answers from the cache when possible and fills it on a
// miss. The epoch is captured before the inner query runs — see
// Cache.Epoch for why that ordering is what makes the fill sound.
func (f *Front) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) {
	if nb, ok := f.cache.Get(q); ok {
		return nb, nil
	}
	epoch := f.cache.Epoch()
	nb, err := f.Inner.NearestNeighbor(q)
	if err != nil {
		return nb, err
	}
	f.cache.Put(q, nb, epoch)
	return nb, nil
}

// NearestNeighborBatch partitions the batch into cache hits and misses,
// answers the hits from the cache, and forwards the misses in one call to
// the inner concurrent batch entry point with the caller's parallelism.
// Results are re-associated positionally via the miss index list.
//
// The epoch protocol matches the scalar path, captured once for the whole
// miss sub-batch before the inner call: any mutation that commits after the
// capture bumps the epoch, so every Put from this batch is rejected as
// stale — exactly the conservative behaviour a per-query capture would give,
// since the inner batch runs all misses between one capture point and the
// fills.
func (f *Front) NearestNeighborBatch(qs []vec.Point, workers int) ([]nncell.Neighbor, error) {
	out := make([]nncell.Neighbor, len(qs))
	var missQs []vec.Point
	var missAt []int
	for i, q := range qs {
		if nb, ok := f.cache.Get(q); ok {
			out[i] = nb
			continue
		}
		missQs = append(missQs, q)
		missAt = append(missAt, i)
	}
	if len(missQs) == 0 {
		return out, nil
	}
	epoch := f.cache.Epoch()
	nbs, err := f.Inner.NearestNeighborBatch(missQs, workers)
	if err != nil {
		return nil, err
	}
	for j, nb := range nbs {
		out[missAt[j]] = nb
		f.cache.Put(missQs[j], nb, epoch)
	}
	return out, nil
}

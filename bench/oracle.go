package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

// distTol is the absolute tolerance on squared distances, the one the repo's
// own oracle tests use: the index and the scan sum the same terms in
// different orders.
const distTol = 1e-12

// oracleK is the k of the k-NN requests the workloads send.
const oracleK = 10

// oracleEntry is the precomputed truth for one pool query.
type oracleEntry struct {
	id     int       // the scan's nearest point
	dist2  float64   // its squared distance
	unique bool      // no second point at that distance, so id is checkable
	knn    []float64 // squared distances of the oracleK nearest, ascending
}

// oracle holds the truth for a query pool over a fixed point set, so a reply
// is checked by table lookup between requests.
type oracle struct {
	entries []oracleEntry
}

// newScanner lays points out on a private pager (scan.New dereferences it).
func newScanner(points []vec.Point) *scan.Scanner {
	return scan.New(points, vec.Euclidean{}, pager.New(pager.Config{CachePages: 64}))
}

// buildOracle scans points once per pool query: scan.Scanner gives the
// nearest neighbour; a bounded insertion pass gives the k+1 smallest
// distances (Scanner.KNearest sorts all n per query, which at this pool size
// would dominate set-up). The two must agree on the minimum.
func buildOracle(points, pool []vec.Point, workers int) (*oracle, error) {
	sc := newScanner(points)
	o := &oracle{entries: make([]oracleEntry, len(pool))}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			top := make([]float64, 0, oracleK+2)
			for qi := w; qi < len(pool); qi += workers {
				q := pool[qi]
				id, d2 := sc.Nearest(q)
				top = smallestDist2(top[:0], points, q, oracleK+1)
				if top[0] != d2 {
					errs[w] = fmt.Errorf("oracle: scan.Nearest and the k-NN pass disagree on query %d: %v vs %v", qi, d2, top[0])
					return
				}
				k := min(oracleK, len(top))
				o.entries[qi] = oracleEntry{
					id: id, dist2: d2,
					unique: len(top) < 2 || top[1] > top[0],
					knn:    append([]float64(nil), top[:k]...),
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// smallestDist2 appends to dst the k smallest squared distances from q to
// points, ascending.
func smallestDist2(dst []float64, points []vec.Point, q vec.Point, k int) []float64 {
	m := vec.Euclidean{}
	for _, p := range points {
		d2 := m.Dist2(q, p)
		if len(dst) == k && d2 >= dst[k-1] {
			continue
		}
		if len(dst) < k {
			dst = append(dst, d2)
		} else {
			dst[k-1] = d2
		}
		for i := len(dst) - 1; i > 0 && dst[i] < dst[i-1]; i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// useIDsOf rewrites the table's ids, which are positions in the point slice
// it was built over, into the ids ix gave those points (a sharded index
// interleaves per-shard slots). Points are matched by their bits.
func (o *oracle) useIDsOf(points []vec.Point, ix interface {
	IDs() []int
	Point(id int) (vec.Point, bool)
}) {
	key := func(p vec.Point) string {
		b := make([]byte, 0, 8*len(p))
		for _, v := range p {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return string(b)
	}
	idOf := make(map[string]int, len(points))
	for _, id := range ix.IDs() {
		if p, ok := ix.Point(id); ok {
			idOf[key(p)] = id
		}
	}
	for i := range o.entries {
		o.entries[i].id = idOf[key(points[o.entries[i].id])]
	}
}

func sameDist(a, b float64) bool { return math.Abs(a-b) <= distTol }

// checkNN reports whether a reply to pool query qi agrees with the scan: the
// distance always, the id when the minimum is unique.
func (o *oracle) checkNN(qi int, got nncell.Neighbor) bool {
	e := &o.entries[qi]
	return sameDist(got.Dist2, e.dist2) && (!e.unique || got.ID == e.id)
}

// checkKNN reports whether a k-NN reply carries the oracle's distances in
// ascending order. Ids are not compared: ties inside a k-set may be ordered
// either way, and the first distance already pins the nearest neighbour.
func (o *oracle) checkKNN(qi int, got []nncell.Neighbor) bool {
	want := o.entries[qi].knn
	if len(got) != len(want) {
		return false
	}
	for i, nb := range got {
		if !sameDist(nb.Dist2, want[i]) {
			return false
		}
	}
	return true
}

// mirror is the benchmark's own copy of the point set of a mixed workload:
// the build points plus every acknowledged insert, minus every acknowledged
// delete. The final check scans it.
type mirror struct {
	mu     sync.Mutex
	points map[int]vec.Point // live points by the id the system acknowledged
	acked  []int             // ids of acknowledged inserts, oldest first, not yet deleted by the bench
	gone   map[int]bool      // ids the bench deleted
	// inflight holds the points of the insert being sent: the index commits
	// them before the writer learns their ids, and a reader may meet them in
	// between.
	inflight []vec.Point
}

func newMirror(ids []int, points []vec.Point) *mirror {
	m := &mirror{points: make(map[int]vec.Point, len(points)), gone: map[int]bool{}}
	for i, id := range ids {
		m.points[id] = points[i]
	}
	return m
}

// sending announces the points of the insert request about to be sent.
func (m *mirror) sending(ps []vec.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight = ps
}

func (m *mirror) inserted(id int, p vec.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.points[id] = p
	m.acked = append(m.acked, id)
}

// consistent is the cheap check used while the point set is changing and no
// table can be current: the reported distance must be the distance to the
// reported point. It looks the point up in the mirror, never in the index,
// whose locks the writer holds. A neighbour the bench has just deleted, or is
// just inserting, passes when the distance fits. What the neighbour should
// have been is left to the quiesced check afterwards.
func (m *mirror) consistent(q vec.Point, got nncell.Neighbor) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.points[got.ID]; ok {
		return sameDist(vec.Euclidean{}.Dist2(q, p), got.Dist2)
	}
	if m.gone[got.ID] {
		return true
	}
	for _, p := range m.inflight {
		if sameDist(vec.Euclidean{}.Dist2(q, p), got.Dist2) {
			return true
		}
	}
	return false
}

// oldest pops the oldest bench-inserted id still live, the delete op's
// victim. It is marked gone before the delete is sent.
func (m *mirror) oldest() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.acked) == 0 {
		return 0, false
	}
	id := m.acked[0]
	m.acked = m.acked[1:]
	m.gone[id] = true
	return id, true
}

func (m *mirror) deleted(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.points, id)
}

// snapshot returns the live points and the bench-inserted ids still live.
func (m *mirror) snapshot() (points []vec.Point, acked []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.points {
		points = append(points, p)
	}
	return points, append([]int(nil), m.acked...)
}

// batchNN asks one node for the nearest neighbour of every query.
type batchNN func(qs []vec.Point) ([]nncell.Neighbor, error)

// finalCheck is the quiesced cross-node check of a mixed workload: every
// pool query on every node against a scan over the mirrored point set, and
// every acknowledged insert present (its own nearest neighbour at distance
// 0) on every node. It returns the number of checks made and the number
// that failed.
func finalCheck(m *mirror, pool []vec.Point, nodes map[string]batchNN) (checked, wrong int, detail []string) {
	points, acked := m.snapshot()
	sc := newScanner(points)
	want := make([]float64, len(pool))
	for qi, q := range pool {
		_, want[qi] = sc.Nearest(q)
	}
	ackedPts := make([]vec.Point, len(acked))
	for i, id := range acked {
		ackedPts[i] = m.points[id]
	}
	note := func(format string, args ...any) {
		wrong++
		if len(detail) < 8 {
			detail = append(detail, fmt.Sprintf(format, args...))
		}
	}
	for name, nn := range nodes {
		checked += len(pool) + len(acked)
		got, err := nn(pool)
		if err != nil || len(got) != len(pool) {
			wrong += len(pool)
			note("%s: pool queries: %d answers, err %v", name, len(got), err)
		} else {
			// Only the distance is compared: the scan breaks a tie by position
			// in the mirror's map order, which means nothing.
			for qi := range pool {
				if !sameDist(got[qi].Dist2, want[qi]) {
					note("%s: pool query %d: got id %d dist2 %v, the scan says dist2 %v", name, qi, got[qi].ID, got[qi].Dist2, want[qi])
				}
			}
		}
		if len(acked) == 0 {
			continue
		}
		got, err = nn(ackedPts)
		if err != nil || len(got) != len(acked) {
			wrong += len(acked)
			note("%s: acknowledged inserts: %d answers, err %v", name, len(got), err)
			continue
		}
		for i, id := range acked {
			if got[i].Dist2 != 0 {
				note("%s: acknowledged insert %d is lost: nearest is id %d at dist2 %v", name, id, got[i].ID, got[i].Dist2)
			}
		}
	}
	return checked, wrong, detail
}

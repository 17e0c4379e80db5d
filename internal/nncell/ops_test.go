package nncell_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/voronoi"
)

// The op-sequence model: one seeded generator of builds, writes, queries,
// snapshots and concurrent steps, run on every index configuration and
// checked after every op against a scan of the model's own live set. FuzzOps
// drives the same model from bytes.

// index is what the model drives: *nncell.Index and *shard.Sharded.
type index interface {
	rescache.Inner
	Len() int
	IDs() []int
	Point(id int) (vec.Point, bool)
	KNearestAppend(dst []nncell.Neighbor, q vec.Point, k int) ([]nncell.Neighbor, error)
	CandidatesAppend(dst []int, q vec.Point) []int
	Stats() nncell.Stats
	Save(w io.Writer) error
	RepairWait()
	CheckInvariants() error
}

// config is one row of the configuration table.
type config struct {
	target string           // one of targets
	lazy   bool             // lazy repair; its pool runs only in concurrent steps
	cache  bool             // NN queries and writes go through a rescache.Front
	d      int              // dimensionality
	alg    nncell.Algorithm // the constraint selection of Build
	shape  dataset.Name     // the shape of Build's points
}

// targets are a bare *nncell.Index and a shard.Sharded of one shard, of four
// hash-routed ones and of nine grid-routed ones (3 × 3 tiles, edges at 1/3
// and 2/3 of two dimensions).
var targets = []string{"nncell", "S=1", "S=4-hash", "S=9-grid"}

func (c config) String() string {
	return fmt.Sprintf("%s/lazy=%v/cache=%v/d=%d/%v/%s", c.target, c.lazy, c.cache, c.d, c.alg, c.shape)
}

// TestOps runs a generated op sequence on every row of the table: each
// target, eager and lazy repair, with and without the result cache, at
// d ∈ {2, 3, 4, 8}, on every kernel set this CPU has. The build's constraint
// selection and dataset shape turn with the row, so that each target and d
// sees all four selections and each selection all five shapes.
func TestOps(t *testing.T) {
	for _, set := range nncell.KernelSets() {
		t.Run("kernel="+set, func(t *testing.T) {
			defer nncell.UseKernelSet(set)()
			for ti, target := range targets {
				for i := range 4 {
					for di, d := range []int{2, 3, 4, 8} {
						cfg := config{target, i >= 2, i%2 == 1, d, nncell.Algorithms()[(ti+i)%4], dataset.Names()[(ti+di)%5]}
						t.Run(fmt.Sprintf("%s/lazy=%v/cache=%v/d=%d", target, cfg.lazy, cfg.cache, d), func(t *testing.T) {
							run(t, cfg, int64(100*ti+10*i+d))
						})
					}
				}
			}
		})
	}
}

// Rows pinned to the configurations of the per-feature tests this model
// replaced, under their names: each runs one more op sequence, seeded by its
// name, on the kernel set the package's tests run on.
var pinned = map[string]config{
	"TestDirectoryExactUnderChurn":              {"nncell", true, false, 4, nncell.NNDirection, dataset.NameUniform},
	"TestKNearestExactUnderChurn":               {"nncell", true, false, 4, nncell.NNDirection, dataset.NameUniform},
	"TestEngineExactAfterUpdates":               {"nncell", false, false, 4, nncell.NNDirection, dataset.NameUniform},
	"TestInsertMaintainsExactness":              {"nncell", false, false, 2, nncell.Correct, dataset.NameUniform},
	"TestInsertQueriesStayExact":                {"nncell", false, false, 4, nncell.Sphere, dataset.NameClustered},
	"TestDeleteMaintainsExactness":              {"nncell", false, false, 2, nncell.Correct, dataset.NameUniform},
	"TestMixedDynamicWorkload":                  {"nncell", false, false, 3, nncell.Sphere, dataset.NameUniform},
	"TestStaleServingExact":                     {"nncell", true, false, 3, nncell.Correct, dataset.NameUniform},
	"TestLazyDeleteStaysEagerAndExact":          {"nncell", true, false, 2, nncell.Correct, dataset.NameClustered},
	"TestRepairPoolMixedReadersWriters":         {"nncell", true, false, 3, nncell.NNDirection, dataset.NameUniform},
	"TestConcurrentQueriesWithWrites":           {"nncell", false, false, 3, nncell.NNDirection, dataset.NameUniform},
	"TestConcurrentMixedWorkloadWithSave":       {"nncell", false, false, 3, nncell.Sphere, dataset.NameUniform},
	"TestKNearestMatchesScan":                   {"nncell", false, false, 16, nncell.NNDirection, dataset.NameGrid},
	"TestExactNearestNeighborAllConfigurations": {"nncell", false, false, 8, nncell.PointAlg, dataset.NameFourier},
	"TestDirectoryMatchesPagedAndScan":          {"nncell", false, false, 16, nncell.Sphere, dataset.NameClustered},
	"TestShardedMatchesSingleShard":             {"S=1", false, false, 4, nncell.Sphere, dataset.NameUniform},
	"TestShardedDynamicOracle":                  {"S=4-hash", false, false, 3, nncell.Sphere, dataset.NameUniform},
	"TestShardedMixedWorkloadConcurrent":        {"S=4-hash", false, false, 3, nncell.Sphere, dataset.NameUniform},
	"TestGridShardedOracleUnderChurn":           {"S=9-grid", false, false, 4, nncell.Sphere, dataset.NameUniform},
	"TestShardedKNearestMatchesScan":            {"S=4-hash", false, false, 4, nncell.NNDirection, dataset.NameGrid},
	"TestShardedDirectoryMatchesPagedAndScan":   {"S=9-grid", false, false, 4, nncell.Sphere, dataset.NameUniform},
	"TestFrontExactUnderMutationSerial":         {"nncell", false, true, 4, nncell.Sphere, dataset.NameUniform},
	"TestCacheCoherenceChurn":                   {"S=4-hash", true, true, 4, nncell.Sphere, dataset.NameUniform},
	"TestFrontBatchConcurrentChurn":             {"nncell", false, true, 3, nncell.Sphere, dataset.NameUniform},
}

func runPinned(t *testing.T) {
	seed := fnv.New64a()
	seed.Write([]byte(t.Name()))
	run(t, pinned[t.Name()], int64(seed.Sum64()))
}

// run opens cfg's index and runs 24 generated steps on it; with the cache on,
// some query must hit it.
func run(t *testing.T, cfg config, seed int64) {
	m := newModel(t, cfg, rand.New(rand.NewSource(seed)), 120)
	for range 24 {
		m.step()
	}
	m.finish()
	if cfg.cache && m.hits == 0 {
		t.Fatal("no query hit the cache")
	}
}

func TestDirectoryExactUnderChurn(t *testing.T)              { runPinned(t) }
func TestKNearestExactUnderChurn(t *testing.T)               { runPinned(t) }
func TestEngineExactAfterUpdates(t *testing.T)               { runPinned(t) }
func TestInsertMaintainsExactness(t *testing.T)              { runPinned(t) }
func TestInsertQueriesStayExact(t *testing.T)                { runPinned(t) }
func TestDeleteMaintainsExactness(t *testing.T)              { runPinned(t) }
func TestMixedDynamicWorkload(t *testing.T)                  { runPinned(t) }
func TestStaleServingExact(t *testing.T)                     { runPinned(t) }
func TestLazyDeleteStaysEagerAndExact(t *testing.T)          { runPinned(t) }
func TestRepairPoolMixedReadersWriters(t *testing.T)         { runPinned(t) }
func TestConcurrentQueriesWithWrites(t *testing.T)           { runPinned(t) }
func TestConcurrentMixedWorkloadWithSave(t *testing.T)       { runPinned(t) }
func TestKNearestMatchesScan(t *testing.T)                   { runPinned(t) }
func TestExactNearestNeighborAllConfigurations(t *testing.T) { runPinned(t) }
func TestDirectoryMatchesPagedAndScan(t *testing.T)          { runPinned(t) }
func TestShardedMatchesSingleShard(t *testing.T)             { runPinned(t) }
func TestShardedDynamicOracle(t *testing.T)                  { runPinned(t) }
func TestShardedMixedWorkloadConcurrent(t *testing.T)        { runPinned(t) }
func TestGridShardedOracleUnderChurn(t *testing.T)           { runPinned(t) }
func TestShardedKNearestMatchesScan(t *testing.T)            { runPinned(t) }
func TestShardedDirectoryMatchesPagedAndScan(t *testing.T)   { runPinned(t) }
func TestFrontExactUnderMutationSerial(t *testing.T)         { runPinned(t) }
func TestCacheCoherenceChurn(t *testing.T)                   { runPinned(t) }
func TestFrontBatchConcurrentChurn(t *testing.T)             { runPinned(t) }

// FuzzOps decodes bytes into a row of the table, a kernel set and an op
// sequence, one decision a byte, and runs the model on them.
func FuzzOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		rng := rand.New(src)
		cfg := config{targets[rng.Intn(4)], rng.Intn(2) == 1, rng.Intn(2) == 1, []int{2, 3, 4, 8}[rng.Intn(4)],
			nncell.Algorithms()[rng.Intn(4)], dataset.Names()[rng.Intn(5)]}
		sets := nncell.KernelSets()
		defer nncell.UseKernelSet(sets[rng.Intn(len(sets))])()
		m := newModel(t, cfg, rng, 40)
		for steps := 0; len(src.b) > 0 && steps < 40; steps++ {
			m.step()
		}
		m.finish()
	})
}

// byteSource is a rand.Source that spends one byte of input a draw, repeated
// over all 63 bits so that Intn's masks and remainders both see it; an
// exhausted input draws zeros.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	if len(s.b) == 0 {
		return 0
	}
	v := uint64(s.b[0]) * 0x0101010101010101 >> 1
	s.b = s.b[1:]
	return int64(v)
}

func (s *byteSource) Seed(int64) {}

// model mirrors the live set of one index and checks every answer against a
// scan of it.
type model struct {
	t     testing.TB
	cfg   config
	rng   *rand.Rand
	ix    index
	front *rescache.Front
	rw    rescache.Inner // front, or ix without the cache

	live    map[int]vec.Point
	ids     []int           // the keys of live, in a seeded order
	keys    map[string]bool // the bits of every live point
	dead    []vec.Point     // the deleted points, and their ids
	deadIDs []int
	maxID   int
	pool    []vec.Point // queries asked again and again: the cache's hits
	loaded  bool        // Load makes an eager index, whatever cfg.lazy says
	hits    uint64      // cache hits of the fronts a load replaced
	trail   []string
}

// newModel opens the index of cfg: NewEmpty, or Build over up to maxN points.
func newModel(t testing.TB, cfg config, rng *rand.Rand, maxN int) *model {
	m := &model{t: t, cfg: cfg, rng: rng, live: map[int]vec.Point{}, keys: map[string]bool{}, maxID: -1}
	for range 6 {
		m.pool = append(m.pool, m.point(false))
	}
	if cfg.d >= 4 {
		maxN = maxN * 2 / 3 // the build's LPs are the cost
	}
	var pts []vec.Point
	if n := rng.Intn(maxN + 1); n > 0 && rng.Intn(8) > 0 {
		gen, err := dataset.Generate(cfg.shape, rng, n, cfg.d)
		if err != nil {
			t.Fatal(err)
		}
		pts = slices.DeleteFunc(dataset.Deduplicate(gen), func(p vec.Point) bool {
			return slices.ContainsFunc(p, func(v float64) bool { return !(v >= 0 && v <= 1) }) // NaN from a fuzzer's degenerate draws
		})
	}
	m.log("open %v: %d points", cfg, len(pts))

	opts, bounds := nncell.Options{Algorithm: cfg.alg, LazyRepair: cfg.lazy}, vec.UnitCube(cfg.d)
	var ix index
	var err error
	switch {
	case cfg.target == "nncell" && len(pts) == 0:
		ix, err = nncell.NewEmpty(cfg.d, bounds, pager.New(pager.Config{}), opts)
	case cfg.target == "nncell":
		ix, err = nncell.Build(pts, bounds, pager.New(pager.Config{}), opts)
	case len(pts) == 0:
		ix, err = shard.NewEmpty(cfg.d, bounds, m.shardOptions(opts))
	default:
		ix, err = shard.Build(pts, bounds, m.shardOptions(opts))
	}
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	m.use(ix)
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m.add(id, p)
	}
	m.checkState()
	return m
}

func (m *model) shardOptions(opts nncell.Options) shard.Options {
	o := shard.Options{Shards: 1, Index: opts}
	switch m.cfg.target {
	case "S=4-hash":
		o.Shards = 4
	case "S=9-grid":
		o.Shards, o.Route = 9, shard.RouteGrid
	}
	return o
}

// use makes ix the index under test, behind a new Front when the cache is on.
func (m *model) use(ix index) {
	if m.front != nil {
		m.hits += m.front.Cache().Stats().Hits
	}
	m.ix, m.rw, m.front = ix, ix, nil
	m.drainOnly(true)
	if m.cfg.cache {
		m.front = rescache.NewFront(ix, 256)
		m.rw = m.front
	}
}

// shards lists the indexes under the target; a global id's shard is the id
// modulo their number.
func (m *model) shards() []*nncell.Index {
	if ix, ok := m.ix.(*nncell.Index); ok {
		return []*nncell.Index{ix}
	}
	s := m.ix.(*shard.Sharded)
	out := make([]*nncell.Index, s.NumShards())
	for i := range out {
		out[i] = s.Shard(i)
	}
	return out
}

func (m *model) drainOnly(on bool) {
	for _, ix := range m.shards() {
		nncell.DrainOnly(ix, on)
	}
}

func (m *model) log(format string, args ...any) {
	m.trail = append(m.trail, fmt.Sprintf(format, args...))
}

func (m *model) fail(format string, args ...any) {
	m.t.Helper()
	trail := m.trail[max(0, len(m.trail)-12):]
	m.t.Fatalf("%v: %s\nlast ops:\n  %s", m.cfg, fmt.Sprintf(format, args...), strings.Join(trail, "\n  "))
}

func key(p vec.Point) string {
	b := make([]byte, 0, 8*len(p))
	for _, v := range p {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

func (m *model) add(id int, p vec.Point) {
	if _, ok := m.live[id]; ok || m.keys[key(p)] {
		m.fail("%v inserted as %d, live already", p, id)
	}
	m.live[id], m.keys[key(p)] = p, true
	m.ids = append(m.ids, id)
	m.maxID = max(m.maxID, id)
}

func (m *model) remove(id int) {
	p := m.live[id]
	delete(m.live, id)
	delete(m.keys, key(p))
	m.ids = slices.DeleteFunc(m.ids, func(x int) bool { return x == id })
	m.dead, m.deadIDs = append(m.dead, p), append(m.deadIDs, id)
}

// liveID draws a live id, or a never-issued one when none is live.
func (m *model) liveID() int {
	if len(m.ids) == 0 {
		return m.maxID + 1
	}
	return m.ids[m.rng.Intn(len(m.ids))]
}

// point draws a point of the data space: uniform, on the quarter lattice
// (binary fractions, so distances tie exactly), on tile edges (j/3), on
// faces and corners, or (fresh) right beside a recurring query, which moves
// its answer.
func (m *model) point(fresh bool) vec.Point {
	p := make(vec.Point, m.cfg.d)
	kind := m.rng.Intn(8)
	for j := range p {
		p[j] = m.rng.Float64()
		switch {
		case kind == 1:
			p[j] = float64(m.rng.Intn(5)) / 4
		case kind == 2 && m.rng.Intn(2) == 0:
			p[j] = float64(m.rng.Intn(4)) / 3
		case kind == 3 && m.rng.Intn(2) == 0:
			p[j] = float64(m.rng.Intn(2))
		case kind == 4 && fresh:
			p[j] = min(1, max(0, m.pool[0][j]+(p[j]-0.5)*1e-3))
		}
	}
	if kind == 4 && fresh {
		m.pool = append(m.pool[1:], m.pool[0])
	}
	return p
}

// query draws a query: a point as above, a recurring one, a live or a deleted
// point, or one outside the space; inside reports which.
func (m *model) query() (q vec.Point, inside bool) {
	q = m.point(false)
	switch m.rng.Intn(8) {
	case 0, 1:
		q = slices.Clone(m.pool[m.rng.Intn(len(m.pool))])
	case 2:
		if len(m.ids) > 0 {
			q = slices.Clone(m.live[m.liveID()])
		}
	case 3:
		if len(m.dead) > 0 {
			q = slices.Clone(m.dead[m.rng.Intn(len(m.dead))])
		}
	case 4:
		q[m.rng.Intn(len(q))] += 1.5
		return q, false
	case 5:
		for j := range q {
			q[j] = -3 - q[j]
		}
		return q, false
	}
	return q, true
}

// step runs one generated op, then checks a few queries and a batch.
func (m *model) step() {
	switch r := m.rng.Intn(100); {
	case r < 22:
		m.insert(m.point(true))
	case r < 34:
		ps := make([]vec.Point, 2+m.rng.Intn(5))
		for i := range ps {
			ps[i] = m.point(true)
		}
		m.insert(ps...)
	case r < 48:
		m.delete(m.liveID())
	case r < 56:
		ids := make([]int, 2+m.rng.Intn(4))
		for i := range ids {
			ids[i] = m.liveID()
		}
		m.delete(ids...)
	case r < 60: // ±0.0: equal distances, distinct points
		p, j := m.point(true), m.rng.Intn(m.cfg.d)
		twin := slices.Clone(p)
		p[j], twin[j] = 0, math.Copysign(0, -1)
		m.insert(p, twin)
	case r < 72:
		m.badWrite()
	case r < 76:
		m.saveLoad()
	case r < 81:
		m.log("RepairWait")
		before := m.ix.Stats()
		m.ix.RepairWait()
		if st := m.ix.Stats(); st.StaleCells != 0 || before.StaleCells > 0 && st.Repairs == before.Repairs {
			m.fail("RepairWait: %d stale cells before, %d after, %d repairs", before.StaleCells, st.StaleCells, st.Repairs-before.Repairs)
		}
		m.checkState()
	case r < 84:
		m.concurrent()
	}
	for range 3 {
		m.checkQuery()
	}
	m.checkBatch()
}

// badWrite is a write that must fail: a duplicate insert, a batch repeating a
// point, a point outside the space or of the wrong dimensionality, a delete
// of a never-issued, negative or dead id, or a batch naming an id twice.
func (m *model) badWrite() {
	p := m.point(true)
	switch m.rng.Intn(8) {
	case 0:
		if len(m.ids) > 0 {
			p = slices.Clone(m.live[m.liveID()])
		}
		m.insert(p)
	case 1:
		m.insert(p, m.point(true), slices.Clone(p))
	case 2:
		p[m.rng.Intn(len(p))] = 1.5
		m.insert(m.point(true), p)
	case 3:
		m.insert(append(p, 0.5))
	case 4:
		m.delete(m.maxID + 1 + m.rng.Intn(9))
	case 5:
		m.delete(-1 - m.rng.Intn(3))
	case 6:
		id := m.liveID()
		m.delete(id, m.liveID(), id)
	default:
		if len(m.deadIDs) > 0 {
			m.delete(m.deadIDs[m.rng.Intn(len(m.deadIDs))], m.liveID())
		}
	}
}

// insert inserts ps, one by Insert, more by InsertBatch. It must fail iff a
// point is live already, repeats one before it, lies outside the space or
// has the wrong dimensionality. An insert beside a live point must mark a
// cell stale (lazy) or recompute one (eager).
func (m *model) insert(ps ...vec.Point) {
	bad, seen := false, map[string]bool{}
	for _, p := range ps {
		k := key(p)
		bad = bad || m.keys[k] || seen[k] || len(p) != m.cfg.d || !vec.UnitCube(m.cfg.d).Contains(p)
		seen[k] = true
	}
	m.log("insert %v", ps)
	alive, updates := len(m.ids), m.ix.Stats().Updates
	var ids []int
	m.write(bad, ps, nil, func() (err error) {
		if len(ps) > 1 {
			ids, err = m.rw.InsertBatch(ps)
			return err
		}
		ids = make([]int, 1)
		ids[0], err = m.rw.Insert(ps[0])
		return err
	}, func() {
		for i, id := range ids {
			m.add(id, ps[i])
		}
	})
	if st := m.ix.Stats(); m.cfg.target == "nncell" && !bad && alive > 0 {
		if lazy := m.cfg.lazy && !m.loaded; lazy && st.StaleCells == 0 || !lazy && st.Updates == updates {
			m.fail("an insert beside a live point left no stale cell (lazy: %v) or updated no cell (eager)", lazy)
		}
	}
}

// delete deletes ids, one by Delete, more by DeleteBatch. It must fail iff
// an id is not live or repeats one before it.
func (m *model) delete(ids ...int) {
	bad, seen := false, map[int]bool{}
	for _, id := range ids {
		_, ok := m.live[id]
		bad = bad || !ok || seen[id]
		seen[id] = true
	}
	m.log("delete %v", ids)
	m.write(bad, nil, ids, func() error {
		if len(ids) > 1 {
			return m.rw.DeleteBatch(ids)
		}
		return m.rw.Delete(ids[0])
	}, func() {
		for _, id := range ids {
			m.remove(id)
		}
	})
}

// write runs a write of ins or dels that must fail (bad) or succeed (then it
// must reach the cache's invalidation, and commit updates the model). A
// failed write leaves the index byte for byte as it was, except a batch over
// several shards, which is atomic per shard only: the model then takes on
// what the index shows, if every new id holds a point of ins, every vanished
// id is in dels, and each shard deleted all of its ids in dels or none.
func (m *model) write(bad bool, ins []vec.Point, dels []int, do func() error, commit func()) {
	S := len(m.shards())
	perShard := S > 1 && len(ins)+len(dels) > 1
	var before []byte
	if bad && !perShard {
		before = m.save(m.ix)
	}
	var invalidations uint64
	if m.front != nil {
		invalidations = m.front.Cache().Stats().Invalidations
	}
	err := do()
	switch {
	case bad && err == nil:
		m.fail("the write succeeded; it must fail")
	case bad && !perShard && !bytes.Equal(m.save(m.ix), before):
		m.fail("the failed write changed the index")
	case bad:
		now := m.ix.IDs()
		gone := map[int]int{} // shard → its ids in dels that are gone
		for _, id := range slices.Clone(m.ids) {
			if !slices.Contains(now, id) {
				if !slices.Contains(dels, id) {
					m.fail("the failed write deleted %d", id)
				}
				gone[id%S]++
				m.remove(id)
			}
		}
		for sh, n := range gone {
			if n != len(slices.DeleteFunc(slices.Clone(dels), func(id int) bool { return id%S != sh })) {
				m.fail("shard %d deleted %d of its ids in %v", sh, n, dels)
			}
		}
		for _, id := range now {
			if _, ok := m.live[id]; !ok {
				p, _ := m.ix.Point(id)
				if !slices.ContainsFunc(ins, func(o vec.Point) bool { return key(o) == key(p) }) {
					m.fail("the failed write inserted %v as %d", p, id)
				}
				m.add(id, p)
			}
		}
	case err != nil:
		m.fail("write: %v", err)
	case m.front != nil && m.front.Cache().Stats().Invalidations == invalidations:
		m.fail("the write invalidated no cached answer")
	default:
		commit()
	}
	m.checkState()
}

func (m *model) save(ix index) []byte {
	var b bytes.Buffer
	if err := ix.Save(&b); err != nil {
		m.fail("Save: %v", err)
	}
	return b.Bytes()
}

// load makes an index of Save's bytes; it must pass its invariants.
func (m *model) load(b []byte) index {
	var ix index
	var err error
	if m.cfg.target == "nncell" {
		ix, err = nncell.Load(bytes.NewReader(b), pager.New(pager.Config{}))
	} else {
		ix, err = shard.Load(bytes.NewReader(b), m.shardOptions(nncell.Options{}))
	}
	if err != nil {
		m.fail("Load: %v", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		m.fail("loaded index: %v", err)
	}
	return ix
}

// saveLoad continues the sequence on the index Load makes of Save's bytes;
// saving it again must give the same bytes.
func (m *model) saveLoad() {
	m.log("Save, Load")
	b := m.save(m.ix)
	ix := m.load(b)
	if again := m.save(ix); !bytes.Equal(again, b) {
		m.fail("Save∘Load∘Save: %d bytes, Save: %d, not the same", len(again), len(b))
	}
	m.use(ix)
	m.loaded = true
	m.checkState()
}

// checkState checks the invariants and that the index holds the model's live
// set, id for id and bit for bit. On an eager Correct index in the plane
// every stored cell must be the MBR of the exact Voronoi cell among the
// points of its shard, as Build makes it.
func (m *model) checkState() {
	if err := m.ix.CheckInvariants(); err != nil {
		m.fail("CheckInvariants: %v", err)
	}
	ids := m.ix.IDs()
	if m.ix.Len() != len(m.live) || len(ids) != len(m.live) {
		m.fail("Len %d, %d ids, the model holds %d", m.ix.Len(), len(ids), len(m.live))
	}
	for _, id := range ids {
		if p, ok := m.ix.Point(id); !ok || key(p) != key(m.live[id]) {
			m.fail("id %d is %v (%v), the model's %v", id, p, ok, m.live[id])
		}
	}
	if m.cfg.alg != nncell.Correct || m.cfg.d != 2 || m.cfg.lazy {
		return
	}
	for _, ix := range m.shards() {
		// ±0.0 twins are one place, and share its Voronoi cell.
		var places []vec.Point
		at := map[[2]float64]int{}
		for _, id := range ix.IDs() {
			p, _ := ix.Point(id)
			pl := [2]float64{p[0] + 0, p[1] + 0} // +0 turns -0.0 into 0.0
			if _, ok := at[pl]; !ok {
				at[pl] = len(places)
				places = append(places, pl[:])
			}
		}
		for _, id := range ix.IDs() {
			p, _ := ix.Point(id)
			exact := voronoi.NNCell(places, at[[2]float64{p[0] + 0, p[1] + 0}], vec.UnitCube(2)).MBR()
			cell, _ := ix.CellApprox(id)
			for j := range 2 {
				if math.Abs(cell.Lo[j]-exact.Lo[j]) > 1e-6 || math.Abs(cell.Hi[j]-exact.Hi[j]) > 1e-6 {
					m.fail("Correct cell of %v is %v, the Voronoi cell's MBR %v", p, cell, exact)
				}
			}
		}
	}
}

// scan is the oracle: every point of live by (Dist2, ID).
func scan(live map[int]vec.Point, q vec.Point) []nncell.Neighbor {
	all := make([]nncell.Neighbor, 0, len(live))
	for id, p := range live {
		all = append(all, nncell.Neighbor{ID: id, Dist2: vec.Euclidean{}.Dist2(q, p)})
	}
	slices.SortFunc(all, func(a, b nncell.Neighbor) int {
		if a.Less(b) {
			return -1
		}
		return 1 // ids are distinct
	})
	return all
}

// checkNN checks an NN answer against the scan: a live point at the least
// distance, the least id of those unless two of them share a shard, where
// the order among them is the engine's.
func (m *model) checkNN(what string, q vec.Point, nb nncell.Neighbor, err error, all []nncell.Neighbor) {
	if len(all) == 0 {
		if !errors.Is(err, nncell.ErrEmpty) {
			m.fail("%s(%v) on no point: %v, %v", what, q, nb, err)
		}
		return
	}
	S, tied := len(m.shards()), 1
	for tied < len(all) && all[tied].Dist2 == all[0].Dist2 {
		tied++
	}
	shardTie, seen := false, map[int]bool{}
	for _, t := range all[:tied] {
		shardTie = shardTie || seen[t.ID%S]
		seen[t.ID%S] = true
	}
	if err != nil || !slices.Contains(all[:tied], nb) || (nb != all[0] && !shardTie) {
		m.fail("%s(%v) = %v, %v; the scan's nearest %v", what, q, nb, err, all[:tied])
	}
}

// checkQuery checks one query through every read entry point: NN (cached
// and not; inside the space without the scan fallback), k-NN behind a
// caller's prefix, k-NN within a limit (on a bare index), candidates (which
// hold a nearest point inside the space) and the paged query of the cell
// X-tree (whose invariants must hold).
func (m *model) checkQuery() {
	q, inside := m.query()
	all := scan(m.live, q)
	fallbacks := m.ix.Stats().Fallbacks
	nb, err := m.rw.NearestNeighbor(q)
	m.checkNN("NearestNeighbor", q, nb, err, all)
	if m.front != nil {
		nb, err = m.ix.NearestNeighbor(q)
		m.checkNN("uncached NearestNeighbor", q, nb, err, all)
	}
	if inside && m.ix.Stats().Fallbacks != fallbacks {
		m.fail("NearestNeighbor(%v) inside the space fell back to the scan", q)
	}

	prefix := []nncell.Neighbor{{ID: -7, Dist2: -1}}
	ks := []int{1, 2, 10, 17, len(all), len(all) + 5}
	for _, k := range ks {
		got, err := m.ix.KNearestAppend(slices.Clip(prefix), q, k)
		want := all[:min(k, len(all))]
		if k > 0 && !(len(all) == 0 && errors.Is(err, nncell.ErrEmpty)) &&
			(err != nil || got[0] != prefix[0] || !slices.Equal(got[1:], want)) {
			m.fail("KNearestAppend(%v, k=%d) = %v, %v; the scan's %v", q, k, got, err, want)
		}
	}
	if ix, ok := m.ix.(*nncell.Index); ok && len(all) > 0 {
		k := ks[m.rng.Intn(len(ks))]
		kth := all[min(k, len(all))-1].Dist2
		for _, limit := range []float64{kth, math.Nextafter(kth, -1), 0, math.Inf(1)} {
			n := 0
			for n < min(k, len(all)) && all[n].Dist2 <= limit {
				n++
			}
			got, err := ix.KNearestWithinAppend(slices.Clip(prefix), q, k, limit)
			if err != nil || got[0] != prefix[0] || !slices.Equal(got[1:], all[:n]) {
				m.fail("KNearestWithinAppend(%v, k=%d, %v) = %v, %v; the scan's %v", q, k, limit, got, err, all[:n])
			}
		}
	}

	cands := m.ix.CandidatesAppend(nil, q)
	hasNN := !inside || len(all) == 0
	for _, id := range cands {
		p, ok := m.live[id]
		if !ok {
			m.fail("CandidatesAppend(%v) lists %d, not live", q, id)
		}
		hasNN = hasNN || vec.Euclidean{}.Dist2(q, p) == all[0].Dist2
	}
	if !hasNN {
		m.fail("CandidatesAppend(%v) = %v misses the nearest %v", q, cands, all[0])
	}

	if m.rng.Intn(3) > 0 {
		return
	}
	if ix, ok := m.ix.(*nncell.Index); ok {
		nb, err := ix.NearestNeighborPaged(q)
		m.checkNN("NearestNeighborPaged", q, nb, err, all)
		if err := ix.Tree().CheckInvariants(); err != nil {
			m.fail("the cell X-tree: %v", err)
		}
	} else if len(all) > 0 {
		best := math.Inf(1)
		for _, ix := range m.shards() {
			if nb, err := ix.NearestNeighborPaged(q); err == nil {
				best = min(best, nb.Dist2)
			}
		}
		if best != all[0].Dist2 {
			m.fail("NearestNeighborPaged(%v), best of the shards: %v; the scan's %v", q, best, all[0])
		}
	}
}

// checkBatch checks NearestNeighborBatch on a few queries.
func (m *model) checkBatch() {
	qs := make([]vec.Point, 1+m.rng.Intn(5))
	for i := range qs {
		qs[i], _ = m.query()
	}
	workers := []int{0, 1, 3}[m.rng.Intn(3)]
	nbs, err := m.rw.NearestNeighborBatch(qs, workers)
	if len(m.live) == 0 && errors.Is(err, nncell.ErrEmpty) {
		return
	}
	if err != nil || len(nbs) != len(qs) {
		m.fail("NearestNeighborBatch(%d queries, %d workers) = %d answers, %v", len(qs), workers, len(nbs), err)
	}
	for i, q := range qs {
		m.checkNN("NearestNeighborBatch", q, nbs[i], nil, scan(m.live, q))
	}
}

// finish drains the repairs and checks a last round of queries.
func (m *model) finish() {
	m.log("RepairWait, finish")
	m.ix.RepairWait()
	m.checkState()
	for range 4 {
		m.checkQuery()
	}
	m.use(m.ix) // counts the last front's hits
}

// concurrent runs a mutation step on two writers, with the lazy repair pool
// running, while two readers query (the recurring queries, through the cache
// if it is on, and others, some outside the space) and a third goroutine
// saves. A reader checks what holds at any instant: each answer is a live
// point at the reported distance or one the step deletes; k-NN answers are
// ascending, distinct and as long as the fewest points live in the step
// allow; a query inside the space has candidates. The saved bytes must load into an index
// that passes its invariants and answers exactly over its own points.
func (m *model) concurrent() {
	var ins []vec.Point
	seen := map[string]bool{}
	for range 6 {
		if p := m.point(true); !m.keys[key(p)] && !seen[key(p)] {
			ins, seen[key(p)] = append(ins, p), true
		}
	}
	dels := slices.Clone(m.ids[:min(5, len(m.ids)/3)])
	least := len(m.ids) - len(dels)
	if least == 0 || len(ins) < 2 {
		return
	}
	m.log("concurrent: insert %v, delete %v", ins, dels)
	ix, rw, d, pool := m.ix, m.rw, m.cfg.d, m.pool

	var mu sync.Mutex
	var errs []string
	report := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	valid := func(q vec.Point, nb nncell.Neighbor) bool {
		p, ok := ix.Point(nb.ID)
		return ok && vec.Euclidean{}.Dist2(q, p) == nb.Dist2 || !ok && slices.Contains(dels, nb.ID)
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := range 2 {
		rng := rand.New(rand.NewSource(m.rng.Int63()))
		readers.Add(1)
		go func() {
			defer readers.Done()
			var nbs []nncell.Neighbor
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := slices.Clone(pool[rng.Intn(len(pool))])
				if i%2 == 1 {
					for j := range q {
						q[j] = rng.Float64()
					}
				}
				if i%5 == 4 {
					out := slices.Clone(q)
					out[i%d] += 1.5
					if nb, err := rw.NearestNeighbor(out); err != nil || !valid(out, nb) {
						report("reader %d: NearestNeighbor(%v) = %v, %v", r, out, nb, err)
						return
					}
				}
				if nb, err := rw.NearestNeighbor(q); err != nil || !valid(q, nb) {
					report("reader %d: NearestNeighbor(%v) = %v, %v", r, q, nb, err)
					return
				}
				k := 1 + rng.Intn(20)
				var err error
				nbs, err = ix.KNearestAppend(nbs[:0], q, k)
				ok := err == nil && len(nbs) >= min(k, least) && len(nbs) <= k
				for j, nb := range nbs {
					ok = ok && valid(q, nb) && (j == 0 || nbs[j-1].Less(nb))
				}
				if !ok {
					report("reader %d: KNearestAppend(%v, %d) = %v, %v", r, q, k, nbs, err)
					return
				}
				if len(ix.CandidatesAppend(nil, q)) == 0 {
					report("reader %d: no candidate for %v", r, q)
					return
				}
				if i%8 == 7 {
					if _, err := rw.NearestNeighborBatch([]vec.Point{q, q}, 2); err != nil {
						report("reader %d: NearestNeighborBatch: %v", r, err)
						return
					}
				}
			}
		}()
	}
	var saved bytes.Buffer
	readers.Add(1)
	go func() {
		defer readers.Done()
		if err := ix.Save(&saved); err != nil {
			report("Save: %v", err)
		}
	}()
	// Insert and Delete are InsertBatch and DeleteBatch of one, on every
	// target, so the writers use the batch forms.
	halves := [2][]vec.Point{ins[:len(ins)/2], ins[len(ins)/2:]}
	var added [2][]int
	m.drainOnly(false)
	for w, dels := range [2][]int{dels[:len(dels)/2], dels[len(dels)/2:]} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			ids, err := rw.InsertBatch(halves[w])
			if err == nil && len(dels) > 0 {
				err = rw.DeleteBatch(dels)
			}
			if err != nil {
				report("writer %d: %v", w, err)
			}
			added[w] = ids
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	ix.RepairWait()
	m.drainOnly(true)
	if len(errs) > 0 {
		m.fail("%s", strings.Join(errs, "\n"))
	}

	for _, id := range dels {
		m.remove(id)
	}
	for w, ids := range added {
		for i, id := range ids {
			m.add(id, halves[w][i])
		}
	}
	m.checkState()

	snap := m.load(saved.Bytes())
	own := map[int]vec.Point{}
	for _, id := range snap.IDs() {
		own[id], _ = snap.Point(id)
	}
	for range 6 {
		q, _ := m.query()
		nb, err := snap.NearestNeighbor(q)
		m.checkNN("NearestNeighbor of the snapshot saved in the step", q, nb, err, scan(own, q))
	}
}

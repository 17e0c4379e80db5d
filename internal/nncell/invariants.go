package nncell

import (
	"fmt"
	"math"
	"math/bits"
)

// CheckInvariants verifies the cross-structure consistency of the index: the
// coordinate store, the stored cell approximations and the cell and point
// directories must all describe the same point set.
// The cell X-tree is derived from the stored cells on demand (Tree) and never
// maintained, so it has nothing to drift from and no check here. The dynamic
// path's atomicity contract is stated in terms of this check — Insert and
// Delete leave it passing on every exit path, success or failure — and the
// failure-injection tests assert exactly that.
func (ix *Index) CheckInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.ptsFlat) != ix.cells.len()*ix.dim {
		return fmt.Errorf("nncell: %d coords for %d cell slots (dim %d)", len(ix.ptsFlat), ix.cells.len(), ix.dim)
	}
	alive := 0
	for id := 0; id < ix.cells.len(); id++ {
		p := ix.point(id)
		if p == nil {
			if ix.cells.has(id) {
				return fmt.Errorf("nncell: tombstone %d still has a stored cell", id)
			}
			for j, v := range ix.ptsFlat[id*ix.dim : (id+1)*ix.dim] {
				if !math.IsNaN(v) {
					return fmt.Errorf("nncell: tombstone %d row not NaN-poisoned (dim %d = %v)", id, j, v)
				}
			}
			continue
		}
		alive++
		if !ix.cells.has(id) {
			return fmt.Errorf("nncell: live point %d has no stored cell", id)
		}
		if !validPoint(p, ix.bounds) {
			return fmt.Errorf("nncell: point %d = %v outside data space %v", id, p, ix.bounds)
		}
	}
	if alive != ix.alive {
		return fmt.Errorf("nncell: alive counter %d, %d live points", ix.alive, alive)
	}
	held := 0
	for _, word := range ix.pdir.live() {
		held += bits.OnesCount64(word)
	}
	if held != alive {
		return fmt.Errorf("nncell: point directory holds %d points for %d live ones", held, alive)
	}
	for id := range ix.stale {
		if id < 0 || id >= ix.cells.len() || ix.point(id) == nil {
			return fmt.Errorf("nncell: stale mark on dead slot %d", id)
		}
	}
	if got := int(ix.stats.staleCells.Load()); got != len(ix.stale) {
		return fmt.Errorf("nncell: stale counter %d, %d marked cells", got, len(ix.stale))
	}
	if err := ix.dir.check(ix.bounds, ix.cells); err != nil {
		return err
	}
	if err := ix.pdir.check(ix.ptsFlat); err != nil {
		return err
	}
	if c, p := len(ix.dir.rows[0]), len(ix.pdir.le[0]); c != p {
		return fmt.Errorf("nncell: cell directory rows hold %d words, point directory rows %d", c, p)
	}
	return nil
}

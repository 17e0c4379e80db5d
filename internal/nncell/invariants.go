package nncell

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the cross-structure consistency of the index: the
// point table, its SoA mirror, the stored cell approximations, both X-trees,
// the cell directory and the fragment counter must all describe the same
// point set. The dynamic path's atomicity contract is stated in terms of this
// check — Insert and Delete leave it passing on every exit path, success or
// failure — and the failure-injection tests assert exactly that.
func (ix *Index) CheckInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.cells) != len(ix.points) {
		return fmt.Errorf("nncell: %d cell slots for %d point slots", len(ix.cells), len(ix.points))
	}
	if len(ix.ptsFlat) != len(ix.points)*ix.dim {
		return fmt.Errorf("nncell: mirror holds %d coords for %d point slots (dim %d)",
			len(ix.ptsFlat), len(ix.points), ix.dim)
	}
	alive, frags := 0, 0
	for id, p := range ix.points {
		row := ix.ptsFlat[id*ix.dim : (id+1)*ix.dim]
		if p == nil {
			if ix.cells[id] != nil {
				return fmt.Errorf("nncell: tombstone %d still has a stored cell", id)
			}
			for j, v := range row {
				if !math.IsNaN(v) {
					return fmt.Errorf("nncell: tombstone %d mirror row not NaN-poisoned (dim %d = %v)", id, j, v)
				}
			}
			continue
		}
		alive++
		if len(ix.cells[id]) == 0 {
			return fmt.Errorf("nncell: live point %d has no stored cell", id)
		}
		frags += len(ix.cells[id])
		for j := range p {
			if math.Float64bits(row[j]) != math.Float64bits(p[j]) {
				return fmt.Errorf("nncell: stale mirror row for point %d (dim %d)", id, j)
			}
		}
		if !ix.bounds.Contains(p) {
			return fmt.Errorf("nncell: point %d = %v outside data space %v", id, p, ix.bounds)
		}
	}
	if alive != ix.alive {
		return fmt.Errorf("nncell: alive counter %d, %d live points", ix.alive, alive)
	}
	if got := ix.dataIdx.Len(); got != alive {
		return fmt.Errorf("nncell: data index holds %d entries for %d live points", got, alive)
	}
	if got := ix.tree.Len(); got != frags {
		return fmt.Errorf("nncell: cell tree holds %d fragments, cells store %d", got, frags)
	}
	if got := int(ix.stats.fragments.Load()); got != frags {
		return fmt.Errorf("nncell: fragment counter %d, cells store %d", got, frags)
	}
	for id := range ix.stale {
		if id < 0 || id >= len(ix.points) || ix.points[id] == nil {
			return fmt.Errorf("nncell: stale mark on dead slot %d", id)
		}
	}
	if got := int(ix.stats.staleCells.Load()); got != len(ix.stale) {
		return fmt.Errorf("nncell: stale counter %d, %d marked cells", got, len(ix.stale))
	}
	if err := ix.tree.CheckInvariants(); err != nil {
		return fmt.Errorf("nncell: cell tree: %w", err)
	}
	if err := ix.dir.check(ix.bounds, ix.cells); err != nil {
		return err
	}
	if err := ix.dataIdx.CheckInvariants(); err != nil {
		return fmt.Errorf("nncell: data index: %w", err)
	}
	return nil
}

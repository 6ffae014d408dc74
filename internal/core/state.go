package core

import "fmt"

// State export/import primitives for the snapshot layer (see
// internal/snapshot and the stream package's Snapshot/Restore). The
// dense PCSTable layout makes serialization a linear walk over
// At(0..Len); restore replays the cells with Append in the saved order,
// reproducing the exact dense layout — and therefore the exact sweep
// visit order, whose floating-point accumulation order downstream
// evolution decisions depend on.

// Append inserts a cell with a known key and summary at the end of the
// dense layout — the snapshot-restore primitive. Unlike Get it never
// decays or zeroes anything: the summary is stored verbatim. Appending
// a key that is already populated is a corrupt-snapshot condition and
// returns an error.
func (t *PCSTable) Append(key uint64, cell PCS) error {
	if t.Contains(key) {
		return fmt.Errorf("core: duplicate cell key %#x", key)
	}
	s := uint32(len(t.cells))
	t.cells = append(t.cells, cell)
	t.keys = append(t.keys, key)
	t.insert(key, s)
	return nil
}

// Range calls visit for every populated base cell with its key (the
// interval-index vector as an immutable string) and summary, without
// decaying or mutating anything. Iteration order is the map's —
// randomized; serialization sorts the keys itself.
func (t *BCSTable) Range(visit func(key string, b *BCS)) {
	for key, b := range t.cells {
		visit(key, b)
	}
}

// Load inserts a base cell under key with the given summary, verbatim
// — the snapshot-restore primitive. The key must be one byte per
// dimension; a populated key is a corrupt-snapshot condition.
func (t *BCSTable) Load(key string, b *BCS) error {
	if len(key) != t.dims {
		return fmt.Errorf("core: base-cell key of %d bytes in a %d-dimensional table", len(key), t.dims)
	}
	if _, ok := t.cells[key]; ok {
		return fmt.Errorf("core: duplicate base-cell key %q", key)
	}
	t.cells[key] = b
	return nil
}

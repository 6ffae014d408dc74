package core

import "testing"

// TestPCSTableSweepEvicts checks the swap-remove sweep: decayed cells
// below ε vanish, survivors keep their summaries, and the key index
// stays consistent after compaction.
func TestPCSTableSweepEvicts(t *testing.T) {
	decay := NewDecayTable(0.01)
	tbl := NewPCSTable()
	// Three cells touched at tick 1, one kept warm at tick 5000.
	for _, key := range []uint64{10, 20, 30} {
		tbl.Get(key, 1).Touch(decay, 1, 0.5)
	}
	tbl.Get(20, 1).Touch(decay, 5000, 0.5)

	visited := map[uint64]float64{}
	evicted := tbl.Sweep(decay, 5000, 1e-4, func(key uint64, dc float64) {
		visited[key] = dc
	})
	if evicted != 2 {
		t.Fatalf("evicted %d cells, want 2", evicted)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after sweep, want 1", tbl.Len())
	}
	if _, ok := visited[20]; !ok || len(visited) != 1 {
		t.Fatalf("survivors = %v, want only key 20", visited)
	}
	// The survivor must still be reachable through the index.
	p := tbl.Get(20, 5000)
	if p.Dc < 1 {
		t.Fatalf("survivor summary lost: Dc = %g", p.Dc)
	}
}

// TestPCSTableSweepCompaction stresses swap-remove with interleaved
// dead/live cells so the swapped-in cell at each eviction slot is
// itself inspected.
func TestPCSTableSweepCompaction(t *testing.T) {
	decay := NewDecayTable(0.01)
	tbl := NewPCSTable()
	const n = 100
	for i := uint64(0); i < n; i++ {
		tick := uint64(1)
		if i%3 == 0 {
			tick = 4000 // every third cell stays warm
		}
		tbl.Get(i, tick).Touch(decay, tick, 1)
	}
	live := 0
	tbl.Sweep(decay, 4000, 1e-4, func(key uint64, dc float64) {
		if key%3 != 0 {
			t.Fatalf("cold cell %d survived the sweep", key)
		}
		live++
	})
	if want := (n + 2) / 3; live != want || tbl.Len() != want {
		t.Fatalf("live = %d, Len = %d, want %d", live, tbl.Len(), want)
	}
	for i := uint64(0); i < n; i += 3 {
		if p := tbl.Get(i, 4000); p.Dc == 0 {
			t.Fatalf("warm cell %d lost its summary after compaction", i)
		}
	}
}

// TestBCSTableSweep checks base-cell eviction and that survivors are
// reported with a usable copy of their interval-index coordinates.
func TestBCSTableSweep(t *testing.T) {
	decay := NewDecayTable(0.01)
	tbl := NewBCSTable(3)
	tbl.Touch(decay, 1, []uint8{1, 2, 3}, []float64{0.1, 0.2, 0.3})
	tbl.Touch(decay, 4000, []uint8{4, 5, 6}, []float64{0.4, 0.5, 0.6})
	var got string
	evicted := tbl.Sweep(decay, 4000, 1e-4, func(key string, dc float64) {
		got = key
		if dc < 0.9 {
			t.Fatalf("warm cell reported with dc = %g", dc)
		}
	})
	if evicted != 1 || tbl.Len() != 1 {
		t.Fatalf("evicted = %d, Len = %d, want 1 and 1", evicted, tbl.Len())
	}
	if got != string([]uint8{4, 5, 6}) {
		t.Fatalf("survivor coords = %v, want [4 5 6]", []byte(got))
	}
}

package core

import (
	"math/rand"
	"testing"
)

// TestPCSTableOracleProperty drives the open-addressed PCSTable and the
// map-backed MapPCSTable oracle through identical randomized operation
// sequences — interleaved Get (hit and miss), Touch, Sweep and EvictIf
// — and requires identical observable state after every operation:
// same length, same eviction counts, same surviving key/summary sets.
// Key-space skew keeps churn heavy (cells are re-created after
// eviction), and the insert volume forces several bucket-array
// doublings so lookups and deletions land mid-incremental-rehash.
func TestPCSTableOracleProperty(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		decay := NewDecayTable([]float64{0.005, 0.02, 0.08}[trial%3])
		oa := NewPCSTable()
		oracle := NewMapPCSTable()

		// Keys mimic real cell keys: a handful of subspace IDs over a
		// bounded coordinate range, so sweeps and EvictIf hit real
		// subsets rather than singletons.
		randKey := func() uint64 {
			id := uint32(rng.Intn(300))
			coords := []uint8{uint8(rng.Intn(8)), uint8(rng.Intn(8)), uint8(rng.Intn(4))}
			return EncodeCell(id, coords)
		}

		tick := uint64(1)
		ops := 6000 + rng.Intn(4000)
		for op := 0; op < ops; op++ {
			tick += uint64(rng.Intn(5))
			switch r := rng.Intn(100); {
			case r < 80: // touch a cell, creating it if absent
				key := randKey()
				m := rng.Float64()
				a := oa.Get(key, tick)
				b := oracle.Get(key, tick)
				if a.Dc != b.Dc || a.Last != b.Last {
					t.Fatalf("trial %d op %d: Get(%#x) diverged: %+v vs oracle %+v", trial, op, key, *a, *b)
				}
				a.Touch(decay, tick, m)
				b.Touch(decay, tick, m)
			case r < 90: // epoch sweep with a churn-inducing jump
				tick += uint64(rng.Intn(800))
				eps := []float64{0, 1e-6, 1e-3, 0.5}[rng.Intn(4)]
				got := map[uint64]float64{}
				want := map[uint64]float64{}
				ea := oa.Sweep(decay, tick, eps, func(key uint64, dc float64) { got[key] = dc })
				eb := oracle.Sweep(decay, tick, eps, func(key uint64, dc float64) { want[key] = dc })
				if ea != eb {
					t.Fatalf("trial %d op %d: Sweep evicted %d vs oracle %d", trial, op, ea, eb)
				}
				compareSurvivors(t, trial, op, "Sweep", got, want)
			default: // purge one subspace, as a demotion would
				id := uint32(rng.Intn(300))
				pred := func(key uint64) bool { return uint32(key>>SubspaceShift) == id }
				if ea, eb := oa.EvictIf(pred), oracle.EvictIf(pred); ea != eb {
					t.Fatalf("trial %d op %d: EvictIf evicted %d vs oracle %d", trial, op, ea, eb)
				}
			}
			if oa.Len() != oracle.Len() {
				t.Fatalf("trial %d op %d: Len %d vs oracle %d", trial, op, oa.Len(), oracle.Len())
			}
		}

		// Final deep comparison: every oracle cell reachable in the
		// open-addressed table with an identical summary, via both the
		// dense scan and the index.
		got := map[uint64]PCS{}
		for i := 0; i < oa.Len(); i++ {
			k, p := oa.At(i)
			got[k] = *p
		}
		for i := 0; i < oracle.Len(); i++ {
			k, p := oracle.At(i)
			g, ok := got[k]
			if !ok {
				t.Fatalf("trial %d: key %#x missing from open-addressed table", trial, k)
			}
			if g != *p {
				t.Fatalf("trial %d: summary for %#x diverged: %+v vs oracle %+v", trial, k, g, *p)
			}
			if q := oa.Get(k, tick); *q != *p {
				t.Fatalf("trial %d: index lookup for %#x diverged: %+v vs oracle %+v", trial, k, *q, *p)
			}
		}
	}
}

// compareSurvivors fails the test when two sweep survivor sets differ.
func compareSurvivors(t *testing.T, trial, op int, what string, got, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d op %d: %s survivors %d vs oracle %d", trial, op, what, len(got), len(want))
	}
	for k, dc := range want {
		if g, ok := got[k]; !ok || g != dc {
			t.Fatalf("trial %d op %d: %s survivor %#x = %g vs oracle %g (present=%v)", trial, op, what, k, g, dc, ok)
		}
	}
}

// TestPCSTableGrowthChurn fills a table far past several doublings,
// evicts almost everything, and verifies the survivors stay reachable —
// the exact pattern of a drifting stream between epoch sweeps.
func TestPCSTableGrowthChurn(t *testing.T) {
	decay := NewDecayTable(0.01)
	tbl := NewPCSTable()
	const n = 50000
	for i := uint64(0); i < n; i++ {
		tick := uint64(1)
		if i%97 == 0 {
			tick = 100000 // sparse warm subset survives the sweep below
		}
		tbl.Get(i, tick).Touch(decay, tick, 1)
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d after inserts, want %d", tbl.Len(), n)
	}
	evicted := tbl.Sweep(decay, 100000, 1e-4, nil)
	want := 0
	for i := uint64(0); i < n; i++ {
		if i%97 != 0 {
			want++
		}
	}
	if evicted != want {
		t.Fatalf("evicted %d, want %d", evicted, want)
	}
	for i := uint64(0); i < n; i += 97 {
		if p := tbl.Get(i, 100000); p.Dc < 1 {
			t.Fatalf("warm cell %d lost after churn: Dc=%g", i, p.Dc)
		}
	}
	// Refill after heavy eviction: reused dense slots must index cleanly.
	for i := uint64(0); i < 1000; i++ {
		tbl.Get(i, 100001).Touch(decay, 100001, 1)
	}
	survivors := (n + 96) / 97 // i%97==0 over [0,n)
	overlap := (1000-1)/97 + 1 // refilled keys that had survived
	if wantLen := survivors + 1000 - overlap; tbl.Len() != wantLen {
		t.Fatalf("Len = %d after refill, want %d", tbl.Len(), wantLen)
	}
	for i := uint64(0); i < 1000; i++ {
		if p := tbl.Get(i, 100001); p.Dc < 1 {
			t.Fatalf("refilled cell %d not reachable", i)
		}
	}
}

// MapPCSTable is the previous, Go-map-indexed projected-cell table,
// kept as the differential-testing oracle for PCSTable: same dense
// keys/cells layout and identical Get/At/Sweep/EvictIf semantics, with
// the index maintenance delegated to a map[uint64]uint32. The
// randomized table property test drives both implementations through
// interleaved operation sequences and requires identical observable
// state; the microbenchmarks use it as the perf reference the
// open-addressed index is measured against.
type MapPCSTable struct {
	index map[uint64]uint32
	keys  []uint64
	cells []PCS
}

// NewMapPCSTable returns an empty map-indexed oracle table.
func NewMapPCSTable() *MapPCSTable {
	return &MapPCSTable{index: make(map[uint64]uint32)}
}

// Len returns the number of populated cells in the table.
func (t *MapPCSTable) Len() int { return len(t.cells) }

// Get returns the summary for the cell key, creating an empty summary
// stamped at tick if the cell was not yet populated; same contract as
// PCSTable.Get.
func (t *MapPCSTable) Get(key uint64, tick uint64) *PCS {
	if i, ok := t.index[key]; ok {
		return &t.cells[i]
	}
	i := uint32(len(t.cells))
	t.cells = append(t.cells, PCS{Last: tick})
	t.keys = append(t.keys, key)
	t.index[key] = i
	return &t.cells[i]
}

// At returns the key and summary at dense position i (0 ≤ i < Len).
func (t *MapPCSTable) At(i int) (uint64, *PCS) { return t.keys[i], &t.cells[i] }

// removeAt evicts the cell at dense position i by swap-remove.
func (t *MapPCSTable) removeAt(i int) {
	last := len(t.cells) - 1
	delete(t.index, t.keys[i])
	if i != last {
		t.cells[i] = t.cells[last]
		t.keys[i] = t.keys[last]
		t.index[t.keys[i]] = uint32(i)
	}
	t.cells = t.cells[:last]
	t.keys = t.keys[:last]
}

// Sweep visits every cell once, evicting below-eps cells; same contract
// as PCSTable.Sweep.
func (t *MapPCSTable) Sweep(d *DecayTable, tick uint64, eps float64, visit func(key uint64, dc float64)) int {
	evicted := 0
	for i := 0; i < len(t.cells); {
		dc := t.cells[i].DcAt(d, tick)
		if dc < eps {
			t.removeAt(i)
			evicted++
			continue
		}
		if visit != nil {
			visit(t.keys[i], dc)
		}
		i++
	}
	return evicted
}

// EvictIf removes every cell whose key matches pred; same contract as
// PCSTable.EvictIf.
func (t *MapPCSTable) EvictIf(pred func(key uint64) bool) int {
	evicted := 0
	for i := 0; i < len(t.cells); {
		if !pred(t.keys[i]) {
			i++
			continue
		}
		t.removeAt(i)
		evicted++
	}
	return evicted
}

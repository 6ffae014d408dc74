package core

import (
	"math/rand"
	"testing"
)

// benchKeys builds a realistic working set: n cell keys spread over a
// few hundred subspaces, visited in shuffled order so the benchmark
// pays real cache misses rather than streaming the dense slices.
func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = EncodeCell(uint32(i%1350), []uint8{uint8(i / 1350 % 8), uint8(i / 10800 % 8), uint8(rng.Intn(8))})
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// benchTableSize matches the d=20 BenchmarkDetector working set (~28k
// cells).
const benchTableSize = 28000

// BenchmarkPCSTableGet measures a hot-path hit on the open-addressed
// table: the one operation every point pays once per SST subspace.
func BenchmarkPCSTableGet(b *testing.B) {
	keys := benchKeys(benchTableSize)
	tbl := NewPCSTable()
	for _, k := range keys {
		tbl.Get(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(keys[i%len(keys)], 1)
	}
}

// BenchmarkMapPCSTableGet is the map-oracle reference for
// BenchmarkPCSTableGet.
func BenchmarkMapPCSTableGet(b *testing.B) {
	keys := benchKeys(benchTableSize)
	tbl := NewMapPCSTable()
	for _, k := range keys {
		tbl.Get(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(keys[i%len(keys)], 1)
	}
}

// BenchmarkPCSTableTouch measures the full cell update a point pays per
// subspace: index hit plus decayed-summary fold.
func BenchmarkPCSTableTouch(b *testing.B) {
	keys := benchKeys(benchTableSize)
	decay := NewDecayTable(0.002)
	tbl := NewPCSTable()
	for _, k := range keys {
		tbl.Get(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(keys[i%len(keys)], 1).Touch(decay, uint64(i)+1, 0.5)
	}
}

// BenchmarkMapPCSTableTouch is the map-oracle reference for
// BenchmarkPCSTableTouch.
func BenchmarkMapPCSTableTouch(b *testing.B) {
	keys := benchKeys(benchTableSize)
	decay := NewDecayTable(0.002)
	tbl := NewMapPCSTable()
	for _, k := range keys {
		tbl.Get(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(keys[i%len(keys)], 1).Touch(decay, uint64(i)+1, 0.5)
	}
}

// BenchmarkPCSTableInsertEvict measures the churn cycle of a drifting
// stream: fill a table and sweep-evict everything, repeatedly, paying
// growth, incremental rehash and backward-shift deletion.
func BenchmarkPCSTableInsertEvict(b *testing.B) {
	keys := benchKeys(benchTableSize / 4)
	decay := NewDecayTable(0.01)
	tbl := NewPCSTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		tbl.Get(k, uint64(i)+1).Touch(decay, uint64(i)+1, 0.5)
		if i%len(keys) == len(keys)-1 {
			tbl.Sweep(decay, uint64(i)+100000, 1e-4, nil)
		}
	}
}

// BenchmarkPCSTableSweep measures the no-eviction epoch scan over the
// dense slices — the per-epoch pause floor.
func BenchmarkPCSTableSweep(b *testing.B) {
	keys := benchKeys(benchTableSize)
	decay := NewDecayTable(0.002)
	tbl := NewPCSTable()
	for i, k := range keys {
		tbl.Get(k, uint64(i)+1).Touch(decay, uint64(i)+1, 0.5)
	}
	tick := uint64(len(keys) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Sweep(decay, tick, 0, nil)
	}
}

// BenchmarkMapPCSTableSweep is the map-oracle reference for
// BenchmarkPCSTableSweep (the dense scan is shared; the difference is
// noise, tracked to keep the comparison honest).
func BenchmarkMapPCSTableSweep(b *testing.B) {
	keys := benchKeys(benchTableSize)
	decay := NewDecayTable(0.002)
	tbl := NewMapPCSTable()
	for i, k := range keys {
		tbl.Get(k, uint64(i)+1).Touch(decay, uint64(i)+1, 0.5)
	}
	tick := uint64(len(keys) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Sweep(decay, tick, 0, nil)
	}
}

// TestPCSTableGetZeroAllocs pins the steady-state contract the hot path
// depends on: Get on an existing cell performs zero heap allocations.
// make microbench runs this gate alongside the benchmarks.
func TestPCSTableGetZeroAllocs(t *testing.T) {
	keys := benchKeys(benchTableSize)
	decay := NewDecayTable(0.002)
	tbl := NewPCSTable()
	for _, k := range keys {
		tbl.Get(k, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		tbl.Get(keys[i%len(keys)], 1).Touch(decay, 1, 0.5)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get+Touch allocates %.1f times per op, want 0", allocs)
	}
}

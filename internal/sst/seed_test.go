package sst

import "testing"

// seedSnapshot builds a synthetic d-dimensional sweep snapshot whose
// mass sits in intervals 3/4 of every dimension, plus two near-empty
// cells deviating hard in exactly the truth pair of dimensions — the
// base-cell shape a planted correlated anomaly leaves behind.
func seedSnapshot(d, truthA, truthB int) *EpochStats {
	var cells []BaseCell
	for i := 0; i < 20; i++ {
		coords := make([]uint8, d)
		for dim := 0; dim < d; dim++ {
			coords[dim] = uint8(3 + (i+dim)%2)
		}
		cells = append(cells, BaseCell{Coords: coords, Dc: 10})
	}
	for i := 0; i < 2; i++ {
		coords := make([]uint8, d)
		for dim := 0; dim < d; dim++ {
			coords[dim] = 3
		}
		coords[truthA] = 7
		coords[truthB] = uint8(7 - i) // distinct cells, both far out in the truth dims
		cells = append(cells, BaseCell{Coords: coords, Dc: 0.05})
	}
	return &EpochStats{BaseCells: cells}
}

// TestSeedFromBaseConvergence pins the unsupervised guided-search win
// at high dimensionality: with d=64 and an Explore budget of 4 blind
// draws per epoch, C(64,2)=2016 candidate pairs make finding the
// planted truth pair a lottery — the blind evolver does not promote it
// within 12 epochs. SeedFromBase reads the same snapshot's sparsest
// base cells, whose deviating dimensions ARE the truth pair, and
// promotes it in epoch 1.
func TestSeedFromBaseConvergence(t *testing.T) {
	const d, truthA, truthB = 64, 11, 37

	run := func(seedFromBase, epochs int) int {
		tmpl, err := NewFixed(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewTopSparse(TopSparseConfig{
			Arity: 2, TopS: 64, Explore: 4, SparseRatio: 0.1, MinScore: 0.05,
			SeedFromBase: seedFromBase, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for ep := 1; ep <= epochs; ep++ {
			stats := seedSnapshot(d, truthA, truthB)
			// Every live subspace keeps showing sparse structure, so
			// nothing is demoted and the search only moves forward.
			stats.Subspaces = make([]SubspaceStats, tmpl.Count())
			for i := range stats.Subspaces {
				stats.Subspaces[i] = SubspaceStats{Populated: 1, TotalDc: 10, Sparse: 1}
			}
			out := ev.Evolve(tmpl, stats)
			if len(out.Demote) != 0 {
				t.Fatalf("epoch %d demoted %v on a stable snapshot", ep, out.Demote)
			}
			for _, dims := range out.Promote {
				if _, err := tmpl.Promote(dims); err != nil {
					t.Fatalf("epoch %d: promoting %v: %v", ep, dims, err)
				}
			}
			for _, dims := range out.Promote {
				if len(dims) == 2 && dims[0] == truthA && dims[1] == truthB {
					return ep
				}
			}
		}
		return -1
	}

	if ep := run(4, 1); ep != 1 {
		t.Fatalf("SeedFromBase evolver promoted the truth pair at epoch %d, want 1", ep)
	}
	if ep := run(0, 12); ep != -1 {
		t.Fatalf("blind evolver found the truth pair at epoch %d — seed no longer demonstrates the gap; pick another Seed", ep)
	}
}

package sst

import (
	"testing"
)

// TestPromoteDemoteLifecycle exercises the evolved group's slot
// machinery: promotion appends, demotion tombstones, re-promotion
// reuses the freed slot, and the fixed group is untouchable.
func TestPromoteDemoteLifecycle(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	fixed := tmpl.FixedCount()
	if fixed != 6 {
		t.Fatalf("FixedCount = %d, want 6", fixed)
	}

	id, err := tmpl.Promote([]uint16{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != fixed {
		t.Fatalf("first evolved ID = %d, want %d", id, fixed)
	}
	if got := tmpl.Dims(int(id)); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("Dims(%d) = %v, want [1 4]", id, got)
	}
	if tmpl.MaxDim() != 2 {
		t.Fatalf("MaxDim = %d after arity-2 promotion, want 2", tmpl.MaxDim())
	}
	if _, err := tmpl.Promote([]uint16{1, 4}); err == nil {
		t.Fatal("duplicate promotion accepted")
	}
	if _, err := tmpl.Promote([]uint16{3}); err == nil {
		t.Fatal("promotion duplicating a fixed subspace accepted")
	}
	if _, err := tmpl.Promote([]uint16{4, 1}); err == nil {
		t.Fatal("unsorted dimension set accepted")
	}
	if _, err := tmpl.Promote([]uint16{2, 9}); err == nil {
		t.Fatal("out-of-range dimension accepted")
	}

	if err := tmpl.Demote(0); err == nil {
		t.Fatal("fixed-group demotion accepted")
	}
	if err := tmpl.Demote(id); err != nil {
		t.Fatal(err)
	}
	if tmpl.Active(int(id)) {
		t.Fatal("demoted subspace still active")
	}
	if err := tmpl.Demote(id); err == nil {
		t.Fatal("double demotion accepted")
	}
	if tmpl.EvolvedCount() != 0 {
		t.Fatalf("EvolvedCount = %d after demotion, want 0", tmpl.EvolvedCount())
	}

	id2, err := tmpl.Promote([]uint16{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("re-promotion got ID %d, want reused slot %d", id2, id)
	}
	if got := tmpl.Dims(int(id2)); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("reused slot Dims = %v, want [0 2 5]", got)
	}
	if got, ok := tmpl.Contains([]uint16{0, 2, 5}); !ok || got != id2 {
		t.Fatalf("Contains([0 2 5]) = %d,%v, want %d,true", got, ok, id2)
	}
	if _, ok := tmpl.Contains([]uint16{1, 4}); ok {
		t.Fatal("demoted subspace still reported by Contains")
	}
	if tmpl.Count() != fixed+1 {
		t.Fatalf("Count = %d, want %d (slot reused, not appended)", tmpl.Count(), fixed+1)
	}
}

// TestTopSparsePromotesSparsePair plants a base-cell snapshot with two
// dense clusters plus a sparse cross-combination that only shows up in
// the {1,3} projection, and checks the evolver promotes exactly the
// pairs exhibiting that sparse structure.
func TestTopSparsePromotesSparsePair(t *testing.T) {
	tmpl, err := NewFixed(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewTopSparse(TopSparseConfig{Arity: 2, TopS: 1, Explore: 64, SparseRatio: 0.1, MinScore: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster A at interval 1 everywhere, cluster B at interval 6
	// everywhere, and a handful of outliers that take cluster A's
	// coordinates except dimension 3, borrowed from cluster B. Every
	// pair containing dim 3 projects those to a sparse (1,6)-style
	// combo; pairs without dim 3 see only the two dense cells.
	stats := &EpochStats{
		Tick: 100,
		BaseCells: []BaseCell{
			{Coords: []uint8{1, 1, 1, 1}, Dc: 50},
			{Coords: []uint8{6, 6, 6, 6}, Dc: 50},
			{Coords: []uint8{1, 1, 1, 6}, Dc: 1},
		},
		Subspaces: make([]SubspaceStats, tmpl.Count()),
	}
	out := ev.Evolve(tmpl, stats)
	if len(out.Demote) != 0 {
		t.Fatalf("nothing to demote, got %v", out.Demote)
	}
	if len(out.Promote) != 1 {
		t.Fatalf("promotions = %v, want exactly 1", out.Promote)
	}
	p := out.Promote[0]
	if len(p) != 2 || p[1] != 3 {
		t.Fatalf("promoted %v, want a pair containing dimension 3", p)
	}

	// Apply it and verify the follow-up epoch demotes once the swept
	// statistics show the subspace went stale.
	id, err := tmpl.Promote(p)
	if err != nil {
		t.Fatal(err)
	}
	stats2 := &EpochStats{
		Tick: 200,
		BaseCells: []BaseCell{
			{Coords: []uint8{1, 1, 1, 1}, Dc: 50},
			{Coords: []uint8{6, 6, 6, 6}, Dc: 50},
		},
		Subspaces: make([]SubspaceStats, tmpl.Count()),
	}
	// The promoted subspace's sparse combo cells were evicted; only the
	// two dense cells remain.
	stats2.Subspaces[id] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0}
	out2 := ev.Evolve(tmpl, stats2)
	if len(out2.Demote) != 1 || out2.Demote[0] != id {
		t.Fatalf("demotions = %v, want [%d]", out2.Demote, id)
	}
	if len(out2.Promote) != 0 {
		t.Fatalf("clean snapshot promoted %v, want nothing", out2.Promote)
	}
}

// TestTopSparseRespectsCapacity: with the evolver's OWN group full and
// healthy it proposes nothing even when candidates qualify, while
// foreign evolved subspaces — promoted by another evolver group or
// directly by the caller — neither consume its TopS budget nor get
// demoted by it, no matter how stale their swept statistics look.
func TestTopSparseRespectsCapacity(t *testing.T) {
	tmpl, err := NewFixed(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewTopSparse(TopSparseConfig{Arity: 2, TopS: 1, Explore: 64, SparseRatio: 0.1, MinScore: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	baseCells := []BaseCell{
		{Coords: []uint8{1, 1, 1, 1}, Dc: 50},
		{Coords: []uint8{6, 6, 6, 6}, Dc: 50},
		{Coords: []uint8{1, 1, 1, 6}, Dc: 1},
	}
	stats := &EpochStats{
		Tick:      100,
		BaseCells: baseCells,
		Subspaces: make([]SubspaceStats, tmpl.Count()),
	}
	out := ev.Evolve(tmpl, stats)
	if len(out.Promote) != 1 {
		t.Fatalf("promotions = %v, want exactly 1 to fill TopS", out.Promote)
	}
	own, err := tmpl.Promote(out.Promote[0])
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := tmpl.Promote([]uint16{0, 1}) // e.g. another group's member
	if err != nil {
		t.Fatal(err)
	}

	stats2 := &EpochStats{
		Tick:      200,
		BaseCells: baseCells,
		Subspaces: make([]SubspaceStats, tmpl.Count()),
	}
	stats2.Subspaces[own] = SubspaceStats{Populated: 3, TotalDc: 101, Sparse: 1}     // healthy own member
	stats2.Subspaces[foreign] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0} // stale, but foreign
	out2 := ev.Evolve(tmpl, stats2)
	if len(out2.Promote) != 0 || len(out2.Demote) != 0 {
		t.Fatalf("full healthy own group mutated the template: %+v", out2)
	}
	if !ev.Owns(out.Promote[0]) {
		t.Error("evolver does not own its own promotion")
	}
	if ev.Owns([]uint16{0, 1}) {
		t.Error("evolver claims ownership of a foreign subspace")
	}
}

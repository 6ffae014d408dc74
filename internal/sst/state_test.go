package sst

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// --- fixtures -------------------------------------------------------

// richStats builds an epoch snapshot whose base cells make pair
// subspaces look worth promoting: a dense cluster varying only in dims
// 0 and 1, plus two far-away low-density cells that project to sparse
// cells in every pair. Subspaces are reported healthy (sparse fraction
// 0.5) so owned members survive the demotion pass.
func richStats(d, subspaces int) *EpochStats {
	st := &EpochStats{Tick: 64, Subspaces: make([]SubspaceStats, subspaces)}
	for i := range st.Subspaces {
		st.Subspaces[i] = SubspaceStats{Populated: 4, TotalDc: 8, Sparse: 2}
	}
	for k := 0; k < 8; k++ {
		coords := make([]uint8, d)
		coords[0] = uint8(k % 2)
		coords[1] = uint8(k / 2 % 2)
		st.BaseCells = append(st.BaseCells, BaseCell{Coords: coords, Dc: 10})
	}
	for k := 0; k < 2; k++ {
		coords := make([]uint8, d)
		for i := range coords {
			coords[i] = uint8(6 + k)
		}
		st.BaseCells = append(st.BaseCells, BaseCell{Coords: coords, Dc: 0.01})
	}
	return st
}

// poorStats reports every subspace empty, forcing the demotion pass to
// fire for all owned members, while keeping base cells so the promote
// search still runs (and draws from the RNG).
func poorStats(d, subspaces int) *EpochStats {
	st := richStats(d, subspaces)
	for i := range st.Subspaces {
		st.Subspaces[i] = SubspaceStats{}
	}
	return st
}

// apply replays an evolution onto a template the way the stream layer
// does: demotions first, then promotions.
func apply(t *testing.T, tmpl *Template, ev Evolution) {
	t.Helper()
	for _, id := range ev.Demote {
		if err := tmpl.Demote(id); err != nil {
			t.Fatalf("demote %d: %v", id, err)
		}
	}
	for _, dims := range ev.Promote {
		if _, err := tmpl.Promote(dims); err != nil {
			t.Fatalf("promote %v: %v", dims, err)
		}
	}
}

// cloneTemplate round-trips a template's evolved group through the
// serialization surface into a fresh fixed template.
func cloneTemplate(t *testing.T, src *Template, d, maxDim int) *Template {
	t.Helper()
	dst, err := NewFixed(d, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreEvolved(src.EvolvedSlots(), src.FreeSlots()); err != nil {
		t.Fatalf("RestoreEvolved: %v", err)
	}
	return dst
}

// sameTemplate asserts two templates agree slot by slot.
func sameTemplate(t *testing.T, a, b *Template) {
	t.Helper()
	if a.Count() != b.Count() || a.FixedCount() != b.FixedCount() {
		t.Fatalf("template shape: %d/%d vs %d/%d", a.Count(), a.FixedCount(), b.Count(), b.FixedCount())
	}
	for i := 0; i < a.Count(); i++ {
		if a.Active(i) != b.Active(i) {
			t.Fatalf("slot %d active %v vs %v", i, a.Active(i), b.Active(i))
		}
		if a.Active(i) && !reflect.DeepEqual(a.Dims(i), b.Dims(i)) {
			t.Fatalf("slot %d dims %v vs %v", i, a.Dims(i), b.Dims(i))
		}
	}
	if !reflect.DeepEqual(a.FreeSlots(), b.FreeSlots()) {
		t.Fatalf("free lists %v vs %v", a.FreeSlots(), b.FreeSlots())
	}
}

// --- countedSource --------------------------------------------------

func TestCountedSourceSkipTo(t *testing.T) {
	a := newCountedSource(7)
	ra := rand.New(a)
	for i := 0; i < 37; i++ {
		if i%3 == 0 {
			ra.Uint64()
		} else {
			ra.Int63()
		}
	}
	draws := a.draws
	if draws == 0 {
		t.Fatal("no draws counted")
	}

	b := newCountedSource(1) // wrong seed on purpose; Seed resets it
	b.Seed(7)
	b.skipTo(draws)
	if b.draws != draws {
		t.Fatalf("skipTo landed at %d draws, want %d", b.draws, draws)
	}
	for i := 0; i < 16; i++ {
		if av, bv := a.Int63(), b.Int63(); av != bv {
			t.Fatalf("draw %d diverged after skipTo: %d vs %d", i, av, bv)
		}
	}
}

// --- TopSparse ------------------------------------------------------

// TestTopSparseStateRoundTrip drives a sampling-mode TopSparse (so the
// RNG advances) through promote and demote epochs, checkpoints it,
// restores into a fresh evolver, and asserts byte-stable state plus an
// identical evolution sequence afterwards.
func TestTopSparseStateRoundTrip(t *testing.T) {
	const d, maxDim = 8, 1
	cfg := TopSparseConfig{Arity: 2, TopS: 4, Explore: 5, SparseRatio: 0.5, MinScore: 0.01, Seed: 99}
	evA, err := NewTopSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmplA, err := NewFixed(d, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	// C(8,2)=28 > Explore=5, so candidates are sampled — RNG state matters.
	epochs := []*EpochStats{richStats(d, 64), poorStats(d, 64), richStats(d, 64)}
	for _, st := range epochs {
		apply(t, tmplA, evA.Evolve(tmplA, st))
	}
	if len(evA.owned) == 0 {
		t.Fatal("fixture never promoted anything; the round trip would be vacuous")
	}
	if evA.src.draws == 0 {
		t.Fatal("fixture never drew from the RNG; the round trip would be vacuous")
	}

	state, err := evA.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := evA.MarshalState(); !bytes.Equal(state, again) {
		t.Fatal("MarshalState is not deterministic")
	}

	evB, err := NewTopSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := evB.UnmarshalState(state); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if re, _ := evB.MarshalState(); !bytes.Equal(state, re) {
		t.Fatal("restored state re-marshals differently")
	}
	if evB.src.draws != evA.src.draws {
		t.Fatalf("restored draw count %d, want %d", evB.src.draws, evA.src.draws)
	}
	for s := range evA.owned {
		if !evB.Owns(sigDims(s)) {
			t.Fatalf("restored evolver lost ownership of %v", sigDims(s))
		}
	}

	tmplB := cloneTemplate(t, tmplA, d, maxDim)
	sameTemplate(t, tmplA, tmplB)
	for i, st := range []*EpochStats{poorStats(d, 64), richStats(d, 64), richStats(d, 64)} {
		eva, evb := evA.Evolve(tmplA, st), evB.Evolve(tmplB, st)
		if !reflect.DeepEqual(eva, evb) {
			t.Fatalf("epoch %d after restore: %+v vs %+v", i, eva, evb)
		}
		apply(t, tmplA, eva)
		apply(t, tmplB, evb)
	}
	sameTemplate(t, tmplA, tmplB)
}

func TestTopSparseUnmarshalErrors(t *testing.T) {
	cfg := TopSparseConfig{Arity: 2, TopS: 2, Seed: 1}
	fresh := func() *TopSparse {
		e, err := NewTopSparse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	valid, err := fresh().MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh().UnmarshalState(valid); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad version", append([]byte{9}, valid[1:]...), "state version"},
		{"truncated", valid[:len(valid)-2], "truncated"},
		{"trailing", append(append([]byte(nil), valid...), 0), "trailing"},
		{"draw bound", func() []byte {
			var enc stateEnc
			enc.u8(evolverStateVersion)
			enc.u64(maxRestoreDraws + 1)
			enc.u32(0)
			return enc.b
		}(), "restore bound"},
		{"owned not increasing", func() []byte {
			var enc stateEnc
			enc.u8(evolverStateVersion)
			enc.u64(0)
			enc.u32(1)
			enc.dimSet([]uint16{5, 5})
			return enc.b
		}(), "not strictly increasing"},
		{"owned arity", func() []byte {
			var enc stateEnc
			enc.u8(evolverStateVersion)
			enc.u64(0)
			enc.u32(1)
			enc.dimSet([]uint16{0, 1, 2, 3, 4, 5})
			return enc.b
		}(), "arity"},
	}
	for _, tc := range cases {
		err := fresh().UnmarshalState(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// --- MOGA -----------------------------------------------------------

func mogaConfig() MOGAConfig {
	return MOGAConfig{MinArity: 2, MaxArity: 2, PopSize: 4, Generations: 1, TopS: 2, Seed: 5}
}

// mogaStats adds labeled examples so the genetic search actually runs.
func mogaRichStats(d, subspaces int) *EpochStats {
	st := richStats(d, subspaces)
	for k := 0; k < 3; k++ {
		coords := make([]uint8, d)
		for i := range coords {
			coords[i] = uint8(6 + k%2)
		}
		st.Examples = append(st.Examples, Example{Coords: coords, Tick: uint64(10 + k)})
	}
	return st
}

func TestMOGAStateRoundTripUninitialized(t *testing.T) {
	evA, err := NewMOGA(mogaConfig())
	if err != nil {
		t.Fatal(err)
	}
	state, err := evA.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	evB, err := NewMOGA(mogaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := evB.UnmarshalState(state); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if re, _ := evB.MarshalState(); !bytes.Equal(state, re) {
		t.Fatal("uninitialized state re-marshals differently")
	}
}

func TestMOGAStateRoundTripInitialized(t *testing.T) {
	const d, maxDim = 6, 1
	evA, err := NewMOGA(mogaConfig())
	if err != nil {
		t.Fatal(err)
	}
	tmplA, err := NewFixed(d, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	st := mogaRichStats(d, 32)
	apply(t, tmplA, evA.Evolve(tmplA, st))
	if evA.d == 0 {
		t.Fatal("fixture never initialized the MOGA lattice")
	}

	state, err := evA.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	evB, err := NewMOGA(mogaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := evB.UnmarshalState(state); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if re, _ := evB.MarshalState(); !bytes.Equal(state, re) {
		t.Fatal("restored state re-marshals differently")
	}

	tmplB := cloneTemplate(t, tmplA, d, maxDim)
	for i := 0; i < 2; i++ {
		eva, evb := evA.Evolve(tmplA, st), evB.Evolve(tmplB, st)
		if !reflect.DeepEqual(eva, evb) {
			t.Fatalf("epoch %d after restore: %+v vs %+v", i, eva, evb)
		}
		apply(t, tmplA, eva)
		apply(t, tmplB, evb)
	}
	sameTemplate(t, tmplA, tmplB)
}

func TestMOGAUnmarshalErrors(t *testing.T) {
	// Hand-built payloads: version 1, draws, d, maxArity, owned, pop.
	build := func(draws uint64, d, maxArity uint32, pop [][]uint16) []byte {
		var enc stateEnc
		enc.u8(evolverStateVersion)
		enc.u64(draws)
		enc.u32(d)
		enc.u32(maxArity)
		enc.u32(0)
		enc.u32(uint32(len(pop)))
		for _, g := range pop {
			enc.dimSet(g)
		}
		return enc.b
	}
	pop4 := [][]uint16{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad version", append([]byte{3}, build(0, 0, 0, nil)[1:]...), "state version"},
		{"draw bound", build(maxRestoreDraws+1, 0, 0, nil), "restore bound"},
		{"pop before init", build(0, 0, 0, [][]uint16{{0, 1}}), "before initialization"},
		{"maxArity vs config", build(0, 6, 5, pop4), "inconsistent with config"},
		{"pop size vs config", build(0, 6, 2, pop4[:3]), "config says"},
		{"genome arity", build(0, 6, 2, [][]uint16{{0, 1}, {1, 2}, {2, 3}, {1, 2, 3}}), "arity"},
		{"genome out of range", build(0, 6, 2, [][]uint16{{0, 1}, {1, 2}, {2, 3}, {3, 9}}), "invalid over"},
		{"genome not increasing", build(0, 6, 2, [][]uint16{{0, 1}, {1, 2}, {2, 3}, {4, 4}}), "invalid over"},
		{"truncated", build(0, 6, 2, pop4)[:9], "truncated"},
	}
	for _, tc := range cases {
		m, err := NewMOGA(mogaConfig())
		if err != nil {
			t.Fatal(err)
		}
		err = m.UnmarshalState(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// --- Multi ----------------------------------------------------------

// statelessEv is an Evolver with no checkpointable state.
type statelessEv struct{}

func (statelessEv) Evolve(*Template, *EpochStats) Evolution { return Evolution{} }

func TestMultiStateRoundTrip(t *testing.T) {
	cfg := TopSparseConfig{Arity: 2, TopS: 4, Explore: 5, SparseRatio: 0.5, MinScore: 0.01, Seed: 17}
	tsA, err := NewTopSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewFixed(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	apply(t, tmpl, Multi{tsA, statelessEv{}}.Evolve(tmpl, richStats(8, 64)))

	state, err := Multi{tsA, statelessEv{}}.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	tsB, err := NewTopSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Multi{tsB, statelessEv{}}).UnmarshalState(state); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	re, err := Multi{tsB, statelessEv{}}.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, re) {
		t.Fatal("restored Multi state re-marshals differently")
	}
	if tsB.src.draws != tsA.src.draws {
		t.Fatalf("sub-evolver draw count %d, want %d", tsB.src.draws, tsA.src.draws)
	}
}

func TestMultiUnmarshalCompositionMismatch(t *testing.T) {
	cfg := TopSparseConfig{Arity: 2, TopS: 2, Seed: 1}
	ts := func() *TopSparse {
		e, err := NewTopSparse(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	state, err := Multi{ts(), statelessEv{}}.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Flag order (stateless, stateful) — for the mismatch where a
	// stateful member meets a stateless slot.
	flipped, err := Multi{statelessEv{}, ts()}.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		m    Multi
		data []byte
		want string
	}{
		{"wrong count", Multi{ts()}, state, "this combinator has"},
		{"stateless gets state", Multi{statelessEv{}, statelessEv{}}, state, "is stateless but"},
		{"stateful gets none", Multi{ts(), ts()}, flipped, "is stateful but"},
		{"bad version", Multi{ts(), statelessEv{}}, append([]byte{8}, state[1:]...), "state version"},
		{"bad flag", Multi{ts(), statelessEv{}}, func() []byte {
			var enc stateEnc
			enc.u8(evolverStateVersion)
			enc.u32(2)
			enc.u8(2) // flag must be 0 or 1
			enc.u8(0)
			return enc.b
		}(), "invalid state flag"},
		{"truncated payload", Multi{ts(), statelessEv{}}, state[:len(state)-3], "truncated"},
	}
	for _, tc := range cases {
		err := tc.m.UnmarshalState(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// --- Template slots -------------------------------------------------

func TestTemplateEvolvedSlotsRoundTrip(t *testing.T) {
	const d, maxDim = 6, 1
	tmpl, err := NewFixed(d, maxDim)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, 3)
	for _, dims := range [][]uint16{{0, 1}, {2, 3}, {1, 4}} {
		id, err := tmpl.Promote(dims)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tmpl.Demote(ids[1]); err != nil {
		t.Fatal(err)
	}

	slots, free := tmpl.EvolvedSlots(), tmpl.FreeSlots()
	if len(slots) != 3 || len(free) != 1 || free[0] != ids[1] {
		t.Fatalf("slots %v free %v", slots, free)
	}
	if slots[1].Active || len(slots[1].Dims) != 0 {
		t.Fatalf("tombstone not empty: %+v", slots[1])
	}

	restored := cloneTemplate(t, tmpl, d, maxDim)
	sameTemplate(t, tmpl, restored)

	// Slot reuse stays identical: the next promotion lands in the same
	// tombstone on both templates.
	idA, err := tmpl.Promote([]uint16{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := restored.Promote([]uint16{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB || idA != ids[1] {
		t.Fatalf("slot reuse diverged: %d vs %d (want %d)", idA, idB, ids[1])
	}
}

func TestTemplateRestoreEvolvedValidation(t *testing.T) {
	const d, maxDim = 6, 1
	fresh := func() *Template {
		tmpl, err := NewFixed(d, maxDim)
		if err != nil {
			t.Fatal(err)
		}
		return tmpl
	}
	active := func(dims ...uint16) EvolvedSlot { return EvolvedSlot{Dims: dims, Active: true} }
	tomb := EvolvedSlot{}
	fixedCount := fresh().FixedCount()

	cases := []struct {
		name  string
		slots []EvolvedSlot
		free  []uint32
		want  string
	}{
		{"tombstone with dims", []EvolvedSlot{{Dims: []uint16{0, 1}}}, []uint32{uint32(fixedCount)}, "carries dimensions"},
		{"zero arity", []EvolvedSlot{{Active: true}}, nil, "arity"},
		{"arity too high", []EvolvedSlot{active(0, 1, 2, 3, 4, 5)}, nil, "arity"},
		{"dim out of range", []EvolvedSlot{active(0, uint16(d))}, nil, "out of range"},
		{"not increasing", []EvolvedSlot{active(3, 3)}, nil, "not strictly increasing"},
		{"duplicate slot", []EvolvedSlot{active(0, 1), active(0, 1)}, nil, "duplicates"},
		{"duplicate of fixed", []EvolvedSlot{active(2)}, nil, "duplicates"},
		{"free count mismatch", []EvolvedSlot{active(0, 1)}, []uint32{uint32(fixedCount)}, "free list"},
		{"free points at live slot", []EvolvedSlot{active(0, 1), tomb}, []uint32{uint32(fixedCount)}, "not a distinct tombstoned"},
		{"free duplicate", []EvolvedSlot{tomb, tomb}, []uint32{uint32(fixedCount), uint32(fixedCount)}, "not a distinct tombstoned"},
	}
	for _, tc := range cases {
		err := fresh().RestoreEvolved(tc.slots, tc.free)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Restoring onto a template that already grew an evolved group is
	// rejected outright.
	dirty := fresh()
	if _, err := dirty.Promote([]uint16{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := dirty.RestoreEvolved(nil, nil); err == nil || !strings.Contains(err.Error(), "evolved slots") {
		t.Fatalf("dirty restore: %v", err)
	}
}

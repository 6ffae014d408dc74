package stream

import (
	"testing"

	"spot/internal/bench"
	"spot/internal/sst"
)

// TestEvictionBoundsMemoryUnderDrift is the memory-bound regression
// test: on a jump-drifting stream (cluster centers relocate every 1000
// points, abandoning their old cells forever) the summary tables of an
// epoch-sweeping detector plateau — the base-cell table included, which
// exists when an evolver reads it — while a sweep-free detector grows
// without bound. A detector without an evolver keeps no base cells at
// all.
func TestEvictionBoundsMemoryUnderDrift(t *testing.T) {
	const (
		d     = 8
		n     = 24000
		mid   = 12000
		drift = 1000
	)
	mkCfg := func(epoch uint64, evolve bool) Config {
		cfg := DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = 2
		cfg.Lambda = 0.01
		cfg.Warmup = 50
		cfg.EpochTicks = epoch
		cfg.EvictEpsilon = 1e-4
		if epoch == 0 {
			cfg.RDPopulatedThreshold = 0 // requires sweeps
		}
		if evolve {
			ev, err := sst.NewTopSparse(sst.TopSparseConfig{Arity: 2, TopS: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Evolver = ev
		}
		return cfg
	}
	gcfg := bench.DefaultGenConfig(d)
	gcfg.DriftPeriod = drift

	run := func(cfg Config) (midStats, endStats Stats) {
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		gen := bench.NewGenerator(gcfg)
		buf := make([]float64, d)
		for i := 0; i < n; i++ {
			gen.Next(buf)
			det.Process(buf)
			if i+1 == mid {
				midStats = det.Stats()
			}
		}
		return midStats, det.Stats()
	}

	evictMid, evict := run(mkCfg(500, true))
	_, plain := run(mkCfg(500, false))
	_, grow := run(mkCfg(0, false))
	t.Logf("evicting: mid=%d end=%d (base cells %d → %d; evicted %d projected + %d base over %d sweeps); no evolver: %d base cells; no sweeps: %d projected",
		evictMid.SummaryEntries, evict.SummaryEntries, evictMid.BaseCells, evict.BaseCells,
		evict.EvictedProjected, evict.EvictedBase, evict.Sweeps, plain.BaseCells, grow.ProjectedCells)

	if evict.Sweeps == 0 || evict.EvictedProjected == 0 || evict.EvictedBase == 0 {
		t.Fatal("epoch engine never swept or never evicted from both tables — test exercises nothing")
	}
	// Plateau: the second half of the stream must not meaningfully grow
	// either table (steady state is reached once eviction latency <
	// stream age, a few drift generations in).
	if float64(evict.SummaryEntries) > 1.25*float64(evictMid.SummaryEntries) {
		t.Errorf("summary entries still growing under eviction: mid=%d end=%d", evictMid.SummaryEntries, evict.SummaryEntries)
	}
	if float64(evict.BaseCells) > 1.25*float64(evictMid.BaseCells) {
		t.Errorf("base cells still growing under eviction: mid=%d end=%d", evictMid.BaseCells, evict.BaseCells)
	}
	// Without an evolver nothing reads base cells, so none are kept.
	if plain.Sweeps == 0 || plain.BaseCells != 0 || plain.EvictedBase != 0 {
		t.Errorf("evolver-less detector: %d sweeps, %d base cells, %d evicted base; want sweeps and no base cells",
			plain.Sweeps, plain.BaseCells, plain.EvictedBase)
	}
	// Contrast: without sweeps the same stream accumulates every cell
	// ever touched.
	if grow.ProjectedCells < 2*evict.ProjectedCells {
		t.Errorf("sweep-free detector ended with %d projected cells, expected ≥ 2× the evicting detector's %d — drift too weak to matter",
			grow.ProjectedCells, evict.ProjectedCells)
	}
}

// evolveTestConfig is the shared setup of the SST-evolution tests: a
// 6-D stream with two tight clusters pinned to grid cells and "mix"
// outliers that borrow dimension 4 from the other cluster — dense in
// every 1-D marginal, anomalous only jointly, so a fixed group capped
// at arity 1 cannot see them until the evolver promotes a pair
// containing dimension 4.
func evolveTestConfig(t *testing.T, shards int) (Config, bench.GenConfig) {
	t.Helper()
	ev, err := sst.NewTopSparse(sst.TopSparseConfig{
		Arity:       2,
		TopS:        2,
		Explore:     64, // C(6,2)=15 → exhaustive, deterministic
		SparseRatio: 0.1,
		MinScore:    0.05,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6)
	cfg.MaxSubspaceDim = 1
	cfg.Shards = shards
	cfg.Lambda = 0.02
	cfg.Warmup = 30
	cfg.EpochTicks = 400
	cfg.EvictEpsilon = 1e-4
	cfg.RDPopulatedThreshold = 0.2
	cfg.Evolver = ev

	centerA := []float64{0.19, 0.19, 0.19, 0.19, 0.19, 0.19} // interval 1 at φ=8
	centerB := []float64{0.81, 0.81, 0.81, 0.81, 0.81, 0.81} // interval 6
	gcfg := bench.GenConfig{
		Dims:        6,
		Centers:     [][]float64{centerA, centerB},
		Sigma:       0.005,
		OutlierRate: 0.02,
		Mode:        bench.OutlierMix,
		MixDim:      4,
		Seed:        11,
	}
	return cfg, gcfg
}

// TestEvolutionPromotesAndDetects is the acceptance-criterion test:
// planted projected outliers living outside the fixed group are
// invisible at first, the first epoch sweep promotes subspaces pairing
// the mixed dimension, and from then on the outliers are caught — via
// the arity-aware RD test, since the uniform RD floor (φ²·(1-2^-λ) ≈
// 0.88 here) makes the classic test unusable at arity 2. A final
// outlier-free phase then starves the promoted subspaces until their
// sparse cells are evicted and the evolver demotes them.
func TestEvolutionPromotesAndDetects(t *testing.T) {
	cfg, gcfg := evolveTestConfig(t, 2)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(gcfg)
	buf := make([]float64, cfg.Dims)

	// Phase A — before the first epoch: no arity-2 subspace exists, so
	// mix outliers pass undetected.
	for i := 0; i < int(cfg.EpochTicks); i++ {
		isOut := gen.Next(buf)
		if det.Process(buf) && isOut {
			t.Fatalf("tick %d: mix outlier flagged before any evolution", i+1)
		}
	}
	if got := det.Stats().EvolvedActive; got != 2 {
		t.Fatalf("EvolvedActive = %d after first sweep, want 2", got)
	}
	evolved := det.Template().EvolvedIDs(nil)
	for _, id := range evolved {
		dims := det.Template().Dims(int(id))
		hasMix := false
		for _, dim := range dims {
			if dim == uint16(gcfg.MixDim) {
				hasMix = true
			}
		}
		if len(dims) != 2 || !hasMix {
			t.Fatalf("promoted subspace %d = %v, want a pair containing dimension %d", id, dims, gcfg.MixDim)
		}
	}

	// Phase B — after promotion, warmup (~60 ticks at λ=0.02) and the
	// second sweep (which first records arity-2 populated densities),
	// mix outliers must be caught.
	var planted, caught int
	for tick := int(cfg.EpochTicks); tick < 3000; tick++ {
		isOut := gen.Next(buf)
		flag := det.Process(buf)
		if tick < 2*int(cfg.EpochTicks)+100 {
			continue // promoted subspaces still warming up / unreferenced
		}
		if isOut {
			planted++
			if flag {
				caught++
			}
		}
	}
	if planted < 10 {
		t.Fatalf("only %d mix outliers planted in phase B — stream misconfigured", planted)
	}
	if recall := float64(caught) / float64(planted); recall < 0.9 {
		t.Errorf("post-evolution recall = %.3f (%d/%d), want ≥ 0.9", recall, caught, planted)
	}

	// Phase C — outliers stop; the mix cells decay below ε, get
	// evicted, and the evolver demotes the now-healthy subspaces.
	gcfg.OutlierRate = 0
	gcfg.Seed = 12
	quiet := bench.NewGenerator(gcfg)
	for i := 0; i < 2400; i++ {
		quiet.Next(buf)
		det.Process(buf)
	}
	s := det.Stats()
	if s.EvolvedActive != 0 {
		t.Errorf("EvolvedActive = %d after outlier-free phase, want 0 (stale subspaces demoted)", s.EvolvedActive)
	}
	if s.Promoted != 2 || s.Demoted != 2 {
		t.Errorf("lifetime promoted/demoted = %d/%d, want 2/2", s.Promoted, s.Demoted)
	}
	t.Logf("planted=%d caught=%d promoted=%d demoted=%d evictedProjected=%d",
		planted, caught, s.Promoted, s.Demoted, s.EvictedProjected)
}

// TestEvolutionShardInvariance: evolution decisions derive from
// globally merged sweep statistics, so verdicts — including which
// subspaces get promoted and when — must not depend on the shard
// count.
func TestEvolutionShardInvariance(t *testing.T) {
	const n = 1600
	var verdicts [][]bool
	var evolved [][]uint16
	for _, shards := range []int{1, 3} {
		cfg, gcfg := evolveTestConfig(t, shards)
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := bench.NewGenerator(gcfg)
		buf := make([]float64, cfg.Dims)
		v := make([]bool, n)
		for i := 0; i < n; i++ {
			gen.Next(buf)
			v[i] = det.Process(buf)
		}
		verdicts = append(verdicts, v)
		var dims []uint16
		for _, id := range det.Template().EvolvedIDs(nil) {
			dims = append(dims, det.Template().Dims(int(id))...)
		}
		evolved = append(evolved, dims)
		det.Close()
	}
	for i := range verdicts[0] {
		if verdicts[0][i] != verdicts[1][i] {
			t.Fatalf("verdict for point %d differs between shard counts", i)
		}
	}
	if len(evolved[0]) != len(evolved[1]) {
		t.Fatalf("evolved groups differ: %v vs %v", evolved[0], evolved[1])
	}
	for i := range evolved[0] {
		if evolved[0][i] != evolved[1][i] {
			t.Fatalf("evolved groups differ: %v vs %v", evolved[0], evolved[1])
		}
	}
}

// TestEpochBatchMatchesPointwise: a batch crossing several epoch
// boundaries is split internally so sweeps (and evolution) run at the
// same exact ticks as in pointwise mode; verdicts must be identical.
func TestEpochBatchMatchesPointwise(t *testing.T) {
	const n = 1500
	mk := func() (*Detector, bench.GenConfig) {
		cfg, gcfg := evolveTestConfig(t, 2)
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det, gcfg
	}
	det1, gcfg := mk()
	defer det1.Close()
	flat := make([]float64, n*6)
	labels := make([]bool, n)
	bench.NewGenerator(gcfg).Fill(flat, labels, n)

	want := make([]bool, n)
	for i := 0; i < n; i++ {
		want[i] = det1.Process(flat[i*6 : (i+1)*6])
	}

	det2, _ := mk()
	defer det2.Close()
	got := make([]bool, n)
	// 700-point batches straddle the 400-tick epoch boundary twice.
	for off := 0; off < n; {
		b := 700
		if off+b > n {
			b = n - off
		}
		det2.ProcessBatch(flat[off*6:(off+b)*6], got[off:off+b])
		off += b
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict for point %d: batch=%v pointwise=%v", i, got[i], want[i])
		}
	}
	if s1, s2 := det1.Stats(), det2.Stats(); s1.Sweeps != s2.Sweeps || s1.Promoted != s2.Promoted {
		t.Fatalf("epoch engine diverged: %+v vs %+v", s1, s2)
	}
}

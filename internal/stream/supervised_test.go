package stream

import (
	"errors"
	"math"
	"testing"

	"spot/internal/bench"
	"spot/internal/sst"
)

// supervisedTestConfig mirrors evolveTestConfig but drives the
// supervised MOGA group instead of the unsupervised TopSparse: the same
// 6-D two-cluster stream with "mix" outliers that borrow dimension 4
// from the other cluster, invisible to the arity-1 fixed group. Here
// the evolver gets no unsupervised signal at all — it only learns from
// the examples the test feeds back via MarkExample.
func supervisedTestConfig(t *testing.T, shards int) (Config, bench.GenConfig) {
	t.Helper()
	ev, err := sst.NewMOGA(sst.MOGAConfig{
		MinArity:    2,
		MaxArity:    2,
		PopSize:     16,
		Generations: 4,
		TopS:        2,
		SparseRatio: 0.1,
		MinCoverage: 0.6,
		MinSparsity: 0.5,
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

	gcfg := bench.GenConfig{
		Dims:        6,
		Centers:     [][]float64{{0.19, 0.19, 0.19, 0.19, 0.19, 0.19}, {0.81, 0.81, 0.81, 0.81, 0.81, 0.81}},
		Sigma:       0.005,
		OutlierRate: 0.02,
		Mode:        bench.OutlierMix,
		MixDim:      4,
		Seed:        11,
	}
	return cfg, gcfg
}

// TestSupervisedEvolutionLearnsFromExamples is the supervised
// counterpart of TestEvolutionPromotesAndDetects: mix outliers are
// invisible to the arity-1 fixed group, and the MOGA evolver — fed the
// planted outliers back as confirmed examples — must promote subspaces
// pairing the mixed dimension and catch subsequent outliers.
func TestSupervisedEvolutionLearnsFromExamples(t *testing.T) {
	cfg, gcfg := supervisedTestConfig(t, 2)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(gcfg)
	buf := make([]float64, cfg.Dims)

	// Phase A — before the first epoch the template is fixed-only; mark
	// every planted outlier as a confirmed example (the analyst's
	// feedback loop).
	marked := 0
	for i := 0; i < int(cfg.EpochTicks); i++ {
		isOut := gen.Next(buf)
		processPoint(t, det, buf)
		if isOut {
			det.MarkExample(buf)
			marked++
		}
	}
	if marked < 3 {
		t.Fatalf("only %d examples marked before the first sweep — stream misconfigured", marked)
	}
	if got := det.Stats().Examples; got != marked {
		t.Fatalf("Stats().Examples = %d, want %d", got, marked)
	}
	if got := det.Stats().EvolvedActive; got < 1 {
		t.Fatalf("EvolvedActive = %d after first sweep, want ≥ 1 supervised promotion", got)
	}
	for _, id := range det.Template().EvolvedIDs(nil) {
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

	// Phase B — keep the feedback loop running; after warmup and the
	// second sweep, mix outliers must be caught.
	var planted, caught int
	for tick := int(cfg.EpochTicks); tick < 3000; tick++ {
		isOut := gen.Next(buf)
		flag := processPoint(t, det, buf)
		if isOut {
			det.MarkExample(buf)
		}
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
		t.Errorf("supervised recall = %.3f (%d/%d), want ≥ 0.9", recall, caught, planted)
	}
	t.Logf("planted=%d caught=%d evolved=%d examples=%d",
		planted, caught, det.Stats().EvolvedActive, det.Stats().Examples)
}

// TestMarkExampleRetention pins the bounded-retention contract: the
// example set caps at MaxExamples (oldest dropped first) and the epoch
// sweep expires examples older than ExampleTTL. A malformed point or a
// closed detector returns a typed error and records nothing.
func TestMarkExampleRetention(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MaxSubspaceDim = 1
	cfg.EpochTicks = 100
	cfg.MaxExamples = 4
	cfg.ExampleTTL = 150
	ev, err := sst.NewMOGA(sst.MOGAConfig{TopS: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Evolver = ev
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	// Each rejected point is checked while the set is below its cap,
	// where a wrongly recorded example would show in the count.
	for _, tc := range []struct {
		name  string
		point []float64
		want  error
	}{
		{"empty", []float64{}, ErrBatchLength},
		{"short", []float64{0.5, 0.5, 0.5}, ErrBatchLength},
		{"long", []float64{0.5, 0.5, 0.5, 0.5, 0.5}, ErrBatchLength},
		{"nan", []float64{0.5, math.NaN(), 0.5, 0.5}, ErrNonFinite},
		{"+inf", []float64{0.5, 0.5, math.Inf(1), 0.5}, ErrNonFinite},
		{"-inf", []float64{0.5, 0.5, 0.5, math.Inf(-1)}, ErrNonFinite},
	} {
		if err := det.MarkExample(tc.point); !errors.Is(err, tc.want) {
			t.Errorf("%s point: MarkExample = %v, want %v", tc.name, err, tc.want)
		}
		if got := det.Stats().Examples; got != 0 {
			t.Fatalf("%s point: Stats().Examples = %d, want 0", tc.name, got)
		}
	}

	point := []float64{0.5, 0.5, 0.5, 0.5}
	for i := 0; i < 6; i++ {
		if err := det.MarkExample(point); err != nil {
			t.Fatal(err)
		}
	}
	if got := det.Stats().Examples; got != cfg.MaxExamples {
		t.Fatalf("Stats().Examples = %d after 6 marks, want cap %d", got, cfg.MaxExamples)
	}

	// Advance past the TTL: the epoch sweep at tick 200 must expire the
	// tick-0 examples (age 200 > 150).
	for i := 0; i < 200; i++ {
		processPoint(t, det, point)
	}
	if got := det.Stats().Examples; got != 0 {
		t.Fatalf("Stats().Examples = %d after TTL expiry, want 0", got)
	}

	// Fresh examples survive the next sweep (age below TTL).
	det.MarkExample(point)
	for i := 0; i < 100; i++ {
		processPoint(t, det, point)
	}
	if got := det.Stats().Examples; got != 1 {
		t.Fatalf("Stats().Examples = %d, want 1 fresh example retained", got)
	}

	det.Close()
	if err := det.MarkExample(point); !errors.Is(err, ErrClosed) {
		t.Errorf("MarkExample after Close = %v, want ErrClosed", err)
	}
	if got := det.Stats().Examples; got != 1 {
		t.Errorf("Stats().Examples = %d after a refused mark, want 1", got)
	}
}

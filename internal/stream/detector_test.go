package stream

import (
	"math/rand"
	"testing"

	"spot/internal/bench"
)

// smallBatchPlan cuts n points into random batch sizes under
// coalesceMinBatch, so every touch of a run fed by it takes the fused
// TouchCols path instead of the coalesced run fold.
func smallBatchPlan(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var plan []int
	for rem := n; rem > 0; {
		b := min(1+rng.Intn(coalesceMinBatch-1), rem)
		plan = append(plan, b)
		rem -= b
	}
	return plan
}

// TestDetectorFindsPlantedOutliers streams Gaussian clusters with
// planted projected outliers through the detector and checks that,
// after warmup, planted outliers are flagged and the false-positive
// rate on cluster points stays low.
func TestDetectorFindsPlantedOutliers(t *testing.T) {
	const (
		d      = 10
		n      = 6000
		warmup = 2000
	)
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 2
	cfg.Shards = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	gcfg := bench.DefaultGenConfig(d)
	gen := bench.NewGenerator(gcfg)
	buf := make([]float64, d)

	var planted, caught, inliers, falsePos int
	for i := 0; i < n; i++ {
		isOut := gen.Next(buf)
		flag := det.Process(buf)
		if i < warmup {
			continue
		}
		if isOut {
			planted++
			if flag {
				caught++
			}
		} else {
			inliers++
			if flag {
				falsePos++
			}
		}
	}
	if planted < 10 {
		t.Fatalf("generator planted only %d outliers, stream misconfigured", planted)
	}
	recall := float64(caught) / float64(planted)
	fpRate := float64(falsePos) / float64(inliers)
	t.Logf("planted=%d caught=%d recall=%.3f inliers=%d falsePos=%d fpRate=%.4f",
		planted, caught, recall, inliers, falsePos, fpRate)
	if recall < 0.9 {
		t.Errorf("recall = %.3f, want ≥ 0.9", recall)
	}
	if fpRate > 0.10 {
		t.Errorf("false-positive rate = %.4f, want ≤ 0.10", fpRate)
	}
}

// TestShardInvariance checks that verdicts do not depend on the shard
// count: the SST partition changes, the math does not.
func TestShardInvariance(t *testing.T) {
	const d, n = 8, 1500
	verdicts := make([][]bool, 0, 3)
	for _, shards := range []int{1, 3, 8} {
		cfg := DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = shards
		cfg.Warmup = 100
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := bench.NewGenerator(bench.DefaultGenConfig(d))
		buf := make([]float64, d)
		v := make([]bool, n)
		for i := 0; i < n; i++ {
			gen.Next(buf)
			v[i] = det.Process(buf)
		}
		det.Close()
		verdicts = append(verdicts, v)
	}
	for s := 1; s < len(verdicts); s++ {
		for i := range verdicts[0] {
			if verdicts[s][i] != verdicts[0][i] {
				t.Fatalf("verdict for point %d differs between shard configs", i)
			}
		}
	}
}

// TestBatchMatchesPointwise checks ProcessBatch produces exactly the
// verdicts of point-by-point Process on the same stream — in 256-point
// batches, which take the coalesced run fold, and in batches under
// coalesceMinBatch, which take the fused per-point path, pinning the
// three-way equivalence the coalesced fold argues for.
func TestBatchMatchesPointwise(t *testing.T) {
	const d, n, batch = 8, 2048, 256
	mk := func() *Detector {
		cfg := DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = 4
		cfg.Warmup = 100
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	flat := make([]float64, n*d)
	labels := make([]bool, n)
	gen.Fill(flat, labels, n)

	pointwise := mk()
	defer pointwise.Close()
	want := make([]bool, n)
	for i := 0; i < n; i++ {
		want[i] = pointwise.Process(flat[i*d : (i+1)*d])
	}

	var fixed []int
	for off := 0; off < n; off += batch {
		fixed = append(fixed, batch)
	}
	for _, leg := range []struct {
		name  string
		plan  []int
		fused bool
	}{{"coalesced", fixed, false}, {"fused", smallBatchPlan(n, 5), true}} {
		batched := mk()
		defer batched.Close()
		got := make([]bool, n)
		off := 0
		for _, b := range leg.plan {
			batched.ProcessBatch(flat[off*d:(off+b)*d], got[off:off+b])
			off += b
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("verdict for point %d (%s): batch=%v pointwise=%v", i, leg.name, got[i], want[i])
			}
		}
		if pointwise.Tick() != batched.Tick() {
			t.Fatalf("tick mismatch (%s): %d vs %d", leg.name, pointwise.Tick(), batched.Tick())
		}
		s := batched.Stats()
		if leg.fused && s.CoalesceGroupings != 0 {
			t.Fatalf("small-batch detector recorded %d grouping passes, want 0", s.CoalesceGroupings)
		}
		if !leg.fused && s.CoalesceGroupings == 0 {
			t.Fatal("coalescing detector recorded no grouping passes on a clustered stream")
		}
	}
}

// TestProcessZeroAllocs verifies the acceptance criterion: Process
// performs zero heap allocations per point once the point's cells
// exist.
func TestProcessZeroAllocs(t *testing.T) {
	const d = 12
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 3
	cfg.Shards = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	buf := make([]float64, d)
	for i := 0; i < 500; i++ {
		gen.Next(buf)
		det.Process(buf)
	}
	point := make([]float64, d)
	copy(point, buf)
	det.Process(point) // ensure every cell this point touches exists
	allocs := testing.AllocsPerRun(200, func() {
		det.Process(point)
	})
	if allocs != 0 {
		t.Errorf("Process allocates %.1f objects/point on the hot path, want 0", allocs)
	}
}

// TestWarmupSuppression: before the subspace summaries carry Warmup
// worth of decayed weight, nothing is flagged — not even blatant
// outliers.
func TestWarmupSuppression(t *testing.T) {
	const d = 5
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	buf := make([]float64, d)
	for i := 0; i < 50; i++ {
		gen.Next(buf)
		if det.Process(buf) {
			t.Fatalf("point %d flagged during warmup", i)
		}
	}
	outlier := []float64{0.99, 0.99, 0.99, 0.99, 0.99}
	if det.Process(outlier) {
		t.Fatal("outlier flagged during warmup")
	}
}

// TestIRSDFlagsDisplacedCell isolates the IRSD measure: with RD and
// IkRD disabled, a sparse cell whose magnitude sits far out in the
// subspace's distribution is still flagged.
func TestIRSDFlagsDisplacedCell(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxSubspaceDim = 1
	cfg.RDThreshold = 0 // disable: RD is never negative
	cfg.IkRDThreshold = 0
	cfg.IRSDThreshold = 0.12
	cfg.Warmup = 100
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	// A tight cluster near 0.5...
	for i := 0; i < 400; i++ {
		det.Process([]float64{0.5 + 0.01*float64(i%5-2)})
	}
	// ...then a point in a far, empty interval: z ≈ |0.95-0.5|/σ is
	// huge, IRSD ≈ 0.
	if !det.Process([]float64{0.95}) {
		t.Error("far displaced point not flagged by IRSD")
	}
	if det.Process([]float64{0.5}) {
		t.Error("cluster-center point flagged by IRSD")
	}
}

// TestIkRDFlagsFarCell isolates the IkRD measure: with RD and IRSD
// disabled, a cell at maximum grid distance from the representative
// (densest) cells is flagged, a neighbouring cell is not.
func TestIkRDFlagsFarCell(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxSubspaceDim = 1
	cfg.RDThreshold = 0
	cfg.IRSDThreshold = 0
	cfg.IkRDThreshold = 0.15
	cfg.Warmup = 100
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	// Dense mass in interval 0 (phi=8 over [0,1): x < 0.125).
	for i := 0; i < 400; i++ {
		det.Process([]float64{0.06})
	}
	// Interval 7: grid distance 7 of max 7 -> IkRD = 0 -> flagged.
	if !det.Process([]float64{0.99}) {
		t.Error("far cell not flagged by IkRD")
	}
	// Interval 1: distance 1 -> IkRD ≈ 0.857 -> not flagged.
	if det.Process([]float64{0.2}) {
		t.Error("adjacent cell flagged by IkRD")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 0, Lambda: 0.01, K: 3},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0, K: 3},
		{Dims: 5, Phi: 0, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 0},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3,
			Min: []float64{0}, Max: []float64{1}}, // bounds don't cover Dims
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3,
			Warmup: 200}, // unreachable: weight asymptotes at ~144.8 for this Lambda
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

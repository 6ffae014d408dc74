package stream

import (
	"math/rand"
	"testing"
)

// autoTestConfig is the shared fixture of the auto-thresholding tests:
// a uniform unit-box stream (every point an inlier) over a template
// small enough that a few epochs produce healthy measure censuses.
func autoTestConfig(risk float64) Config {
	cfg := DefaultConfig(6)
	cfg.MaxSubspaceDim = 2
	cfg.Lambda = 0.01
	cfg.Warmup = 50
	cfg.EpochTicks = 512
	cfg.AutoThreshold = AutoThreshold{Risk: risk}
	return cfg
}

func uniformStream(seed int64, d int) func(buf []float64) {
	rng := rand.New(rand.NewSource(seed))
	return func(buf []float64) {
		for i := range buf {
			buf[i] = rng.Float64()
		}
	}
}

func TestAutoThresholdValidation(t *testing.T) {
	base := func() Config { return autoTestConfig(0.01) }
	bad := []func(*Config){
		func(c *Config) { c.AutoThreshold.Risk = -0.01 },                 // negative risk
		func(c *Config) { c.AutoThreshold.Risk = 0.5 },                   // risk at bulk boundary
		func(c *Config) { c.AutoThreshold.Risk = 0.7 },                   // risk above bulk
		func(c *Config) { c.AutoThreshold = AutoThreshold{Level: 0.1} },  // level without risk
		func(c *Config) { c.AutoThreshold.Level = 0.5 },                  // level at bulk boundary
		func(c *Config) { c.AutoThreshold.Level = -0.1 },                 // negative level
		func(c *Config) { c.EpochTicks = 0; c.RDPopulatedThreshold = 0 }, // no epoch engine to calibrate in
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if det, err := New(cfg); err == nil {
			det.Close()
			t.Errorf("bad auto config %d accepted, want error", i)
		}
	}
	good := base()
	good.AutoThreshold.Level = 0.2
	det, err := New(good)
	if err != nil {
		t.Fatalf("valid auto config rejected: %v", err)
	}
	det.Close()
}

// TestAutoThresholdCalibrates: after a few epochs of a warm uniform
// stream, the sweep census has fitted calibrators and Stats exposes the
// calibration counters.
func TestAutoThresholdCalibrates(t *testing.T) {
	cfg := autoTestConfig(0.01)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(11, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 4*int(cfg.EpochTicks); i++ {
		next(buf)
		processPoint(t, det, buf)
	}
	st := det.Stats()
	if st.Calibrations == 0 {
		t.Error("no calibrations after 4 epochs of a warm stream")
	}
	if st.CalibrationSamples == 0 {
		t.Error("calibration consumed no census samples")
	}
	if st.CalibratedThresholds == 0 {
		t.Error("no calibrator holds a fitted threshold")
	}
	if st.AutoEffTrials < 1 || st.AutoEffTrials > 4096 {
		t.Errorf("AutoEffTrials %g outside controller bounds [1, 4096]", st.AutoEffTrials)
	}
}

// TestAutoThresholdOffStatsZero: with auto-thresholding disabled the
// calibration counters stay zero — the observability fields can't lie
// about a mode that isn't running.
func TestAutoThresholdOffStatsZero(t *testing.T) {
	cfg := autoTestConfig(0.01)
	cfg.AutoThreshold = AutoThreshold{}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(11, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 2*int(cfg.EpochTicks); i++ {
		next(buf)
		processPoint(t, det, buf)
	}
	st := det.Stats()
	if st.Calibrations != 0 || st.CalibrationSamples != 0 || st.CalibratedThresholds != 0 || st.AutoEffTrials != 0 {
		t.Errorf("auto-off stats not zero: %+v", st)
	}
}

// TestAutoThresholdFlaggedRateBand is the headline property of the
// feature: on a pure-inlier uniform stream, asking for per-point risk q
// yields a steady-state flagged rate within a small factor of q —
// without any hand-tuned thresholds. The stream and detector are fully
// deterministic, so this is a regression pin, not a statistical gamble.
func TestAutoThresholdFlaggedRateBand(t *testing.T) {
	const risk = 0.01
	cfg := autoTestConfig(risk)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(17, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	// Warm phase: summaries form, the sample windows flush their
	// warm-up contamination, and the controller converges its
	// effective-trials divisor.
	for i := 0; i < 40*int(cfg.EpochTicks); i++ {
		next(buf)
		processPoint(t, det, buf)
	}
	// Measure phase.
	const measure = 30720
	flags := 0
	for i := 0; i < measure; i++ {
		next(buf)
		if processPoint(t, det, buf) {
			flags++
		}
	}
	rate := float64(flags) / measure
	if rate < risk/3 || rate > risk*3 {
		t.Errorf("steady flagged rate %.4f outside [q/3, 3q] for q=%g (%d flags / %d points)",
			rate, risk, flags, measure)
	}
}

// TestAutoThresholdRefitsUnderDrift: an abrupt distribution shift (the
// uniform box collapses onto one half of every axis) must not wedge the
// calibrators — refits keep landing after the shift and the flagged
// rate over the post-shift steady window stays within the band. The
// d=20 legs are the calibration gate at deep risks: each measures the
// rate on both sides of the shift, over windows long enough (~50
// expected flags at q=1e-4) for a stable rate, after a warm phase that
// covers the controller's ~40-epoch convergence transient. They skip
// under -race, where they would take minutes.
func TestAutoThresholdRefitsUnderDrift(t *testing.T) {
	const epoch = 512
	for _, tc := range []struct {
		name   string
		dims   int
		risk   float64
		seed   int64
		batch  int // points per ingest call
		warm   int // points fed before each measure window
		steady int // points measured before the shift (0: none)
		drift  int // points measured after the shift
		long   bool
	}{
		{"d=6/q=1e-2", 6, 1e-2, 23, 1, 40 * epoch, 0, 30720, false},
		{"d=20/q=1e-3", 20, 1e-3, 71, epoch, 60 * epoch, 200 * epoch, 200 * epoch, true},
		{"d=20/q=1e-4", 20, 1e-4, 71, epoch, 60 * epoch, 1000 * epoch, 1000 * epoch, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && raceEnabled {
				t.Skip("long calibration run; CI runs it without -race")
			}
			cfg := autoTestConfig(tc.risk)
			cfg.Dims = tc.dims
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer det.Close()
			rng := rand.New(rand.NewSource(tc.seed))
			flat := make([]float64, tc.batch*tc.dims)
			out := make([]bool, tc.batch)
			// feed streams n points drawn from [0, scale)^d and returns
			// their flagged rate.
			feed := func(n int, scale float64) float64 {
				flags := 0
				for done := 0; done < n; done += tc.batch {
					for i := range flat {
						flat[i] = rng.Float64() * scale
					}
					if _, err := det.ProcessBatchScoredErr(flat, out, nil); err != nil {
						t.Fatal(err)
					}
					for _, f := range out {
						if f {
							flags++
						}
					}
				}
				return float64(flags) / float64(n)
			}
			inBand := func(window string, rate float64) {
				t.Logf("%s flagged rate %.3g", window, rate)
				if rate < tc.risk/3 || rate > tc.risk*3 {
					t.Errorf("%s flagged rate %.3g outside [q/3, 3q] for q=%g", window, rate, tc.risk)
				}
			}
			feed(tc.warm, 1)
			if tc.steady > 0 {
				inBand("steady", feed(tc.steady, 1))
			}
			calsBefore := det.Stats().Calibrations
			// Shift: all mass moves to [0, 0.5) on every axis. Let the
			// detector re-learn — the sample windows turn over in ~8
			// epochs and the controller re-converges — then measure.
			feed(tc.warm, 0.5)
			if calsAfter := det.Stats().Calibrations; calsAfter <= calsBefore {
				t.Errorf("no calibrations after drift: %d before, %d after", calsBefore, calsAfter)
			}
			inBand("post-drift", feed(tc.drift, 0.5))
		})
	}
}

// TestAutoThresholdShardAndBatchInvariance extends the engine's core
// invariant to auto mode: calibrated thresholds are fitted from a
// merged, sorted census on the dispatcher, so verdicts are identical
// across shard counts, batch vs pointwise ingestion, and both touch
// paths (300-point batches coalesce, batches under 64 points take the
// fused path).
func TestAutoThresholdShardAndBatchInvariance(t *testing.T) {
	const n = 3 * 512
	d := 5
	flat := make([]float64, n*d)
	uniformStream(31, d)(flat)

	runPointwise := func(shards int) []bool {
		cfg := autoTestConfig(0.01)
		cfg.Dims = d
		cfg.Shards = shards
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = processPoint(t, det, flat[i*d:(i+1)*d])
		}
		return out
	}
	runBatch := func(shards int, plan []int) []bool {
		cfg := autoTestConfig(0.01)
		cfg.Dims = d
		cfg.Shards = shards
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		out := make([]bool, n)
		done := 0
		for _, chunk := range plan {
			if _, err := det.ProcessBatchScoredErr(flat[done*d:(done+chunk)*d], out[done:done+chunk], nil); err != nil {
				t.Fatal(err)
			}
			done += chunk
		}
		return out
	}
	var plan300 []int
	for done := 0; done < n; done += 300 {
		plan300 = append(plan300, min(300, n-done))
	}

	ref := runPointwise(1)
	variants := map[string][]bool{
		"pointwise/shards=3":         runPointwise(3),
		"batch/shards=1":             runBatch(1, plan300),
		"batch/shards=4":             runBatch(4, plan300),
		"batch/shards=4/small-batch": runBatch(4, smallBatchPlan(n, 31)),
	}
	for name, got := range variants {
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: verdict %d = %v, pointwise/shards=1 = %v", name, i, got[i], ref[i])
			}
		}
	}
}

package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"spot/internal/bench"
	"spot/internal/sst"
)

// TestShardInvarianceProperty generalizes the fixed-case
// TestShardInvariance into a randomized property: across trials with
// random dimensionality, outlier mode (displaced, correlated mix, jump
// drift), epoch lengths chosen so sweep ticks land mid-batch, random
// batch splits, and the supervised MOGA group active with examples
// marked between batches, detectors at 1, 4 and 8 shards must produce
// byte-identical verdict sequences and identical evolution histories.
// Any divergence prints the trial's scenario so it can be replayed.
func TestShardInvarianceProperty(t *testing.T) {
	meta := rand.New(rand.NewSource(42))
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		d := 5 + meta.Intn(5)                // 5..9 dimensions
		epoch := uint64(64 + meta.Intn(400)) // never aligned with batch splits
		n := 1200 + meta.Intn(800)           // points per trial
		supervised := trial%2 == 0           // MOGA active on half the trials
		mode := trial % 3                    // rotate outlier scenarios
		genSeed := meta.Int63()
		evSeed := meta.Int63()
		maxDim := 1 + meta.Intn(2)
		lambda := []float64{0.005, 0.01, 0.02}[meta.Intn(3)]

		gcfg := bench.DefaultGenConfig(d)
		gcfg.Seed = genSeed
		switch mode {
		case 1: // correlated mix outliers: invisible until evolution
			centerA := make([]float64, d)
			centerB := make([]float64, d)
			for i := range centerA {
				centerA[i] = 0.19
				centerB[i] = 0.81
			}
			gcfg.Centers = [][]float64{centerA, centerB}
			gcfg.Sigma = 0.005
			gcfg.OutlierRate = 0.03
			gcfg.Mode = bench.OutlierMix
			gcfg.MixDim = meta.Intn(d)
		case 2: // jump drift: epoch eviction under churn
			gcfg.DriftPeriod = 300 + meta.Intn(300)
		}
		scenario := fmt.Sprintf("trial=%d d=%d epoch=%d n=%d mode=%d supervised=%v maxDim=%d lambda=%g genSeed=%d evSeed=%d",
			trial, d, epoch, n, mode, supervised, maxDim, lambda, genSeed, evSeed)

		// One shared stream + batch plan + example-marking plan so every
		// shard count sees the identical input and feedback sequence.
		flat := make([]float64, n*d)
		labels := make([]bool, n)
		bench.NewGenerator(gcfg).Fill(flat, labels, n)
		var batches []int
		for rem := n; rem > 0; {
			b := 1 + meta.Intn(300)
			if b > rem {
				b = rem
			}
			batches = append(batches, b)
			rem -= b
		}
		// The same stream in batches under 64 points: every touch takes
		// the fused per-point path instead of the coalesced run fold.
		small := smallBatchPlan(n, genSeed)

		mkEvolver := func() sst.Evolver {
			ts, err := sst.NewTopSparse(sst.TopSparseConfig{
				Arity: 2, TopS: 2, Explore: 32, SparseRatio: 0.1, MinScore: 0.05, Seed: evSeed,
			})
			if err != nil {
				t.Fatalf("%s: %v", scenario, err)
			}
			if !supervised {
				return ts
			}
			mg, err := sst.NewMOGA(sst.MOGAConfig{
				MinArity: 2, MaxArity: 2, PopSize: 8, Generations: 2, TopS: 2,
				SparseRatio: 0.1, MinCoverage: 0.6, MinSparsity: 0.4, Seed: evSeed,
			})
			if err != nil {
				t.Fatalf("%s: %v", scenario, err)
			}
			return sst.Multi{ts, mg}
		}

		runShards := func(shards int, plan []int, scoring bool) ([]bool, []float64, Stats, []uint16) {
			cfg := DefaultConfig(d)
			cfg.MaxSubspaceDim = maxDim
			cfg.Shards = shards
			cfg.Lambda = lambda
			cfg.Warmup = 30
			cfg.EpochTicks = epoch
			cfg.EvictEpsilon = 1e-4
			cfg.RDPopulatedThreshold = 0.2
			cfg.Scoring = scoring
			if scoring {
				cfg.TopK = 8
			}
			cfg.Evolver = mkEvolver()
			det, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", scenario, err)
			}
			defer det.Close()
			verdicts := make([]bool, n)
			var scores []float64
			if scoring {
				scores = make([]float64, n)
			}
			off := 0
			for _, b := range plan {
				var sc []float64
				if scoring {
					sc = scores[off : off+b]
				}
				if _, err := det.ProcessBatchScoredErr(flat[off*d:(off+b)*d], verdicts[off:off+b], sc); err != nil {
					t.Fatalf("%s: %v", scenario, err)
				}
				if supervised {
					// The analyst confirms every planted outlier of the
					// batch — identical feedback at every shard count.
					for i := off; i < off+b; i++ {
						if labels[i] {
							det.MarkExample(flat[i*d : (i+1)*d])
						}
					}
				}
				off += b
			}
			var evolved []uint16
			for _, id := range det.Template().EvolvedIDs(nil) {
				evolved = append(evolved, det.Template().Dims(int(id))...)
			}
			return verdicts, scores, det.Stats(), evolved
		}

		baseV, _, baseS, baseE := runShards(1, batches, false)
		// Shard counts on the random plan, plus the small-batch plan at
		// two shard counts: the coalesced run-fold and the fused
		// per-point path must agree bit for bit, as must every shard
		// partitioning of either.
		for _, v := range []struct {
			shards int
			small  bool
		}{{4, false}, {8, false}, {1, true}, {4, true}} {
			variant := fmt.Sprintf("%d shards (small batches=%v)", v.shards, v.small)
			plan := batches
			if v.small {
				plan = small
			}
			vv, _, s, e := runShards(v.shards, plan, false)
			for i := range baseV {
				if vv[i] != baseV[i] {
					t.Fatalf("%s: verdict for point %d differs at %s", scenario, i, variant)
				}
			}
			if s.Sweeps != baseS.Sweeps || s.Promoted != baseS.Promoted || s.Demoted != baseS.Demoted {
				t.Fatalf("%s: epoch engine diverged at %s: %+v vs %+v", scenario, variant, s, baseS)
			}
			if len(e) != len(baseE) {
				t.Fatalf("%s: evolved groups differ at %s: %v vs %v", scenario, variant, e, baseE)
			}
			for i := range e {
				if e[i] != baseE[i] {
					t.Fatalf("%s: evolved groups differ at %s: %v vs %v", scenario, variant, e, baseE)
				}
			}
		}

		// Scoring legs. Enabling scoring must not move a single verdict
		// bit, scores must be bit-identical across the two batch plans at
		// a fixed shard count, and across shard counts they may differ
		// only by the documented popFloor summation-order ULPs — bounded
		// here at 1e-9.
		scoredV, scoredScores, _, _ := runShards(1, batches, true)
		for i := range baseV {
			if scoredV[i] != baseV[i] {
				t.Fatalf("%s: scoring changed the verdict for point %d", scenario, i)
			}
			if (scoredScores[i] > 0) != baseV[i] {
				t.Fatalf("%s: point %d verdict=%v but score=%g", scenario, i, baseV[i], scoredScores[i])
			}
		}
		_, smallScores, _, _ := runShards(1, small, true)
		for i := range scoredScores {
			if smallScores[i] != scoredScores[i] {
				t.Fatalf("%s: score for point %d differs between batch plans: %g vs %g",
					scenario, i, smallScores[i], scoredScores[i])
			}
		}
		for _, shards := range []int{4, 8} {
			shV, shScores, _, _ := runShards(shards, batches, true)
			for i := range scoredScores {
				if shV[i] != baseV[i] {
					t.Fatalf("%s: scored verdict for point %d differs at %d shards", scenario, i, shards)
				}
				if diff := shScores[i] - scoredScores[i]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s: score for point %d differs at %d shards: %g vs %g",
						scenario, i, shards, shScores[i], scoredScores[i])
				}
			}
		}
	}
}

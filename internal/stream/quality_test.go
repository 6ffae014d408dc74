package stream

import (
	"fmt"
	"sort"
	"testing"

	"spot/internal/bench"
)

// TestRankingQuality gates the ranking quality of the noisy-OR ensemble
// score on the default clustered stream: after a 4×512-point warm-up,
// 16 fresh 512-point batches from the same generator are scored, and
// the tie-aware rank AUC and precision@K (K = planted count) against
// the planted ground truth must stay above per-d floors. The floors are
// the last recorded values minus 0.05. The score must also out-rank
// the verdict bitset read as a two-level ranking, the best a consumer
// of the boolean verdicts can do when asked for the K worst offenders.
// The stream and detector are deterministic, and the shard count
// cannot change scores (TestShardInvarianceProperty), so one shard
// stands for all.
func TestRankingQuality(t *testing.T) {
	if raceEnabled {
		t.Skip("long detection-quality run; CI runs it without -race")
	}
	for _, tc := range []struct {
		d               int
		minAUC, minPrec float64
	}{
		{20, 0.9499, 0.906},
		{50, 0.9500, 0.9391},
		{100, 0.9495, 0.8938},
	} {
		t.Run(fmt.Sprintf("d=%d", tc.d), func(t *testing.T) {
			const batch, pool, evalBatches = 512, 4, 16
			cfg := DefaultConfig(tc.d)
			cfg.MaxSubspaceDim = bench.MaxDimFor(tc.d)
			// The warm-up pool is only 2,048 ticks, so every cell still
			// looks fresh and the populated-RD test would flag wholesale.
			cfg.RDPopulatedThreshold = 0
			cfg.Scoring = true
			cfg.TopK = 16
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer det.Close()

			gen := bench.NewGenerator(bench.DefaultGenConfig(tc.d))
			flat := make([]float64, batch*tc.d)
			labels := make([]bool, batch)
			out := make([]bool, batch)
			scores := make([]float64, batch)
			for i := 0; i < pool; i++ {
				gen.Fill(flat, labels, batch)
				det.ProcessBatchScored(flat, out, scores)
			}

			var evalScores, evalBits []float64
			var evalLabels []bool
			for i := 0; i < evalBatches; i++ {
				gen.Fill(flat, labels, batch)
				det.ProcessBatchScored(flat, out, scores)
				evalScores = append(evalScores, scores...)
				evalLabels = append(evalLabels, labels...)
				for _, f := range out {
					bit := 0.0
					if f {
						bit = 1
					}
					evalBits = append(evalBits, bit)
				}
			}
			auc, prec, k := rankMetrics(evalScores, evalLabels)
			_, bitsetPrec, _ := rankMetrics(evalBits, evalLabels)
			t.Logf("AUC %.4f, p@%d %.4f, bitset p@K %.4f", auc, k, prec, bitsetPrec)
			if auc < tc.minAUC {
				t.Errorf("AUC %.4f below floor %.4f", auc, tc.minAUC)
			}
			if prec < tc.minPrec {
				t.Errorf("precision@%d %.4f below floor %.4f", k, prec, tc.minPrec)
			}
			if prec <= bitsetPrec {
				t.Errorf("score precision@%d %.4f does not beat the verdict bitset's %.4f", k, prec, bitsetPrec)
			}
		})
	}
}

// rankMetrics scores a labeled ranking: tie-aware AUC via the rank-sum
// (Mann–Whitney U) statistic with average ranks over tie groups, and
// precision@K at K = positive count with fractional credit for
// positives inside the tie group straddling the K-th rank — both are
// therefore invariant to how a sort breaks score ties. Returns zeros
// when either class is empty (e.g. the uniform stream plants nothing).
func rankMetrics(scores []float64, labels []bool) (auc, precAtK float64, k int) {
	n := len(scores)
	pos := 0
	for _, lab := range labels {
		if lab {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return 0, 0, pos
	}
	k = pos
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	// AUC: walk descending score, assign each tie group its average
	// rank (1 = highest score), then AUC = (R⁺ − pos(pos+1)/2)/(pos·neg)
	// computed against ascending ranks — equivalently, flip the
	// descending rank sum.
	var posRankSum float64
	for i := 0; i < n; {
		j := i
		grpPos := 0
		for j < n && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				grpPos++
			}
			j++
		}
		avgDescRank := float64(i+j+1) / 2 // mean of descending ranks i+1..j
		posRankSum += float64(grpPos) * avgDescRank
		i = j
	}
	neg := n - pos
	// Convert descending ranks to ascending: rAsc = n+1 − rDesc.
	ascSum := float64(pos)*float64(n+1) - posRankSum
	auc = (ascSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))

	// Precision@K: positives strictly above the K-th score count whole;
	// the tie group at the K-th score fills the remaining slots with its
	// positive fraction.
	kth := scores[idx[k-1]]
	above, posAbove, tieN, tiePos := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		switch {
		case scores[i] > kth:
			above++
			if labels[i] {
				posAbove++
			}
		case scores[i] == kth:
			tieN++
			if labels[i] {
				tiePos++
			}
		}
	}
	credit := float64(posAbove)
	if tieN > 0 {
		credit += float64(k-above) * float64(tiePos) / float64(tieN)
	}
	precAtK = credit / float64(k)
	return auc, precAtK, k
}

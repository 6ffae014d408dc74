package main

import "sort"

// rankMetrics scores a labeled ranking: tie-aware AUC via the rank-sum
// (Mann–Whitney U) statistic with average ranks over tie groups, and
// precision@K at K = positive count with fractional credit for
// positives inside the tie group straddling the K-th rank — both are
// therefore invariant to how a sort breaks score ties. Returns zeros
// when either class is empty. The same definition as cmd/spotbench,
// which as a main package cannot be imported.
func rankMetrics(scores []float64, labels []bool) (auc, precAtK float64) {
	n := len(scores)
	pos := 0
	for _, lab := range labels {
		if lab {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return 0, 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	// Walk descending score, giving each tie group its average rank
	// (1 = highest score), then flip to ascending ranks for the U
	// statistic: rAsc = n+1 − rDesc.
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
		posRankSum += float64(grpPos) * float64(i+j+1) / 2
		i = j
	}
	neg := n - pos
	ascSum := float64(pos)*float64(n+1) - posRankSum
	auc = (ascSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))

	// Positives strictly above the K-th score count whole; the tie
	// group at the K-th score fills the remaining slots with its
	// positive fraction.
	k := pos
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
	return auc, credit / float64(k)
}

package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestTouchRunMatchesTouchOracle pins the run-fold contract the
// coalesced batch path stands on: PCS.TouchRun over any strictly
// increasing tick sequence produces bit-identical state and per-touch
// snapshots to iterated PCS.Touch calls. Trials randomize run length,
// starting state, magnitudes and tick gaps — mixing dense consecutive
// ticks with gaps beyond the DecayTable memo (dt > 4096), so the fold
// crosses the table→Exp2 fallback boundary mid-run.
func TestTouchRunMatchesTouchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dt := NewDecayTable(0.002)
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(64)
		start := uint64(rng.Intn(10000))
		var ref, run PCS
		if rng.Intn(2) == 0 { // half the trials start from a lived-in cell
			ref = PCS{Dc: 50 * rng.Float64(), S: 20 * rng.Float64(), Q: 40 * rng.Float64(), Last: start}
			run = ref
		} else {
			ref.Last = start
			run.Last = start
		}
		ticks := make([]uint64, m)
		mags := make([]float64, m)
		tick := start
		for j := range ticks {
			switch rng.Intn(4) {
			case 0: // consecutive tick — the dense-run common case
				tick++
			case 1: // small gap inside the memo table
				tick += 1 + uint64(rng.Intn(100))
			case 2: // gap straddling the memo boundary
				tick += decayTableSize - 8 + uint64(rng.Intn(16))
			default: // far past the memo: Exp2 fallback
				tick += decayTableSize + uint64(rng.Intn(20000))
			}
			ticks[j] = tick
			mags[j] = 10 * (rng.Float64() - 0.5)
		}

		wantSS := make([]float64, m)
		wantDc := make([]float64, m)
		for j := range ticks {
			ref.Touch(dt, ticks[j], mags[j])
			wantSS[j] = ref.S
			wantDc[j] = ref.Dc
		}
		gotSS := make([]float64, m)
		gotDc := make([]float64, m)
		run.TouchRun(dt, ticks, mags, gotSS, gotDc)

		if run != ref {
			t.Fatalf("trial %d: state diverged:\n run %+v\nwant %+v", trial, run, ref)
		}
		for j := range ticks {
			if gotSS[j] != wantSS[j] || gotDc[j] != wantDc[j] {
				t.Fatalf("trial %d touch %d: snapshot (S=%v Dc=%v) != oracle (S=%v Dc=%v)",
					trial, j, gotSS[j], gotDc[j], wantSS[j], wantDc[j])
			}
		}
	}
}

// TestSeriesClosedForm checks the closed-form geometric series against
// the iterated sum of DecayTable powers, including lengths beyond the
// memo table, and verifies the run-fold algebra it documents: a fresh
// summary touched once per tick for m ticks ends within rounding of
// Series(m).
func TestSeriesClosedForm(t *testing.T) {
	for _, lambda := range []float64{0.002, 0.01, 0.2} {
		dt := NewDecayTable(lambda)
		for _, m := range []uint64{0, 1, 2, 3, 100, decayTableSize - 1, decayTableSize, decayTableSize + 977} {
			want := 0.0
			for j := uint64(0); j < m; j++ {
				want += dt.At(j)
			}
			got := dt.Series(m)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("lambda=%g m=%d: Series=%v, iterated sum=%v", lambda, m, got, want)
			}
		}

		const m = 300
		var p PCS
		p.Last = 10
		ticks := make([]uint64, m)
		mags := make([]float64, m)
		scratch := make([]float64, m)
		for j := range ticks {
			ticks[j] = 10 + uint64(j) + 1
		}
		p.TouchRun(dt, ticks, mags, scratch, scratch)
		if want := dt.Series(m); math.Abs(p.Dc-want) > 1e-9*want {
			t.Fatalf("lambda=%g: %d consecutive touches give Dc=%v, Series=%v", lambda, m, p.Dc, want)
		}
	}
}

// TouchRun is the stand-alone form of the run fold PCSTable.TouchRuns
// inlines per cell: touch j occurs at tick ticks[j] (strictly
// increasing, all ≥ p.Last) with magnitude mags[j], and the post-touch
// magnitude sum and density are snapshotted into ss[j] and dcs[j] —
// the per-point view a verdict pass consumes. Dc after the run is
// Dc₀·f^Δ + Σⱼ f^δⱼ (Series gives the consecutive-tick closed form),
// but folding one touch at a time with the summary in registers keeps
// every intermediate bit-identical to iterated Touch calls, which the
// tests above pin across random tick gaps and the decay-table fallback
// boundary.
func (p *PCS) TouchRun(t *DecayTable, ticks []uint64, mags []float64, ss, dcs []float64) {
	mags = mags[:len(ticks)]
	ss = ss[:len(ticks)]
	dcs = dcs[:len(ticks)]
	dc, sv, q, last := p.Dc, p.S, p.Q, p.Last
	for j, tick := range ticks {
		if last != tick {
			f := t.At(tick - last)
			dc *= f
			sv *= f
			q *= f
			last = tick
		}
		m := mags[j]
		dc++
		sv += m
		q += m * m
		ss[j] = sv
		dcs[j] = dc
	}
	p.Dc, p.S, p.Q, p.Last = dc, sv, q, last
}

// Series returns the closed-form geometric series 1 + f + f² + … +
// f^(m-1) with f = At(1): the total decayed weight, as seen at the last
// tick, of m touches at consecutive ticks. It is the algebra behind run
// folding — a summary receiving one unit per tick for m ticks ends at
// Dc·f^m + Series(m) — but it agrees with the iterated fold only up to
// floating-point rounding, so ingestion folds exactly (TouchRun) and
// the closed form only checks it.
func (t *DecayTable) Series(m uint64) float64 {
	if m == 0 {
		return 0
	}
	f := t.At(1)
	if f == 1 {
		return float64(m)
	}
	return (1 - t.At(m)) / (1 - f)
}

package core

import (
	"math"
	"testing"
)

// TestPCSDecayClosedForm drives a PCS through irregular touch times and
// checks that the lazily-decayed density matches the closed form
// Σ 2^(-λ(T-tᵢ)) over all touch ticks tᵢ.
func TestPCSDecayClosedForm(t *testing.T) {
	const lambda = 0.01
	table := NewDecayTable(lambda)
	ticks := []uint64{1, 2, 5, 9, 40, 41, 100, 700}
	mags := []float64{1.5, -0.5, 2, 0, 3, 1, -2, 0.25}

	var p PCS
	p.Last = ticks[0]
	for i, tk := range ticks {
		p.Touch(table, tk, mags[i])
	}
	const T = 1000
	wantDc, wantS, wantQ := 0.0, 0.0, 0.0
	for i, tk := range ticks {
		w := math.Exp2(-lambda * float64(T-tk))
		wantDc += w
		wantS += w * mags[i]
		wantQ += w * mags[i] * mags[i]
	}
	if got := p.DcAt(table, T); math.Abs(got-wantDc) > 1e-9 {
		t.Errorf("DcAt(T) = %.12f, want %.12f", got, wantDc)
	}
	// Bring the summary current at T via a zero-weight read path:
	// decay factors compose, so S and Q at T must also match.
	d := table.At(T - p.Last)
	if got := p.S * d; math.Abs(got-wantS) > 1e-9 {
		t.Errorf("S at T = %.12f, want %.12f", got, wantS)
	}
	if got := p.Q * d; math.Abs(got-wantQ) > 1e-9 {
		t.Errorf("Q at T = %.12f, want %.12f", got, wantQ)
	}
}

func TestDecayTableMatchesExp2(t *testing.T) {
	const lambda = 0.003
	table := NewDecayTable(lambda)
	for _, dt := range []uint64{0, 1, 2, 63, 64, 65, 1000, 1 << 20} {
		want := math.Exp2(-lambda * float64(dt))
		if got := table.At(dt); math.Abs(got-want) > 1e-15 {
			t.Errorf("At(%d) = %v, want %v", dt, got, want)
		}
	}
	if Decay(lambda, 0) != 1 {
		t.Error("Decay(·,0) != 1")
	}
	if table.Lambda() != lambda {
		t.Errorf("Lambda() = %v", table.Lambda())
	}
}

// TestBCSDecayClosedForm drives a BCS through irregular touch times and
// checks that its lazily-decayed density matches the closed form
// Σ 2^(-λ(T-tᵢ)), both as stored at the last touch and as read later
// through DcAt.
func TestBCSDecayClosedForm(t *testing.T) {
	const lambda = 0.02
	table := NewDecayTable(lambda)
	ticks := []uint64{3, 50, 51, 51, 5000}

	b := BCS{Last: ticks[0]}
	for _, tk := range ticks {
		b.Touch(table, tk)
	}
	wantDc := func(T uint64) float64 {
		w := 0.0
		for _, tk := range ticks {
			w += math.Exp2(-lambda * float64(T-tk))
		}
		return w
	}
	last := ticks[len(ticks)-1]
	if b.Last != last {
		t.Errorf("Last = %d, want %d", b.Last, last)
	}
	if want := wantDc(last); math.Abs(b.Dc-want) > 1e-9 {
		t.Errorf("Dc = %.12f, want %.12f", b.Dc, want)
	}
	if got, want := b.DcAt(table, last+70), wantDc(last+70); math.Abs(got-want) > 1e-9 {
		t.Errorf("DcAt(T) = %.12f, want %.12f", got, want)
	}
}

package core

import "math"

// decayWeight is the one primitive every fading weight in the engine
// derives from: 2^(-lambda*dt) evaluated as math.Exp2 over the exact
// float64 product. Decay, the DecayTable entries and the DecayTable's
// past-the-table fallback all call it, so a gap computed from table
// entries and the same gap computed by the fallback can never diverge
// by more than Exp2's own rounding — there is no second formula to
// drift against. (Exp2(-0) is exactly 1, so dt == 0 needs no special
// case.)
func decayWeight(lambda float64, dt uint64) float64 {
	return math.Exp2(-lambda * float64(dt))
}

// Decay returns the exponential fading weight 2^(-lambda*dt) applied to
// a summary that was last touched dt ticks ago. lambda is the fading
// factor λ of the paper; larger λ forgets the past faster. The
// effective window size (total decayed weight of an infinite uniform
// stream) is 1/(1-2^-λ).
func Decay(lambda float64, dt uint64) float64 {
	return decayWeight(lambda, dt)
}

// decayTableSize covers the gaps between touches of recurring
// summaries; larger gaps fall back to math.Exp2. Subspace totals are
// touched every tick, but individual cells of a subspace with c
// populated cells recur every ~c ticks — profiles showed the old
// 64-entry table pushing a large share of cell touches onto the
// transcendental fallback, so the table spans 4096 ticks (32 KiB,
// shared read-only across shards; the hot prefix stays cached).
const decayTableSize = 4096

// DecayTable memoizes Decay(lambda, dt) for small dt. Subspace totals
// are touched every tick (dt==1) and hot cells every few ticks, so the
// table turns the hot path's transcendental call into an array load.
// It is immutable after construction and safe to share across shards.
type DecayTable struct {
	lambda float64
	pow    [decayTableSize]float64
}

// NewDecayTable precomputes fading weights for the fading factor lambda.
func NewDecayTable(lambda float64) *DecayTable {
	t := &DecayTable{lambda: lambda}
	for i := range t.pow {
		t.pow[i] = decayWeight(lambda, uint64(i))
	}
	return t
}

// Lambda returns the fading factor the table was built for.
func (t *DecayTable) Lambda() float64 { return t.lambda }

// At returns the fading weight for a gap of dt ticks: a table load
// below decayTableSize, the shared decayWeight primitive past it —
// table entries are built from the same primitive, so the two regimes
// agree bitwise on any gap either could serve.
func (t *DecayTable) At(dt uint64) float64 {
	if dt < decayTableSize {
		return t.pow[dt]
	}
	return t.far(dt)
}

// far is At's past-the-table fallback, kept out of line so At stays
// under the compiler's inlining budget: every decay lookup on the hot
// path is then a table load, not a call (make lint checks this).
//
//go:noinline
func (t *DecayTable) far(dt uint64) float64 { return decayWeight(t.lambda, dt) }

// PCS is the Projected Cell Summary: the per-cell state SPOT keeps for
// every populated cell of every subspace in the SST. All fields decay
// with the fading factor; decay is applied lazily when the cell is next
// touched (update-on-touch), so no background pass ever rewrites the
// table. The magnitude moments S and Q accumulate the projected
// magnitude m of member points (the sum of the point's coordinates over
// the subspace's dimensions), from which the cell's mean and standard
// deviation — the inputs to IRSD — are derived.
type PCS struct {
	Dc   float64 // decayed density (weighted point count)
	S    float64 // decayed sum of member magnitudes
	Q    float64 // decayed sum of squared member magnitudes
	Last uint64  // tick of the last touch
}

// Touch folds one point with magnitude m observed at tick into the
// summary, first bringing the decayed fields current. It performs no
// allocation.
func (p *PCS) Touch(t *DecayTable, tick uint64, m float64) {
	if p.Last != tick {
		d := t.At(tick - p.Last)
		p.Dc *= d
		p.S *= d
		p.Q *= d
		p.Last = tick
	}
	p.Dc++
	p.S += m
	p.Q += m * m
}

// DcAt returns the decayed density as seen at tick without mutating the
// summary.
func (p *PCS) DcAt(t *DecayTable, tick uint64) float64 {
	return p.Dc * t.At(tick-p.Last)
}

// BCS is the Base Cell Summary kept for populated cells of the full
// d-dimensional space: the decayed density and the tick of the last
// touch — exactly what the epoch sweep hands a configured evolver
// (internal/sst's TopSparse and MOGA read a base cell's coordinates and
// decayed density, nothing else). The paper's BCS also carries
// per-dimension linear and squared sums for reconstructing projected
// centroids; no evolver here uses them, so they are not kept.
type BCS struct {
	Dc   float64
	Last uint64
}

// Touch folds one point observed at tick into the summary, applying
// pending decay first. It performs no allocation.
func (b *BCS) Touch(t *DecayTable, tick uint64) {
	if b.Last != tick {
		b.Dc *= t.At(tick - b.Last)
		b.Last = tick
	}
	b.Dc++
}

// DcAt returns the decayed density as seen at tick without mutating the
// summary.
func (b *BCS) DcAt(t *DecayTable, tick uint64) float64 {
	return b.Dc * t.At(tick-b.Last)
}

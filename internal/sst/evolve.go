package sst

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"spot/internal/core"
)

// BaseCell is one populated cell of the full data space as seen by the
// epoch sweep: its per-dimension interval indices and its decayed
// density at the sweep tick. The slice of BaseCells is the compact,
// stream-independent snapshot an Evolver mines for candidate subspaces
// — projecting base cells onto a dimension set reconstructs that
// subspace's cell histogram without ever revisiting points.
type BaseCell struct {
	Coords []uint8
	Dc     float64
}

// Example is one caller-confirmed outlier exemplar as retained by the
// detector: the per-dimension interval indices of the full data space
// the point fell into, and the stream tick it was marked at. Supervised
// evolvers (MOGA) mine examples for the subspaces in which they look
// maximally anomalous.
type Example struct {
	Coords []uint8
	Tick   uint64
}

// SubspaceStats is what the epoch sweep records for one live SST
// subspace: how many of its cells are populated, their total decayed
// density, and how many are sparse (density below the detector's
// sparse-cell ratio times the subspace's average populated density).
// Evolvers use it to decide whether an evolved subspace still earns its
// slot; Sparse is therefore only computed for evolved subspaces and
// stays zero for the fixed group.
type SubspaceStats struct {
	Populated int
	TotalDc   float64
	Sparse    int
}

// EpochStats is the summary snapshot the detector hands the Evolver at
// each epoch boundary. All densities are as of Tick; the snapshot is
// identical regardless of shard count, so evolution decisions are too.
type EpochStats struct {
	// Tick is the stream tick the sweep ran at.
	Tick uint64
	// BaseCells are the surviving cells of the full-space table,
	// sorted by coordinates.
	BaseCells []BaseCell
	// Subspaces is indexed by subspace ID; entries for inactive slots
	// are zero. Only populated cells that survived eviction count.
	Subspaces []SubspaceStats
	// Examples are the labeled outlier exemplars retained by the
	// detector at sweep time (newest last). Empty unless the caller
	// marked confirmed outliers via the detector's feedback API;
	// unsupervised evolvers ignore it.
	Examples []Example
}

// Evolution is an Evolver's verdict for one epoch: dimension sets to
// promote into the evolved group and live evolved IDs to demote. The
// detector applies demotions first, so a promotion may reuse a slot
// demoted in the same epoch.
type Evolution struct {
	Promote [][]uint16
	Demote  []uint32
}

// Evolver is the self-evolving-group strategy: called by the detector
// at every epoch boundary (hot path idle) with the sweep's summary
// snapshot, it proposes template mutations. Implementations must be
// deterministic functions of their own state and the snapshot so that
// verdicts stay independent of the shard count. An evolver manages only
// the subspaces it promoted itself (tracked by dimension-set signature),
// so several evolver groups — e.g. the unsupervised TopSparse and the
// supervised MOGA — can share one template via Multi without demoting
// each other's members.
type Evolver interface {
	Evolve(t *Template, stats *EpochStats) Evolution
}

// Multi composes several evolver groups into one Evolver: each epoch it
// consults the sub-evolvers in order and concatenates their verdicts.
// Because every evolver only demotes and budgets the subspaces it
// promoted itself, the groups coexist in the template — the paper's SST
// holds the unsupervised top-sparse group and the supervised
// example-driven group side by side. If two groups propose the same
// dimension set in one epoch, the earlier evolver wins: the duplicate
// is dropped from the merged verdict and the later evolver's ownership
// claim is revoked, so exactly one group ever manages a subspace.
type Multi []Evolver

// disowner is implemented by evolvers that track ownership of their
// promotions; Multi uses it to revoke the claim of a proposal it drops
// as a same-epoch duplicate of an earlier group's.
type disowner interface {
	disown(dims []uint16)
}

// Evolve implements Evolver by merging the sub-evolvers' verdicts.
func (m Multi) Evolve(t *Template, stats *EpochStats) Evolution {
	var ev Evolution
	seen := map[string]bool{}
	for _, e := range m {
		sub := e.Evolve(t, stats)
		ev.Demote = append(ev.Demote, sub.Demote...)
		for _, p := range sub.Promote {
			if s := sig(p); seen[s] {
				if d, ok := e.(disowner); ok {
					d.disown(p)
				}
				continue
			} else {
				seen[s] = true
			}
			ev.Promote = append(ev.Promote, p)
		}
	}
	return ev
}

// TopSparseConfig parameterizes the unsupervised top-sparse evolver.
type TopSparseConfig struct {
	// Arity is the dimensionality of candidate subspaces (typically
	// above the fixed group's maxDim, so evolution extends coverage
	// rather than duplicating it). Must be in [2, core.MaxSubspaceDims].
	Arity int
	// TopS caps the evolved group: at most TopS subspaces are live at
	// once (the paper's top-s sparsest subspaces).
	TopS int
	// Explore bounds how many candidate subspaces are scored per epoch.
	// When the full C(d, Arity) enumeration fits the bound it is scored
	// exhaustively (deterministic); otherwise Explore candidates are
	// sampled uniformly per epoch, so coverage accumulates across
	// epochs. 0 defaults to 256.
	Explore int
	// SparseRatio classifies a projected cell as sparse when its
	// density is below SparseRatio times the candidate's average
	// populated-cell density. 0 defaults to 0.1.
	SparseRatio float64
	// MinScore is the promotion floor and demotion ceiling: a candidate
	// needs a sparse-cell fraction ≥ MinScore to enter the evolved
	// group, and a member whose swept sparse fraction drops below it is
	// demoted. 0 defaults to 0.02.
	MinScore float64
	// SeedFromBase, when positive, derives up to this many candidate
	// subspaces per epoch from the sparsest base cells of the sweep
	// snapshot before blind sampling spends the Explore budget: for
	// each of the SeedFromBase lowest-density cells, the Arity
	// dimensions in which the cell deviates farthest from the
	// density-weighted mean interval become one candidate. A sparse
	// base cell is sparse *because* of the dimensions in which it sits
	// away from the data mass, so the candidates point at exactly the
	// projections where the paper's sparse-subspace structure lives —
	// at d where C(d, Arity) dwarfs Explore, the guided candidates
	// find planted structure epochs before uniform sampling draws it.
	// 0 disables (blind sampling only). Deterministic: no RNG involved.
	SeedFromBase int
	// Seed fixes the candidate-sampling RNG so runs are reproducible.
	Seed int64
}

// TopSparse is the unsupervised self-evolving group of the paper: each
// epoch it scores candidate subspaces by how much sparse structure
// their projection of the base-cell snapshot exhibits — the fraction of
// populated projected cells whose density falls below SparseRatio times
// the projection's average — promotes the top-scoring candidates into
// the template, and demotes members whose swept statistics show no
// remaining sparse cells (the stream drifted away; their summaries have
// been evicted).
//
// Not safe for concurrent use; the detector calls it from the epoch
// path only.
type TopSparse struct {
	cfg   TopSparseConfig
	src   *countedSource // rng's source, counted so state can checkpoint
	rng   *rand.Rand
	comb  []uint16
	hist  map[uint64]float64
	ids   []uint32
	owned map[string]bool // signatures of this evolver's own promotions
}

// NewTopSparse validates cfg, applies defaults, and returns the
// evolver.
func NewTopSparse(cfg TopSparseConfig) (*TopSparse, error) {
	if cfg.Arity < 2 || cfg.Arity > core.MaxSubspaceDims {
		return nil, fmt.Errorf("sst: evolver arity must be in [2,%d], got %d", core.MaxSubspaceDims, cfg.Arity)
	}
	if cfg.TopS < 1 {
		return nil, fmt.Errorf("sst: TopS must be positive, got %d", cfg.TopS)
	}
	if cfg.Explore == 0 {
		cfg.Explore = 256
	}
	if cfg.Explore < 0 {
		return nil, fmt.Errorf("sst: Explore must be non-negative, got %d", cfg.Explore)
	}
	if cfg.SparseRatio == 0 {
		cfg.SparseRatio = 0.1
	}
	if cfg.SparseRatio < 0 || cfg.SparseRatio >= 1 {
		return nil, fmt.Errorf("sst: SparseRatio must be in (0,1), got %g", cfg.SparseRatio)
	}
	if cfg.MinScore == 0 {
		cfg.MinScore = 0.02
	}
	if cfg.SeedFromBase < 0 {
		return nil, fmt.Errorf("sst: SeedFromBase must be non-negative, got %d", cfg.SeedFromBase)
	}
	src := newCountedSource(cfg.Seed)
	return &TopSparse{
		cfg:   cfg,
		src:   src,
		rng:   rand.New(src),
		comb:  make([]uint16, cfg.Arity),
		hist:  make(map[uint64]float64),
		owned: make(map[string]bool),
	}, nil
}

// Owns reports whether the evolver considers the given dimension set one
// of its own promotions (proposed by it and not since demoted). Foreign
// evolved subspaces — another group's, or promoted directly by the
// caller — are never demoted by this evolver and do not consume its
// TopS budget.
func (e *TopSparse) Owns(dims []uint16) bool { return e.owned[sig(dims)] }

// disown implements the Multi duplicate-resolution hook.
func (e *TopSparse) disown(dims []uint16) { delete(e.owned, sig(dims)) }

// candidate is a scored dimension set.
type candidate struct {
	dims  []uint16
	score float64
}

// Evolve implements Evolver.
func (e *TopSparse) Evolve(t *Template, stats *EpochStats) Evolution {
	var ev Evolution

	// Demote own members whose swept cells no longer show sparse
	// structure: either the subspace went entirely stale (every cell
	// evicted) or its sparse fraction fell below the floor. Evolved
	// subspaces promoted by another group are left alone.
	e.ids = t.EvolvedIDs(e.ids[:0])
	live := 0
	for _, id := range e.ids {
		sg := sig(t.Dims(int(id)))
		if !e.owned[sg] {
			continue
		}
		s := SubspaceStats{}
		if int(id) < len(stats.Subspaces) {
			s = stats.Subspaces[id]
		}
		if s.Populated == 0 || float64(s.Sparse)/float64(s.Populated) < e.cfg.MinScore {
			ev.Demote = append(ev.Demote, id)
			delete(e.owned, sg)
			continue
		}
		live++
	}

	room := e.cfg.TopS - live
	if room <= 0 || len(stats.BaseCells) == 0 {
		return ev
	}

	// Score candidates and keep the best `room` of them.
	var cands []candidate
	consider := func(dims []uint16) {
		if _, ok := t.Contains(dims); ok {
			return
		}
		if score, ok := e.score(dims, stats); ok && score >= e.cfg.MinScore {
			c := candidate{dims: append([]uint16(nil), dims...), score: score}
			cands = append(cands, c)
		}
	}
	d := t.SpaceDims()
	if n, err := binomial(d, e.cfg.Arity); err == nil && n <= e.cfg.Explore {
		// Exhaustive enumeration already scores every candidate a seed
		// could propose, so seeding here would only duplicate work.
		e.enumerate(e.comb, 0, 0, d, consider)
	} else {
		// Guided candidates first: they are deterministic and few, and
		// the promotion loop below takes the highest scores regardless
		// of which pass proposed them, so seeding never crowds out a
		// better blind draw — it only adds informed ones.
		if e.cfg.SeedFromBase > 0 {
			e.seedFromBase(d, stats, consider)
		}
		for i := 0; i < e.cfg.Explore; i++ {
			e.sample(d)
			consider(e.comb)
		}
	}
	// Highest score first; ties break on the lexicographically smaller
	// dimension set so results are deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return slices.Compare(cands[i].dims, cands[j].dims) < 0
	})
	for _, c := range cands {
		if room == 0 {
			break
		}
		dup := false // random sampling can draw the same set twice
		for _, p := range ev.Promote {
			if slices.Equal(p, c.dims) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ev.Promote = append(ev.Promote, c.dims)
		e.owned[sig(c.dims)] = true
		room--
	}
	return ev
}

// score projects the base-cell snapshot onto dims and returns the
// sparse-cell fraction of the projection. A projection with fewer than
// two populated cells carries no contrast and scores nothing.
func (e *TopSparse) score(dims []uint16, stats *EpochStats) (float64, bool) {
	clear(e.hist)
	total := 0.0
	for i := range stats.BaseCells {
		bc := &stats.BaseCells[i]
		var key uint64
		for j, dim := range dims {
			key |= uint64(bc.Coords[dim]) << (uint(j) * core.CoordBits)
		}
		e.hist[key] += bc.Dc
		total += bc.Dc
	}
	if len(e.hist) < 2 || total <= 0 {
		return 0, false
	}
	avg := total / float64(len(e.hist))
	sparse := 0
	for _, dc := range e.hist {
		if dc < e.cfg.SparseRatio*avg {
			sparse++
		}
	}
	return float64(sparse) / float64(len(e.hist)), true
}

// seedFromBase hands consider up to SeedFromBase candidate dimension
// sets derived from the sparsest base cells of the snapshot: for each
// such cell, the Arity dimensions in which the cell's interval sits
// farthest from the density-weighted mean interval of the stream. The
// pass is a deterministic function of the snapshot (ties break on
// snapshot order and dimension index), so shard-count invariance of
// evolution is preserved. Runs on the epoch path — the few transient
// slices here never touch ingestion.
func (e *TopSparse) seedFromBase(d int, stats *EpochStats, consider func([]uint16)) {
	cells := stats.BaseCells
	arity := e.cfg.Arity
	if len(cells) == 0 || d < arity {
		return
	}
	// Density-weighted mean interval per dimension — where the data
	// mass sits, the reference a sparse cell deviates from.
	mean := make([]float64, d)
	total := 0.0
	for i := range cells {
		bc := &cells[i]
		for dim := 0; dim < d; dim++ {
			mean[dim] += bc.Dc * float64(bc.Coords[dim])
		}
		total += bc.Dc
	}
	if total <= 0 {
		return
	}
	for dim := range mean {
		mean[dim] /= total
	}
	// The SeedFromBase lowest-density cells, ties on snapshot order
	// (the detector sorts the snapshot by coordinates).
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].Dc < cells[order[b]].Dc
	})
	seeds := e.cfg.SeedFromBase
	if seeds > len(order) {
		seeds = len(order)
	}
	taken := make([]bool, d)
	for _, ci := range order[:seeds] {
		bc := &cells[ci]
		// Top-Arity dimensions by deviation from the mean interval,
		// ties on the lower dimension index.
		for i := range taken {
			taken[i] = false
		}
		comb := e.comb[:0]
		for j := 0; j < arity; j++ {
			best, bestDev := -1, -1.0
			for dim := 0; dim < d; dim++ {
				if taken[dim] {
					continue
				}
				dev := float64(bc.Coords[dim]) - mean[dim]
				if dev < 0 {
					dev = -dev
				}
				if dev > bestDev {
					best, bestDev = dim, dev
				}
			}
			taken[best] = true
			comb = append(comb, uint16(best))
		}
		sort.Slice(comb, func(a, b int) bool { return comb[a] < comb[b] })
		consider(comb)
	}
}

// enumerate walks every sorted Arity-combination of [0,d), handing each
// to consider via the shared scratch slice.
func (e *TopSparse) enumerate(comb []uint16, pos, from, d int, consider func([]uint16)) {
	if pos == len(comb) {
		consider(comb)
		return
	}
	for i := from; i <= d-(len(comb)-pos); i++ {
		comb[pos] = uint16(i)
		e.enumerate(comb, pos+1, i+1, d, consider)
	}
}

// sample draws a random sorted Arity-subset of [0,d) into the scratch
// combination.
func (e *TopSparse) sample(d int) {
	k := e.cfg.Arity
	// Floyd's algorithm: k draws, no rejection loop.
	chosen := e.comb[:0]
	for i := d - k; i < d; i++ {
		v := uint16(e.rng.Intn(i + 1))
		hit := false
		for _, c := range chosen {
			if c == v {
				hit = true
				break
			}
		}
		if hit {
			v = uint16(i)
		}
		chosen = append(chosen, v)
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })
}

// Package stream implements SPOT's streaming detection engine: a
// sharded Detector that ingests high-dimensional points, maintains the
// decayed cell summaries of every Sparse Subspace Template subspace,
// and emits a projected-outlier verdict per point.
//
// Concurrency model: the SST's subspaces are partitioned across N
// shards (round-robin for the fixed group, least-loaded for evolved
// subspaces). Each shard exclusively owns the cell table, totals and
// representative set of its subspaces, so the hot path takes no locks —
// a shard's state is only ever touched by the goroutine processing it.
// The one ingest call, ProcessBatchScoredErr, hands its points to one
// worker goroutine per shard and synchronizes only at batch boundaries
// via channels; a pointwise caller passes a one-point batch. Verdicts
// are identical regardless of shard count and of how the stream is cut
// into batches.
//
// Epoch engine: when Config.EpochTicks is set, the detector pauses at
// every multiple of it — between internally split sub-batches, always
// with the workers idle — and sweeps every summary table once:
// summaries whose decayed density fell below Config.EvictEpsilon are
// evicted (bounding memory on drifting streams), per-arity average
// populated-cell densities are recomputed (feeding the arity-aware RD
// test), and the optional sst.Evolver is consulted to promote or demote
// self-evolving SST subspaces. Because sweeps happen at exact ticks,
// batch and pointwise verdicts stay identical.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"spot/internal/core"
	"spot/internal/sst"
)

// Typed errors of the ingestion API, returned by ProcessBatchScoredErr
// before any state is touched: a caller's malformed batch must not take
// the detector's learned state down with it.
var (
	// ErrBatchLength marks a flat batch whose length is not a multiple
	// of the configured dimensionality, or a MarkExample point whose
	// length is not exactly Dims.
	ErrBatchLength = errors.New("stream: batch length not a multiple of Dims")
	// ErrVerdictBuffer marks a verdict buffer shorter than the batch.
	ErrVerdictBuffer = errors.New("stream: verdict buffer shorter than batch")
	// ErrScoreBuffer marks a non-nil score buffer shorter than the
	// batch.
	ErrScoreBuffer = errors.New("stream: score buffer shorter than batch")
	// ErrScoringDisabled marks a non-nil score buffer passed to a
	// detector built without Config.Scoring.
	ErrScoringDisabled = errors.New("stream: scoring is not enabled")
	// ErrClosed marks a call on a detector after Close.
	ErrClosed = errors.New("stream: detector is closed")
	// ErrNonFinite marks a point carrying a NaN or ±Inf coordinate.
	// Out-of-range finite values clamp to edge cells (a caller with
	// loose bounds still gets sane geometry), but a non-finite value
	// fails both clamp comparisons and would land in an arbitrary
	// cell, poisoning base-cell centroids and any EVT calibration —
	// so ingestion rejects the batch before touching any state.
	ErrNonFinite = errors.New("stream: non-finite coordinate")
)

// Config parameterizes a Detector.
type Config struct {
	// Dims is the dimensionality d of the data space.
	Dims int
	// Phi is the number of equi-width intervals per dimension.
	Phi int
	// MaxSubspaceDim bounds the arity of fixed-group SST subspaces
	// (paper default 3; capped at the space dimensionality).
	MaxSubspaceDim int
	// Shards is the number of independent workers the SST is
	// partitioned across. 1 disables parallelism.
	Shards int
	// Lambda is the exponential fading factor λ; a point observed Δt
	// ticks ago weighs 2^(-λΔt).
	Lambda float64
	// Decay optionally injects a precomputed decay table to use instead
	// of building a private one. Decay tables are immutable after
	// construction (~32 KiB each), so a process hosting many detectors
	// with the same Lambda — spotd's multi-tenant registry — shares one
	// table across all of them. Must satisfy Decay.Lambda() == Lambda;
	// nil builds a private table. Never serialized: a snapshot records
	// Lambda and a restored detector takes whatever table its restore
	// Config supplies.
	Decay *core.DecayTable
	// Min and Max bound the data space per dimension; nil defaults to
	// the unit box [0,1). Out-of-range values clamp to edge cells.
	Min, Max []float64
	// RDThreshold flags a cell whose Relative Density — decayed cell
	// density over the expected density under uniformity — falls
	// below it. The primary sparsity test for low-arity subspaces.
	// Note the floor: a just-touched cell has Dc ≥ 1 and the decayed
	// stream weight asymptotes at 1/(1-2^-λ), so RD ≥ φ^k·(1-2^-λ);
	// with the defaults (φ=8, λ=0.002) that is ~0.089 for arity-2 and
	// ~0.71 for arity-3 — above the default threshold, meaning the
	// uniform RD test alone cannot flag outliers in multi-dimensional
	// subspaces there. RDPopulatedThreshold closes that gap once epoch
	// sweeps run; IkRD/IRSD are arity-independent throughout.
	RDThreshold float64
	// RDPopulatedThreshold is the arity-aware companion to RDThreshold:
	// it flags a cell whose decayed density falls below this fraction
	// of the average *populated* cell density among same-arity
	// subspaces, as measured by the latest epoch sweep. Comparing
	// against populated cells rather than the φ^k uniform expectation
	// removes the arity floor, so the RD test can fire in 2-D/3-D
	// subspaces. Inactive until the first sweep; requires EpochTicks.
	// ≤0 disables.
	RDPopulatedThreshold float64
	// IRSDThreshold flags a cell whose Inverse Relative Standard
	// Deviation falls below it. IRSD = 1/(1+z) with z the deviation
	// of the cell's mean member magnitude from the subspace mean, in
	// subspace standard deviations: low IRSD means the cell sits far
	// out in the subspace's magnitude distribution. ≤0 disables.
	IRSDThreshold float64
	// IkRDThreshold flags a cell whose Inverse k-Relative Distance
	// falls below it. IkRD = 1 - dist/maxDist where dist is the mean
	// grid (L1) distance from the cell to the subspace's k densest
	// (representative) cells: low IkRD means the cell is far from
	// every dense region of the subspace. ≤0 disables.
	IkRDThreshold float64
	// K is the number of representative cells per subspace for IkRD.
	K int
	// Warmup is the minimum decayed subspace weight before a subspace
	// may contribute verdicts; it suppresses false alarms while the
	// summaries are still forming. The decayed weight of an infinite
	// stream asymptotes at 1/(1-2^-λ), so Warmup must stay below that
	// bound or verdicts would be suppressed forever; New rejects such
	// configurations. Evolved subspaces start empty and warm up the
	// same way after promotion.
	Warmup float64
	// EpochTicks is the epoch length E: every E ticks the detector
	// sweeps all summary tables (eviction, density accounting, SST
	// evolution). 0 disables the epoch engine — summaries then grow
	// with every distinct cell ever touched, which is only safe for
	// stationary streams. At most math.MaxInt64: batches are split at
	// epoch boundaries in int arithmetic.
	EpochTicks uint64
	// EvictEpsilon is the eviction floor ε: a summary whose decayed
	// density at sweep time is below it is dropped. An evicted cell
	// that is touched again simply restarts from zero, so ε trades a
	// bounded bias (at most ε of forgotten weight) for bounded memory.
	// A summary of weight w is evicted after ~log2(w/ε)/λ untouched
	// ticks. 0 keeps sweeps but never evicts.
	EvictEpsilon float64
	// Evolver, when set, maintains the SST's self-evolving group: it is
	// consulted at every epoch boundary with the sweep's statistics and
	// may promote new subspaces into the template or demote stale ones.
	// Promoted subspaces are assigned to the least-loaded shard; the
	// hot path never observes a template mutation in flight. Requires
	// EpochTicks.
	Evolver sst.Evolver
	// SweepSparseRatio classifies a swept cell as sparse when its
	// decayed density is below this fraction of its subspace's average
	// populated-cell density; the per-subspace sparse counts feed the
	// Evolver's demotion decisions. 0 defaults to 0.1. Only meaningful
	// with an Evolver set.
	SweepSparseRatio float64
	// MaxExamples caps the labeled-example set retained for supervised
	// evolution (see Detector.MarkExample): when full, marking a new
	// example drops the oldest. 0 defaults to 256.
	MaxExamples int
	// ExampleTTL, when positive, expires examples more than this many
	// ticks old at each epoch sweep, so supervision follows the stream
	// instead of pinning subspaces to anomalies long gone. 0 retains
	// examples until displaced by MaxExamples.
	ExampleTTL uint64
	// Scoring retains per-subspace deviation magnitudes through the
	// verdict pass and folds them into one calibrated ensemble outlier
	// score per flagged point (see ProcessBatchScoredErr, Explain,
	// TopK). A scoring detector maintains attribution and the top-K on
	// every ingest call; a caller that wants the scores passes a score
	// buffer. Strictly additive: verdict bits are identical with
	// scoring on or off, and the hot path stays allocation-free — the
	// extra cost is recording (subspace, cell, measures, severity)
	// entries for flagged pairs and one merge-sort-fold per batch over
	// them, proportional to the flag rate, not the stream.
	Scoring bool
	// TopK, when positive, maintains a streaming top-K of the
	// highest-scoring points (see Detector.TopK): a bounded min-heap
	// whose entries fade with Lambda and are evicted below
	// EvictEpsilon at epoch sweeps. Requires Scoring. 0 disables.
	TopK int
	// AutoThreshold, when enabled (Risk > 0), replaces the fixed
	// RD/IRSD/IkRD verdict thresholds with EVT-calibrated ones: the
	// detector samples the per-point measure distribution on a
	// deterministic tick stride, fits a generalized Pareto lower tail
	// per (measure, arity) pair at every epoch sweep (internal/evt),
	// and publishes thresholds targeting the configured per-point
	// risk. The fixed thresholds still apply until the first
	// calibration lands, and RDPopulatedThreshold is subsumed
	// (per-arity RD calibration is the arity-aware test). Requires
	// EpochTicks. See Stats' Calibrations/AutoEffTrials for
	// observability.
	AutoThreshold AutoThreshold
}

// AutoThreshold configures EVT auto-thresholding (Config.AutoThreshold).
type AutoThreshold struct {
	// Risk is the target per-point false-alarm probability q: the
	// steady-state fraction of inlying points the detector should
	// flag. Must be in (0, 0.5); 0 disables auto-thresholding.
	Risk float64
	// Level is the POT anchor quantile of each measure census the
	// generalized Pareto tail is fitted below; 0 selects
	// evt.DefaultLevel (0.1). Must be below 0.5.
	Level float64
}

// DefaultConfig returns a starting configuration for a d-dimensional
// stream over the unit box. The epoch engine is on by default: sweeps
// every 2048 ticks with a conservative eviction floor, and the
// arity-aware RD test enabled.
func DefaultConfig(d int) Config {
	return Config{
		Dims:                 d,
		Phi:                  8,
		MaxSubspaceDim:       3,
		Shards:               1,
		Lambda:               0.002,
		RDThreshold:          0.05,
		RDPopulatedThreshold: 0.05,
		IRSDThreshold:        0.12,
		IkRDThreshold:        0.15,
		K:                    3,
		Warmup:               200,
		EpochTicks:           2048,
		EvictEpsilon:         1e-6,
	}
}

// job is the unit of work handed to shard workers: either a batch of n
// points starting at stream tick t0+1 in dimension-major (transposed)
// layout together with its precomputed discretization plane, or
// (sweep=true) an epoch-sweep order for the shard's cell table at tick
// t0. The transposed layout — column dim occupies [dim*n, (dim+1)*n) —
// lets the shards' subspace-major passes stream each member dimension
// sequentially instead of striding across point rows.
type job struct {
	flatT  []float64 // n×Dims point values, one column per dimension
	planeT []uint8   // n×Dims interval indices, one column per dimension
	n      int
	t0     uint64
	sweep  bool
	eps    float64
}

// Detector is SPOT's streaming engine. It is not safe for concurrent
// use by multiple callers; one goroutine drives ProcessBatchScoredErr
// and the detector fans work out internally.
type Detector struct {
	cfg    Config
	grid   *core.Grid
	tmpl   *sst.Template
	decay  *core.DecayTable
	shards []*shard
	owner  []int32 // subspace ID -> owning shard index
	tick   uint64

	// Base Cell Summaries over the full d-dimensional space; owned by
	// the dispatcher goroutine, updated while shard workers run. Nil
	// without an Evolver: the evolver is the table's only reader.
	bcs *core.BCSTable

	// Discretization plane of the current batch: the n×Dims interval
	// indices, computed once by the dispatcher and read by every shard
	// — without it each of the Shards workers would re-discretize every
	// point, multiplying that work by the shard count. plane is
	// row-major (per point, for the base-cell table); planeT and flatT
	// are the dimension-major transposes the shards consume.
	plane  []uint8
	planeT []uint8
	flatT  []float64

	// Labeled outlier examples for supervised evolution, newest last;
	// owned by the dispatcher goroutine (MarkExample runs between
	// batches) and handed to the Evolver at epoch boundaries.
	examples []sst.Example

	// Epoch-engine state: the per-arity average populated-cell
	// densities as of the last sweep (read by shards during
	// processing, written only between batches with workers idle),
	// reusable sweep buffers, and lifetime counters.
	popAvg     [core.MaxSubspaceDims + 1]float64
	perSub     []sst.SubspaceStats
	baseCells  []sst.BaseCell
	coordArena []uint8
	counters   epochCounters

	// Scoring state (Config.Scoring): the merged, (point, subspace)-
	// sorted attribution entries of the most recent ingest call (what
	// Explain reads), the preallocated sorter over it, the internal
	// score buffer for ingest calls that pass nil scores, and the
	// streaming top-K heap (nil unless Config.TopK > 0).
	attr         attrBuf
	sorter       attrSorter
	scoreScratch []float64
	topk         *topK

	// EVT auto-thresholding state (nil unless Config.AutoThreshold is
	// enabled); owned by the dispatcher, refit at epoch sweeps.
	auto *autoState

	jobs      []chan job
	done      chan struct{}
	workers   sync.WaitGroup
	workersUp bool
	closed    bool
}

// New builds a Detector from cfg.
func New(cfg Config) (*Detector, error) {
	if cfg.Dims < 1 {
		return nil, fmt.Errorf("stream: Dims must be positive, got %d", cfg.Dims)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("stream: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.Lambda <= 0 {
		return nil, fmt.Errorf("stream: Lambda must be positive, got %g", cfg.Lambda)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("stream: K must be positive, got %d", cfg.K)
	}
	if cap := 1 / (1 - math.Exp2(-cfg.Lambda)); cfg.Warmup >= cap {
		return nil, fmt.Errorf("stream: Warmup %g is unreachable: decayed stream weight asymptotes at %.1f for Lambda=%g",
			cfg.Warmup, cap, cfg.Lambda)
	}
	if cfg.Decay != nil && cfg.Decay.Lambda() != cfg.Lambda {
		return nil, fmt.Errorf("stream: shared decay table built for Lambda=%g, config says %g",
			cfg.Decay.Lambda(), cfg.Lambda)
	}
	if cfg.EpochTicks > math.MaxInt64 {
		return nil, fmt.Errorf("stream: EpochTicks must be at most %d (math.MaxInt64), got %d", int64(math.MaxInt64), cfg.EpochTicks)
	}
	if cfg.EvictEpsilon < 0 {
		return nil, fmt.Errorf("stream: EvictEpsilon must be non-negative, got %g", cfg.EvictEpsilon)
	}
	if at := cfg.AutoThreshold; at.Risk != 0 || at.Level != 0 {
		if at.Risk == 0 {
			return nil, fmt.Errorf("stream: AutoThreshold.Level is set but Risk is not (Risk enables auto-thresholding)")
		}
		if at.Risk <= 0 || at.Risk >= 0.5 {
			return nil, fmt.Errorf("stream: AutoThreshold.Risk must be in (0, 0.5), got %g", at.Risk)
		}
		if at.Level < 0 || at.Level >= 0.5 {
			return nil, fmt.Errorf("stream: AutoThreshold.Level must be in [0, 0.5), got %g", at.Level)
		}
		if cfg.EpochTicks == 0 {
			return nil, fmt.Errorf("stream: AutoThreshold requires EpochTicks > 0 (calibration runs at epoch sweeps)")
		}
	}
	if cfg.EpochTicks == 0 {
		if cfg.Evolver != nil {
			return nil, fmt.Errorf("stream: an Evolver requires EpochTicks > 0 (it runs at epoch boundaries)")
		}
		if cfg.RDPopulatedThreshold > 0 {
			return nil, fmt.Errorf("stream: RDPopulatedThreshold requires EpochTicks > 0 (its reference densities come from sweeps)")
		}
	}
	if cfg.SweepSparseRatio == 0 {
		cfg.SweepSparseRatio = 0.1
	}
	if cfg.SweepSparseRatio < 0 || cfg.SweepSparseRatio >= 1 {
		return nil, fmt.Errorf("stream: SweepSparseRatio must be in (0,1), got %g", cfg.SweepSparseRatio)
	}
	if cfg.MaxExamples == 0 {
		cfg.MaxExamples = 256
	}
	if cfg.MaxExamples < 0 {
		return nil, fmt.Errorf("stream: MaxExamples must be non-negative, got %d", cfg.MaxExamples)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("stream: TopK must be non-negative, got %d", cfg.TopK)
	}
	if cfg.TopK > 0 && !cfg.Scoring {
		return nil, fmt.Errorf("stream: TopK requires Scoring (the heap ranks ensemble scores)")
	}
	min, max := cfg.Min, cfg.Max
	if min == nil && max == nil {
		min = make([]float64, cfg.Dims)
		max = make([]float64, cfg.Dims)
		for i := range max {
			max[i] = 1
		}
	}
	grid, err := core.NewGrid(cfg.Phi, min, max)
	if err != nil {
		return nil, err
	}
	if grid.Dims() != cfg.Dims {
		return nil, fmt.Errorf("stream: bounds cover %d dims, config says %d", grid.Dims(), cfg.Dims)
	}
	tmpl, err := sst.NewFixed(cfg.Dims, cfg.MaxSubspaceDim)
	if err != nil {
		return nil, err
	}
	decay := cfg.Decay
	if decay == nil {
		decay = core.NewDecayTable(cfg.Lambda)
	}
	d := &Detector{
		cfg:   cfg,
		grid:  grid,
		tmpl:  tmpl,
		decay: decay,
	}
	if cfg.Evolver != nil {
		d.bcs = core.NewBCSTable(cfg.Dims)
	}
	if cfg.TopK > 0 {
		d.topk = newTopK(cfg.TopK, cfg.Lambda)
	}
	if cfg.AutoThreshold.Risk > 0 {
		d.auto = newAutoState(cfg.AutoThreshold, cfg.EpochTicks)
	}
	// Round-robin partition of subspace IDs. The template enumerates
	// by increasing arity, so round-robin also balances the arity mix
	// (and therefore per-point work) across shards.
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = newShard(d, i)
	}
	d.owner = make([]int32, tmpl.Count())
	for id := 0; id < tmpl.Count(); id++ {
		sh := id % cfg.Shards
		d.owner[id] = int32(sh)
		d.shards[sh].addSubspace(uint32(id))
	}
	return d, nil
}

// Template exposes the detector's SST. Callers must treat it as
// read-only and must not hold references across ingest calls when an
// Evolver is configured (the epoch path mutates it).
func (d *Detector) Template() *sst.Template { return d.tmpl }

// Tick returns the number of points ingested so far.
func (d *Detector) Tick() uint64 { return d.tick }

// ProcessBatchScoredErr is the detector's one ingest call. It ingests a
// flat row-major batch (len(flat) = n*Dims), writes one verdict per
// point into out[0:n] and returns n; a pointwise caller passes one
// Dims-long point with a 1-slot out. The batch is processed by all
// shard workers in parallel, and a batch that crosses an epoch
// boundary is split internally so sweeps still run at exact epoch
// ticks: verdicts do not depend on how the stream is cut into calls.
// Once the cells a batch touches exist, the call performs zero heap
// allocations; the amortized exception is the epoch sweep every
// Config.EpochTicks points.
//
// scores is optional. nil asks for no scores; a scoring detector still
// maintains attribution (Explain) and the top-K. A non-nil buffer
// receives each point's ensemble outlier score in scores[0:n] — 0 when
// no subspace flagged the point, otherwise the noisy-OR combination of
// the flagged subspaces' severities in (0,1], so scores[i] > 0 iff
// out[i] — and requires Config.Scoring.
//
// Input contract: out-of-range finite coordinates clamp to edge cells.
// A malformed call returns a typed error before any state is touched,
// checked in this order: ErrClosed after Close; ErrScoringDisabled for
// a non-nil scores (even an empty one) without Config.Scoring;
// ErrBatchLength when len(flat) is not a multiple of Dims;
// ErrVerdictBuffer when out has fewer than n slots (so a multi-point
// slice passed with a 1-slot out is rejected, not ingested);
// ErrNonFinite when a coordinate is NaN or ±Inf; ErrScoreBuffer when a
// non-nil scores has fewer than n slots. An empty batch returns
// (0, nil). Only out[0:n] and scores[0:n] are written; longer buffers
// keep their tail.
func (d *Detector) ProcessBatchScoredErr(flat []float64, out []bool, scores []float64) (int, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if scores != nil && !d.cfg.Scoring {
		return 0, ErrScoringDisabled
	}
	if len(flat)%d.cfg.Dims != 0 {
		return 0, fmt.Errorf("%w: %d values over %d dims", ErrBatchLength, len(flat), d.cfg.Dims)
	}
	n := len(flat) / d.cfg.Dims
	if n == 0 {
		return 0, nil
	}
	if len(out) < n {
		return 0, fmt.Errorf("%w: %d slots for %d points", ErrVerdictBuffer, len(out), n)
	}
	if err := checkFinite(flat, d.cfg.Dims); err != nil {
		return 0, err
	}
	if scores != nil && len(scores) < n {
		return 0, fmt.Errorf("%w: %d slots for %d points", ErrScoreBuffer, len(scores), n)
	}
	switch {
	case scores != nil:
		scores = scores[:n]
	case d.cfg.Scoring:
		// A nil-scores call still maintains attribution and the top-K
		// (scoring is a property of the detector, not of the call); the
		// scores land in the internal scratch.
		if cap(d.scoreScratch) < n {
			d.scoreScratch = make([]float64, n)
		}
		scores = d.scoreScratch[:n]
	}
	d.processBatches(flat, n, out, scores)
	return n, nil
}

// checkFinite rejects NaN and ±Inf coordinates; v-v is 0 for every
// finite v and NaN for the three non-finite values, so the scan is
// one subtract-and-compare per value.
func checkFinite(flat []float64, dims int) error {
	for i, v := range flat {
		if v-v != 0 {
			return fmt.Errorf("%w: value %g at point %d dim %d", ErrNonFinite, v, i/dims, i%dims)
		}
	}
	return nil
}

// processBatches splits a validated batch at epoch boundaries and runs
// the chunks. scores is nil when scoring is disabled, else exactly n
// slots; attribution point indices are offset by each chunk's base so
// Explain indexes the whole call.
func (d *Detector) processBatches(flat []float64, n int, out []bool, scores []float64) {
	if d.cfg.Scoring {
		d.attr.reset()
	}
	if d.cfg.EpochTicks == 0 {
		d.runBatch(flat, n, out, scores, 0)
		return
	}
	for done := 0; done < n; {
		chunk := n - done
		if rem := int(d.cfg.EpochTicks - d.tick%d.cfg.EpochTicks); chunk > rem {
			chunk = rem
		}
		var sc []float64
		if scores != nil {
			sc = scores[done : done+chunk]
		}
		d.runBatch(flat[done*d.cfg.Dims:(done+chunk)*d.cfg.Dims], chunk, out[done:done+chunk], sc, done)
		done += chunk
		d.maybeSweep()
	}
}

// runBatch dispatches one (sub-)batch of n points to the shard workers
// and merges their verdict bitsets into out. The dispatcher first
// computes the batch's discretization plane — one n×Dims pass instead
// of one per shard — then overlaps the base-cell updates with the
// workers; the shards' verdict bitsets are OR-merged word-wise and
// expanded to out once. With scoring enabled the shards' attribution
// entries are then merged and folded into scores (see mergeScores);
// base is the chunk's offset within the caller's batch.
func (d *Detector) runBatch(flat []float64, n int, out []bool, scores []float64, base int) {
	t0 := d.tick
	d.tick += uint64(n)
	dims := d.cfg.Dims
	if cap(d.plane) < n*dims {
		d.plane = make([]uint8, n*dims)
		d.planeT = make([]uint8, n*dims)
		d.flatT = make([]float64, n*dims)
	}
	plane := d.plane[:n*dims]
	planeT := d.planeT[:n*dims]
	flatT := d.flatT[:n*dims]
	for i := 0; i < n; i++ {
		row := flat[i*dims : (i+1)*dims]
		prow := plane[i*dims : (i+1)*dims]
		d.grid.Intervals(row, prow)
		for j := 0; j < dims; j++ {
			planeT[j*n+i] = prow[j]
			flatT[j*n+i] = row[j]
		}
	}
	if !d.workersUp {
		d.startWorkers()
	}
	for _, ch := range d.jobs {
		ch <- job{flatT: flatT, planeT: planeT, n: n, t0: t0}
	}
	// The dispatcher goroutine owns the base-cell table; updating it
	// here overlaps with the shard workers instead of serializing
	// after them, reusing the plane rows it just computed.
	if d.bcs != nil {
		for i := 0; i < n; i++ {
			d.bcs.Touch(d.decay, t0+uint64(i)+1, plane[i*dims:(i+1)*dims], nil)
		}
	}
	for range d.shards {
		<-d.done
	}
	merged := d.shards[0].verdict
	for _, sh := range d.shards[1:] {
		for w, v := range sh.verdict {
			merged[w] |= v
		}
	}
	for i := 0; i < n; i++ {
		out[i] = merged[i>>6]&(1<<(uint(i)&63)) != 0
	}
	if d.auto != nil {
		var flags uint64
		for _, w := range merged {
			flags += uint64(bits.OnesCount64(w))
		}
		d.auto.countFlags(uint64(n), flags)
	}
	if d.cfg.Scoring {
		d.mergeScores(n, t0, base, scores)
	}
}

func (d *Detector) startWorkers() {
	d.jobs = make([]chan job, len(d.shards))
	d.done = make(chan struct{}, len(d.shards))
	d.workers.Add(len(d.shards))
	for i, sh := range d.shards {
		ch := make(chan job, 1)
		d.jobs[i] = ch
		go func(sh *shard) {
			defer d.workers.Done()
			for jb := range ch {
				if jb.sweep {
					sh.sweepEvicted = sh.sweep(jb.t0, jb.eps, d.perSub)
				} else {
					sh.processBatch(jb)
				}
				d.done <- struct{}{}
			}
		}(sh)
	}
	d.workersUp = true
}

// Close stops the shard workers and waits for them to exit: when it
// returns, no detector goroutine remains, so a host tearing a tenant
// down (or swapping in a migrated replacement) can free or reuse its
// resources immediately. Close is idempotent — the second and every
// later call is a no-op — and safe on a detector whose workers never
// started. After Close the ingest call, Snapshot and MarkExample fail
// with ErrClosed; Close must be called from the goroutine that drives
// ingestion, between calls, like every other non-ingest operation.
func (d *Detector) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.workersUp {
		for _, ch := range d.jobs {
			close(ch)
		}
		d.workers.Wait()
	}
}

// MarkExample records the point as a caller-confirmed outlier example —
// the supervised feedback channel of the paper's example-driven SST
// group. The detector keeps the example's full-space interval
// coordinates (not the point itself) and hands the retained set to the
// configured sst.Evolver at the next epoch boundary, where a supervised
// evolver (sst.MOGA) searches for the subspaces in which the examples
// look maximally anomalous. At most Config.MaxExamples are retained
// (oldest dropped first) and Config.ExampleTTL bounds their age.
//
// MarkExample must be called from the goroutine driving ingestion,
// between calls — typically right after a flagged point is confirmed
// by the caller's feedback loop. It never touches the ingestion hot
// path: no shard state is read or written. A closed detector, a point
// whose length is not Dims or a non-finite coordinate returns a typed
// error (ErrClosed, ErrBatchLength, ErrNonFinite) and records nothing.
func (d *Detector) MarkExample(point []float64) error {
	if d.closed {
		return ErrClosed
	}
	if len(point) != d.cfg.Dims {
		return fmt.Errorf("%w: point has %d values, want %d", ErrBatchLength, len(point), d.cfg.Dims)
	}
	if err := checkFinite(point, d.cfg.Dims); err != nil {
		return err
	}
	coords := make([]uint8, d.cfg.Dims)
	d.grid.Intervals(point, coords)
	if len(d.examples) >= d.cfg.MaxExamples {
		n := copy(d.examples, d.examples[len(d.examples)-d.cfg.MaxExamples+1:])
		d.examples = d.examples[:n]
	}
	d.examples = append(d.examples, sst.Example{Coords: coords, Tick: d.tick})
	return nil
}

package stream

import (
	"math"

	"spot/internal/core"
	"spot/internal/sst"
)

// repEmpty marks an unused representative slot; no real cell key uses
// subspace ID 2^24-1 together with all-ones coordinates.
const repEmpty = ^uint64(0)

// repDecayStride is how many ticks of fading may accumulate on the
// representative densities before they are brought current. Kept below
// the decay table size so the refresh stays a table lookup.
const repDecayStride = 32

// subspaceState is the per-subspace state a shard owns exclusively,
// laid out so one sequential walk over the states slice brings
// everything processBatch needs into cache: the subspace's member
// dimensions and packed-key base (copied out of the shared template at
// addSubspace time, so the hot loop never chases the template), the
// arity-derived constants, the decayed subspace totals (density plus
// magnitude moments, reusing PCS), and the greedily-maintained
// representative (densest-cell) set for IkRD.
type subspaceState struct {
	// Flattened subspace layout: member dimensions inline (first size
	// entries used) and the subspace ID pre-shifted into key position.
	dims    [core.MaxSubspaceDims]uint16
	keyBase uint64 // uint64(sid) << core.SubspaceShift

	total core.PCS // subspace-wide decayed totals

	// repsLast is the tick the subspace's representative densities
	// (kept in the shard's contiguous repKeys/repDcs arrays) were last
	// faded to. repMin/repMinI cache the sparsest representative so the
	// hot path can reject most touches with one compare: a cell's
	// stored representative density never exceeds the cell's current
	// density, so dc ≤ repMin means the touch can neither displace the
	// minimum nor meaningfully refresh a slot.
	repsLast uint64
	repMin   float64
	repMinI  int32

	// popFloor is the precomputed arity-aware RD flag threshold:
	// Config.RDPopulatedThreshold times the latest sweep's average
	// populated-cell density of this arity, zero while disabled or
	// before the first sweep. Refreshing it per sweep turns the hot
	// path's test into one compare against a cache-resident field.
	popFloor float64

	// rdThr/irsdThr/ikrdThr are the subspace's verdict thresholds for
	// the three measures. Without auto-thresholding they are exact
	// copies of the Config values (set once at addSubspace, so the hot
	// path reads the same cache line as the rest of the state instead
	// of the shared config); with Config.AutoThreshold they are
	// overwritten at every sweep with the calibrated per-arity
	// thresholds (refreshAutoThresholds).
	rdThr   float64
	irsdThr float64
	ikrdThr float64

	size       uint8   // subspace arity
	phiPow     float64 // φ^arity, the cell count under uniformity
	invMaxDist float64 // 1/((φ-1)*arity); 0 when φ==1

	// skipCoalesce is the adaptive gate of the coalesced batch path:
	// when a grouping pass finds almost no duplication (distinct cells
	// above the coalesceDupNum/coalesceDupDen fraction of the batch),
	// the next skipCoalesce batches of this subspace take the fused
	// per-point TouchCols instead, then one batch re-groups to
	// re-measure. Duplication is a property of the
	// subspace's projection (low-arity subspaces have few cells, high-
	// arity ones many), so the gate is per subspace; it depends only on
	// the subspace's own stream, never on shard layout, and both paths
	// produce bit-identical summaries, so verdicts are unaffected.
	skipCoalesce uint8
}

// shard owns an exclusive partition of the SST: the cell table, totals
// and representatives of its subspaces. Only one goroutine ever touches
// a shard's state while points flow, so the hot path is lock-free.
// Epoch sweeps run on the shard workers themselves when there is more
// than one shard, inline on the dispatcher otherwise (each shard's
// table is exclusive either way); evolved-subspace add/remove always
// runs on the dispatcher with workers idle.
type shard struct {
	det  *Detector
	id   int
	subs []uint32 // subspace IDs owned by this shard

	states []subspaceState
	table  *core.PCSTable // cell key -> PCS, sweepable

	// Batch scratch, one entry per point of the current batch (the
	// subspace-major tiling of processBatch reuses the arrays for one
	// subspace at a time), plus the column headers handed to
	// core.TouchCols.
	bKeys []uint64
	bMags []float64
	bSS   []float64
	bDcs  []float64
	colC  [][]uint8
	colV  [][]float64

	// Representatives: the k densest cells of every owned subspace,
	// maintained greedily in O(k) per touch, never a table scan.
	// Subspace li owns entries [li*K, (li+1)*K). One contiguous
	// backing per shard keeps the per-touch rep scan on the same
	// cache-resident stride as the states walk instead of chasing
	// per-subspace heap slices. repDcs fades with the stream so a
	// once-dense cell whose cluster drifts away is eventually evicted
	// instead of lingering as a ghost representative; all of a
	// subspace's slots decay by the same factor, so one shared
	// repsLast tick covers its set, and because decay factors compose
	// the refresh is batched every repDecayStride ticks — densities
	// are stale by at most one stride, which biases no comparison
	// meaningfully but cuts the hot-path multiplies 32×.
	repKeys []uint64
	repDcs  []float64

	verdict []uint64 // per-batch verdict bitset

	// grouper is the batch-coalescing scratch, shared across the
	// shard's subspaces: one subspace groups, folds and finishes its
	// verdict pass before the next subspace regroups, so a single
	// grouper per shard keeps the whole coalesced path at zero
	// steady-state allocations. coalPoints/coalDistinct/coalGroupings
	// count the points, distinct cells and passes of every grouping —
	// the duplication statistics Stats and the bench harness report.
	grouper       core.Grouper
	coalPoints    uint64
	coalDistinct  uint64
	coalGroupings uint64

	sweepEvicted int           // eviction count of the last sweep (read after workers sync)
	sweepEvolved []evolvedCell // per-sweep scratch: surviving evolved-subspace cells

	// Auto-threshold sample buffers (Config.AutoThreshold): the
	// shard's per-(measure, arity) minima of the per-point measure
	// values at each sampled tick slot of the current epoch (+Inf when
	// no warm owned subspace contributed). Min-merged across shards by
	// the dispatcher's autoRefit after the sweep joins, then reset.
	autoSamp [autoMeasures][core.MaxSubspaceDims + 1][]float64

	// attr collects this shard's attribution entries for the current
	// batch when Config.Scoring is set: one entry per flagged
	// (subspace, cell) pair, point indices relative to the chunk. The
	// shard writes it lock-free during its verdict pass; the
	// dispatcher reads it after the batch joins, merges across shards
	// and sorts, so scores never depend on the shard layout.
	attr attrBuf
}

// Adaptive-gate constants of the coalesced batch path: a grouping pass
// that finds more than (coalesceDupNum/coalesceDupDen)·n distinct
// cells — i.e. almost every point in its own cell, so
// one-probe-per-cell saves nothing over one-probe-per-point — sends
// the subspace to the fused TouchCols for coalesceBackoff batches
// before re-measuring. (Sub-)batches under coalesceMinBatch points — a
// pointwise call, a small caller batch, or an epoch split cutting a
// batch to a handful — take the fused path outright, without touching
// the gate: their distinct ratio is high by construction and grouping
// them would pay the scratch-index clear for nothing.
const (
	coalesceBackoff  = 31
	coalesceMinBatch = 64
	coalesceDupNum   = 7
	coalesceDupDen   = 8
)

// evolvedCell is a surviving evolved-subspace cell recorded during a
// sweep, revisited for sparse classification once its subspace's
// average is known.
type evolvedCell struct {
	sid uint32
	dc  float64
}

func newShard(d *Detector, id int) *shard {
	s := &shard{
		det:   d,
		id:    id,
		table: core.NewPCSTable(),
		colC:  make([][]uint8, 0, core.MaxSubspaceDims),
		colV:  make([][]float64, 0, core.MaxSubspaceDims),
	}
	if d.auto != nil {
		for m := range s.autoSamp {
			for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
				s.autoSamp[m][ar] = make([]float64, d.auto.nSlots)
			}
		}
		s.resetAutoSamples()
	}
	return s
}

// addSubspace hands the shard ownership of subspace id, flattening the
// subspace's dimensions and constants into the shard-local state so the
// hot path never reads the shared template. Called at construction for
// the fixed group and from the epoch path for promoted evolved
// subspaces; never while workers are processing.
func (s *shard) addSubspace(id uint32) {
	s.subs = append(s.subs, id)
	phi := s.det.grid.Phi()
	size := s.det.tmpl.Size(int(id))
	st := subspaceState{
		keyBase: uint64(id) << core.SubspaceShift,
		size:    uint8(size),
		phiPow:  math.Pow(float64(phi), float64(size)),
		rdThr:   s.det.cfg.RDThreshold,
		irsdThr: s.det.cfg.IRSDThreshold,
		ikrdThr: s.det.cfg.IkRDThreshold,
	}
	copy(st.dims[:], s.det.tmpl.Dims(int(id)))
	if phi > 1 {
		st.invMaxDist = 1 / float64((phi-1)*size)
	}
	s.states = append(s.states, st)
	for i := 0; i < s.det.cfg.K; i++ {
		s.repKeys = append(s.repKeys, repEmpty)
		s.repDcs = append(s.repDcs, 0)
	}
}

// removeSubspace drops a demoted subspace: its per-subspace state goes
// by swap-remove and every one of its cells is purged from the table so
// a later reuse of the ID starts from nothing. Epoch-path only.
func (s *shard) removeSubspace(id uint32) {
	for i, sid := range s.subs {
		if sid != id {
			continue
		}
		last := len(s.subs) - 1
		s.subs[i] = s.subs[last]
		s.subs = s.subs[:last]
		s.states[i] = s.states[last]
		s.states = s.states[:last]
		k := s.det.cfg.K
		copy(s.repKeys[i*k:(i+1)*k], s.repKeys[last*k:(last+1)*k])
		copy(s.repDcs[i*k:(i+1)*k], s.repDcs[last*k:(last+1)*k])
		s.repKeys = s.repKeys[:last*k]
		s.repDcs = s.repDcs[:last*k]
		break
	}
	s.table.EvictIf(func(key uint64) bool {
		return uint32(key>>core.SubspaceShift) == id
	})
}

// processBatch is the shard's only ingest pass: it folds a batch of n
// points (n == 1 for a one-point call) into every owned subspace and
// records verdicts in the shard-local bitset (OR-merged word-wise by
// the dispatcher).
//
// The batch is processed subspace-major: for each owned subspace, all n
// points are touched and evaluated before moving to the next subspace.
// One subspace's points revisit a small recurring cell set, so its
// index buckets, cell lines and representative set stay L1-resident
// across the whole batch — where a point-major order would re-stream
// the entire cell table (hundreds of KiB) once per point. Within a
// subspace every point runs in tick order, and subspaces share no
// state, so verdicts do not depend on how a stream is cut into batches.
//
// Pass A+B come in two equivalent flavors. The default coalesced path
// assembles the subspace's keys, groups the batch by cell
// (core.Grouper) and probes the table once per *distinct* cell, folding
// each cell's run of touches with the summary in registers
// (core.TouchRuns) — on a dense stream most of a batch lands in a few
// cells per subspace, so the per-point index probe and cell-line
// traffic collapse into one per cell. The fused TouchCols
// (assemble+probe+fold per point) takes batches under
// coalesceMinBatch points and the subspaces whose adaptive gate saw no
// duplication worth grouping. Both fold the identical arithmetic in
// the identical per-cell tick order, so summaries — and therefore
// verdicts — are bit-identical either way.
func (s *shard) processBatch(jb job) {
	words := (jb.n + 63) >> 6
	if cap(s.verdict) < words {
		s.verdict = make([]uint64, words)
	} else {
		s.verdict = s.verdict[:words]
		clear(s.verdict)
	}
	n := jb.n
	if cap(s.bMags) < n {
		s.bKeys = make([]uint64, n)
		s.bMags = make([]float64, n)
		s.bSS = make([]float64, n)
		s.bDcs = make([]float64, n)
	}
	keys := s.bKeys[:n]
	mags := s.bMags[:n]
	ss := s.bSS[:n]
	dcs := s.bDcs[:n]
	verdict := s.verdict
	decay := s.det.decay
	cfg := &s.det.cfg
	tbl := s.table
	warmup := cfg.Warmup
	k := cfg.K
	scoring := cfg.Scoring
	if scoring {
		s.attr.reset()
	}
	f1 := decay.At(1)
	flatT, planeT := jb.flatT, jb.planeT
	// Auto-thresholding samples the per-point measure values on a
	// deterministic tick stride; batches never cross an epoch
	// boundary, so the slot of tick t0+i+1 depends on the tick alone.
	auto := s.det.auto
	rb := 0
	for li := range s.states {
		st := &s.states[li]
		repKey := s.repKeys[rb : rb+k]
		repDc := s.repDcs[rb : rb+k]
		rb += k
		cc := s.colC[:0]
		vv := s.colV[:0]
		for j := 0; j < int(st.size); j++ {
			off := int(st.dims[j]) * n
			cc = append(cc, planeT[off:off+n])
			vv = append(vv, flatT[off:off+n])
		}
		// Pass A+B: coalesced (group by cell, one probe per distinct
		// cell, run folds) unless a small batch (nothing to amortize,
		// and grouping would clear the steady-state-sized scratch index
		// per subspace for it) or the adaptive gate routes this subspace
		// to the fused per-point TouchCols.
		if n < coalesceMinBatch || st.skipCoalesce > 0 {
			if n >= coalesceMinBatch {
				st.skipCoalesce--
			}
			tbl.TouchCols(decay, jb.t0, st.keyBase, cc, vv, keys, mags, ss, dcs)
		} else {
			core.AssembleCols(st.keyBase, cc, vv, keys, mags)
			s.grouper.Group(keys)
			distinct := s.grouper.Groups()
			s.coalPoints += uint64(n)
			s.coalDistinct += uint64(distinct)
			s.coalGroupings++
			tbl.TouchRuns(decay, jb.t0, &s.grouper, mags, ss, dcs)
			if distinct*coalesceDupDen > n*coalesceDupNum {
				st.skipCoalesce = coalesceBackoff
			}
		}
		// Pass C: totals fold (the body of PCS.Touch, inlined), IkRD
		// representative upkeep and verdicts, per point in tick order —
		// each point's verdict compares against the subspace totals as
		// of its own tick. The subspace's scalar state lives in locals
		// across the loop (written back once) so the per-point work
		// reads registers, not the state struct.
		tt := &st.total
		tdc, ts, tq, tlast := tt.Dc, tt.S, tt.Q, tt.Last
		repMin, repMinI, repsLast := st.repMin, st.repMinI, st.repsLast
		phiPow, popFloor, rdThr := st.phiPow, st.popFloor, st.rdThr
		tick := jb.t0
		for i := 0; i < n; i++ {
			tick++
			m := mags[i]
			// Totals see every tick, so after the first point the fade
			// gap is exactly one — the hoisted f1 skips the table
			// lookup on the steady path.
			if tlast+1 == tick {
				tdc *= f1
				ts *= f1
				tq *= f1
				tlast = tick
			} else if tlast != tick {
				f := decay.At(tick - tlast)
				tdc *= f
				ts *= f
				tq *= f
				tlast = tick
			}
			tdc++
			ts += m
			tq += m * m
			key := keys[i]
			dc := dcs[i]
			// Fade the representative densities to the current tick in
			// strides (decay factors compose, so one batched multiply
			// per stride is exact up to rounding).
			if dt := tick - repsLast; dt >= repDecayStride {
				f := decay.At(dt)
				for j := range repDc {
					repDc[j] *= f
				}
				repMin *= f
				repsLast = tick
			}
			// Representative update behind the cached-minimum gate: a
			// touch with dc ≤ repMin can only be the minimum slot
			// refreshing itself with its unchanged density, a no-op.
			// Past the gate, refresh the slot this cell already holds
			// or displace the sparsest representative, recomputing the
			// cached minimum when it was the one written.
			if dc > repMin {
				found := -1
				if k == 3 {
					// Branchless slot find for the default K:
					// conditional moves instead of a loop whose exit
					// position the predictor cannot guess.
					if repKey[2] == key {
						found = 2
					}
					if repKey[1] == key {
						found = 1
					}
					if repKey[0] == key {
						found = 0
					}
				} else {
					for j := range repKey {
						if repKey[j] == key {
							found = j
							break
						}
					}
				}
				if found < 0 {
					found = int(repMinI)
					repKey[found] = key
				}
				repDc[found] = dc
				if found == int(repMinI) {
					repMin = repDc[0]
					repMinI = 0
					for j := 1; j < k; j++ {
						if repDc[j] < repMin {
							repMin = repDc[j]
							repMinI = int32(j)
						}
					}
				}
			}
			if tdc < warmup {
				continue
			}
			// rd := dc * phiPow / tdc, compared multiplicatively: the RD
			// flag test rd < rdThr and the IRSD/IkRD gate rd < 1 cost
			// one multiply each instead of a division per subspace.
			lhs := dc * phiPow
			if auto != nil {
				if slot := auto.sampleSlot(tick, cfg.EpochTicks); slot >= 0 {
					s.foldAutoSample(st, li, key, lhs, dc, ss[i], tdc, ts, tq, slot)
				}
			}
			// All-measures-pass exit, decided inline: a cell at or above
			// the RD threshold, the populated floor and the uniform
			// expectation cannot fire any measure, which is most cells.
			if lhs >= rdThr*tdc && dc >= popFloor && lhs >= tdc {
				continue
			}
			fired, sev := s.evaluate(st, li, key, lhs, dc, ss[i], tdc, ts, tq)
			if fired == 0 {
				continue
			}
			verdict[i>>6] |= 1 << (uint(i) & 63)
			if scoring {
				s.attr.add(int32(i), s.subs[li], key, fired, sev)
			}
		}
		tt.Dc, tt.S, tt.Q, tt.Last = tdc, ts, tq, tlast
		st.repMin, st.repMinI, st.repsLast = repMin, repMinI, repsLast
	}
}

// sweep is the shard's slice of the epoch sweep: one linear pass over
// the cell table evicting summaries whose decayed density fell below
// eps and accumulating per-subspace populated/total statistics. When an
// evolver needs sparse counts, surviving evolved-subspace cells (few —
// the fixed group dominates the table) are remembered during the same
// pass and classified against their subspace's average afterwards, so
// the extra work is proportional to the evolved group's cells, not the
// table. Each subspace is owned by exactly one shard, so concurrent
// shard sweeps write disjoint perSub entries — the dispatcher may run
// all shards' sweeps in parallel on the shard workers. Returns the
// eviction count.
func (s *shard) sweep(tick uint64, eps float64, perSub []sst.SubspaceStats) int {
	tmpl := s.det.tmpl
	collect := s.det.cfg.Evolver != nil
	s.sweepEvolved = s.sweepEvolved[:0]
	evicted := s.table.Sweep(s.det.decay, tick, eps, func(key uint64, dc float64) {
		sid := uint32(key >> core.SubspaceShift)
		sub := &perSub[sid]
		sub.Populated++
		sub.TotalDc += dc
		if collect && !tmpl.IsFixed(int(sid)) {
			s.sweepEvolved = append(s.sweepEvolved, evolvedCell{sid: sid, dc: dc})
		}
	})
	if evicted > 0 {
		s.purgeEvictedReps()
	}
	if collect {
		ratio := s.det.cfg.SweepSparseRatio
		for _, c := range s.sweepEvolved {
			sub := &perSub[c.sid]
			if c.dc < ratio*sub.TotalDc/float64(sub.Populated) {
				sub.Sparse++
			}
		}
	}
	return evicted
}

// purgeEvictedReps drops representative entries whose cells the sweep
// just evicted and refreshes each affected subspace's cached minimum.
// This keeps the hot path's repMin gate sound: the gate's invariant —
// a representative's stored density never exceeds its cell's current
// density — holds for live cells but breaks when an evicted cell is
// re-created from zero, which would otherwise leave a ghost
// representative pinning a dead cluster into IkRD for thousands of
// ticks. Cells are only evicted by sweeps, so checking here re-
// establishes the invariant for the whole epoch. O(subspaces · K)
// probes, once per sweep.
func (s *shard) purgeEvictedReps() {
	k := s.det.cfg.K
	for li := range s.states {
		st := &s.states[li]
		repKey := s.repKeys[li*k : li*k+k]
		repDc := s.repDcs[li*k : li*k+k]
		changed := false
		for i, key := range repKey {
			if key != repEmpty && !s.table.Contains(key) {
				repKey[i] = repEmpty
				repDc[i] = 0
				changed = true
			}
		}
		if changed {
			st.repMin = repDc[0]
			st.repMinI = 0
			for i := 1; i < k; i++ {
				if repDc[i] < st.repMin {
					st.repMin = repDc[i]
					st.repMinI = int32(i)
				}
			}
		}
	}
}

// refreshPopFloors recomputes every owned subspace's precomputed
// arity-aware RD floor from the detector's per-arity populated
// averages. Called from the epoch path after each sweep publishes new
// averages; the floor is zero when the test is disabled or the arity
// has no swept cells yet, which disables the hot path's compare.
func (s *shard) refreshPopFloors() {
	thr := s.det.cfg.RDPopulatedThreshold
	if thr <= 0 {
		return
	}
	for i := range s.states {
		st := &s.states[i]
		st.popFloor = thr * s.det.popAvg[st.size]
	}
}

// evaluate is the verdict for one warm (subspace, point) pair that
// failed the inline all-measures-pass exit: it tests RD, the populated
// floor and — behind the rd < 1 gate, since only cells below the
// uniform expectation can be relative-density outliers — IRSD and
// IkRD, returning every fired measure and the maximum normalized
// deficit (core.Deficit) among them. The point is outlying in this
// subspace iff fired != 0; a scoring detector also records the pair's
// attribution. The inputs are scalars snapshotted at the point's tick:
// the batch pass keeps the subspace totals in registers (st.total is
// written back only at batch end) and the cell keeps absorbing later
// points of the same batch, so neither may be re-read here.
func (s *shard) evaluate(st *subspaceState, li int, key uint64, lhs, dc, cellS, tdc, ts, tq float64) (core.Measure, float64) {
	var fired core.Measure
	var sev float64
	if rhs := st.rdThr * tdc; lhs < rhs {
		fired = core.MeasureRD
		sev = core.Deficit(lhs, rhs)
	}
	if dc < st.popFloor {
		fired |= core.MeasureRDPopulated
		if s2 := core.Deficit(dc, st.popFloor); s2 > sev {
			sev = s2
		}
	}
	if lhs >= tdc {
		return fired, sev
	}
	if st.irsdThr > 0 {
		if v, ok := irsd(cellS/dc, tdc, ts, tq); ok && v < st.irsdThr {
			fired |= core.MeasureIRSD
			if s2 := core.Deficit(v, st.irsdThr); s2 > sev {
				sev = s2
			}
		}
	}
	if st.ikrdThr > 0 {
		if v, ok := s.ikrd(st, li, key); ok && v < st.ikrdThr {
			fired |= core.MeasureIkRD
			if s2 := core.Deficit(v, st.ikrdThr); s2 > sev {
				sev = s2
			}
		}
	}
	return fired, sev
}

// irsd is the Inverse Relative Standard Deviation of a cell whose mean
// member magnitude is cellMean, against the subspace totals (tdc, ts,
// tq): 1/(1+z), with z the distance of the cell mean from the subspace
// mean in subspace standard deviations, so cells far out in the
// subspace's magnitude distribution score low. ok is false while the
// subspace has no spread.
func irsd(cellMean, tdc, ts, tq float64) (float64, bool) {
	mu := ts / tdc
	if v := tq/tdc - mu*mu; v > 0 {
		return 1 / (1 + math.Abs(cellMean-mu)/math.Sqrt(v)), true
	}
	return 0, false
}

// ikrd is the Inverse k-Relative Distance of cell key in owned
// subspace li: one minus the mean grid (L1) distance from the cell to
// the subspace's live representatives (its k densest cells, the cell
// itself excluded), normalized by the subspace diameter, so cells far
// from every dense region score low. ok is false when φ == 1 or no
// other representative is live.
func (s *shard) ikrd(st *subspaceState, li int, key uint64) (float64, bool) {
	if st.invMaxDist <= 0 {
		return 0, false
	}
	k := s.det.cfg.K
	repKey := s.repKeys[li*k : li*k+k]
	repDc := s.repDcs[li*k : li*k+k]
	sum, cnt := 0.0, 0
	for i, rk := range repKey {
		if repDc[i] <= 0 || rk == key {
			continue
		}
		dist := 0
		for j := 0; j < int(st.size); j++ {
			dj := int(core.CoordAt(key, j)) - int(core.CoordAt(rk, j))
			if dj < 0 {
				dj = -dj
			}
			dist += dj
		}
		sum += float64(dist)
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	return 1 - (sum/float64(cnt))*st.invMaxDist, true
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"spot/internal/core"
	"spot/internal/evt"
	"spot/internal/stream"
)

// coreLayer times the core module's public hot-path functions on the
// workload's own points: the discretization plane, the base-cell
// touch, and the coalesced path's grouping and run fold over keys
// built from every fixed-group subspace.
func coreLayer(m map[string]float64, cfg stream.Config, p *pool, tr *tracer) error {
	lo, hi := make([]float64, dims), make([]float64, dims)
	for i := range hi {
		hi[i] = 1
	}
	grid, err := core.NewGrid(cfg.Phi, lo, hi)
	if err != nil {
		return err
	}
	decay := core.NewDecayTable(cfg.Lambda)
	const n = poolPeriod
	coords := make([]uint8, n*dims)
	d := tr.medianSpan("core", "Grid.Intervals", 5, func() {
		for i := 0; i < n; i++ {
			grid.Intervals(p.flat[i*dims:(i+1)*dims], coords[i*dims:(i+1)*dims])
		}
	})
	m["core.intervals_ns_pt"] = float64(d) / n

	d = tr.medianSpan("core", "BCSTable.Touch", 3, func() {
		t := core.NewBCSTable(dims)
		for i := 0; i < n; i++ {
			t.Touch(decay, uint64(i+1), coords[i*dims:(i+1)*dims], p.flat[i*dims:(i+1)*dims])
		}
	})
	m["core.bcs_touch_ns_pt"] = float64(d) / n

	// Group and fold 512-point batches per subspace into one cell
	// table, as a shard does; the first half of the batches only fills
	// the table, the second half is timed.
	const batch, batches = 512, 16
	subs := subspaces(dims, cfg.MaxSubspaceDim)
	var g core.Grouper
	table := core.NewPCSTable()
	keys := make([]uint64, batch)
	mags, ss, dcs := make([]float64, batch), make([]float64, batch), make([]float64, batch)
	var groupNs, runsNs time.Duration
	var nkeys, ngroups int
	parent := tr.open("core", "Grouper.Group+PCSTable.TouchRuns", -1, time.Now())
	for b := 0; b < batches; b++ {
		t0 := uint64(b * batch)
		for id, sub := range subs {
			var cc [core.MaxSubspaceDims]uint8
			for i := 0; i < batch; i++ {
				pos := b*batch + i
				var mag float64
				for j, dim := range sub {
					cc[j] = coords[pos*dims+dim]
					v := p.flat[pos*dims+dim]
					mag += v * v
				}
				keys[i] = core.EncodeCell(uint32(id), cc[:len(sub)])
				mags[i] = math.Sqrt(mag)
			}
			start := time.Now()
			g.Group(keys)
			mid := time.Now()
			table.TouchRuns(decay, t0, &g, mags, ss, dcs)
			end := time.Now()
			if b >= batches/2 {
				groupNs += mid.Sub(start)
				runsNs += end.Sub(mid)
				nkeys += batch
				ngroups += g.Groups()
			}
		}
	}
	tr.close(parent, time.Now())
	m["core.group_ns_key"] = float64(groupNs) / float64(nkeys)
	m["core.distinct_frac"] = float64(ngroups) / float64(nkeys)
	m["core.touch_runs_ns_cell"] = float64(runsNs) / float64(ngroups)
	return nil
}

// subspaces enumerates every subspace of arity 1..maxDim over d
// dimensions, in the fixed group's order.
func subspaces(d, maxDim int) [][]int {
	var out [][]int
	var rec func(prefix []int, from, k int)
	rec = func(prefix []int, from, k int) {
		if len(prefix) == k {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := from; i < d; i++ {
			rec(append(prefix, i), i+1, k)
		}
	}
	for k := 1; k <= maxDim; k++ {
		rec(nil, 0, k)
	}
	return out
}

// tableSizeSweep tests the paper's cost claim that lazy decay makes a
// touch independent of how many cells are resident: it times
// PCSTable.TouchBatch on random resident cells of a table held at 10^4,
// 10^5 and 10^6 cells.
func tableSizeSweep(m map[string]float64, cfg stream.Config, seed int64, tr *tracer) {
	const batch, batches = 512, 1024
	decay := core.NewDecayTable(cfg.Lambda)
	rng := rand.New(rand.NewSource(seed))
	mags, dcs := make([]float64, batch), make([]float64, batch)
	slots := make([]uint32, batch)
	touch := make([]uint64, batch*batches)
	for _, c := range []struct {
		name  string
		cells int
	}{{"core.touch_ns_cells_1e4", 1e4}, {"core.touch_ns_cells_1e5", 1e5}, {"core.touch_ns_cells_1e6", 1e6}} {
		table := core.NewPCSTable()
		keys := make([]uint64, c.cells)
		for i := range keys {
			keys[i] = core.EncodeCell(uint32(i/512), []uint8{uint8(i % 8), uint8(i / 8 % 8), uint8(i / 64 % 8)})
		}
		tick := uint64(1)
		for i := 0; i < len(keys); i += batch {
			chunk := keys[i:min(i+batch, len(keys))]
			table.TouchBatch(decay, tick, chunk, mags, slots, dcs)
		}
		for i := range touch {
			touch[i] = keys[rng.Intn(len(keys))]
		}
		d := tr.medianSpan("core", "PCSTable.TouchBatch", 3, func() {
			for b := 0; b < batches; b++ {
				tick++
				table.TouchBatch(decay, tick, touch[b*batch:(b+1)*batch], mags, slots, dcs)
			}
		})
		m[c.name] = float64(d) / float64(batch*batches)
	}
}

// evtLayer times one calibrator refit on a 1024-sample census, the
// per-(measure, arity) work of an auto-threshold sweep.
func evtLayer(m map[string]float64, seed int64, tr *tracer) {
	rng := rand.New(rand.NewSource(seed))
	census := make([]float64, 1024)
	for i := range census {
		census[i] = rng.Float64()
	}
	sort.Float64s(census)
	c := evt.NewCalibrator(0)
	d := tr.medianSpan("evt", "Calibrator.Refit", 101, func() { c.Refit(census, 1e-3) })
	m["evt.refit_us"] = float64(d) / 1e3
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"spot/internal/server"
	"spot/internal/stream"
)

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for checkpoints, under the repository root
	spans    string // file the traced run writes its spans to
}

const (
	// setupReps is how many times a run builds its system; setup_s is
	// the median, and the last one serves the load.
	setupReps = 5
	// maxWindows caps the measured windows of one run.
	maxWindows = 64
)

// outcome is one run's result.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	mismatch          error // non-nil when the output check failed
}

// run builds the prepared workload's system setupReps times, sends the
// warm-up, then measures windows of a fixed number of points per stream
// until o.seconds of measured time have passed. State-dependent metrics
// are read once, at the end of the first window, which is the same
// stream position on every run. The output check and the layer
// measurements follow, outside every window.
func run(o *opts, d *deployment) (*outcome, error) {
	var err error
	res := &outcome{metrics: make(map[string]float64)}
	m := res.metrics
	heap0 := liveHeap()

	setups := make([]float64, setupReps)     // CPU seconds
	wallSetups := make([]float64, setupReps) // wall seconds
	var sys *system
	for i := range setups {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, fmt.Errorf("stop after set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		cpu0, start := cpuTime(), time.Now()
		sys, err = d.start(i)
		wallSetups[i] = time.Since(start).Seconds()
		setups[i] = (cpuTime() - cpu0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	m["setup_s"] = median(setups)
	running := true
	defer func() {
		if running {
			sys.stop()
		}
	}()
	for i, s := range d.streams {
		s.call = sys.calls[i]
	}
	if err := driveAll(d.streams, d.warm, false, d.layer, nil, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var untraced, traced []float64 // points/s of each window
	var tracedWin []bool           // whether window k was traced
	var proc, untracedProc, tracedProc procSample
	var measured time.Duration
	queueMax := 0
	for k := 0; k < maxWindows; k++ {
		if k > 0 && measured >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
		// The traced run alternates untraced and traced windows, so
		// both throughputs come from the same run.
		var wtr *tracer
		var stopSampler func() int
		if o.trace && k%2 == 1 {
			wtr = tr
			if sys.primary != nil {
				stopSampler = sampleQueues(sys.primary.srv, d.names)
			}
		}
		a := readProc()
		start := time.Now()
		wid := wtr.open("bench", "window", -1, start)
		err := driveAll(d.streams, d.window, true, d.layer, wtr, wid)
		elapsed := time.Since(start)
		wtr.close(wid, start.Add(elapsed))
		b := readProc()
		proc.add(a, b)
		if stopSampler != nil {
			queueMax = max(queueMax, stopSampler())
		}
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", k, err)
		}
		measured += elapsed
		tput := float64(d.window*len(d.streams)) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: window %d: %.0f points/s over %.2fs (traced %v)\n", k, tput, elapsed.Seconds(), wtr != nil)
		tracedWin = append(tracedWin, wtr != nil)
		if wtr != nil {
			traced = append(traced, tput)
			tracedProc.add(a, b)
		} else {
			untraced = append(untraced, tput)
			untracedProc.add(a, b)
		}
		if k == 0 {
			if err := d.readState(sys, m, heap0, tr); err != nil {
				return nil, fmt.Errorf("state: %w", err)
			}
		}
	}
	d.readEnd(sys, m)
	running = false
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}

	points := float64(len(tracedWin) * d.window * len(d.streams))
	var lat, windowP50 []float64 // untraced windows' latencies, and each one's median
	for k, traced := range tracedWin {
		if traced {
			continue
		}
		var w []float64
		for _, s := range d.streams {
			n := d.window / s.batch // calls per stream and window
			w = append(w, s.lat[k*n:(k+1)*n]...)
		}
		windowP50 = append(windowP50, median(w))
		lat = append(lat, w...)
	}
	for _, s := range d.streams {
		res.attempted += s.attempted
		res.failed += s.failed
	}
	m["cpu_us_per_pt"] = float64(untracedProc.cpu) / 1e3 / float64(len(untraced)*d.window*len(d.streams))
	// Contention from other tenants of a shared host only ever slows a
	// window, so the quietest quartile of windows estimates the
	// system's own speed more steadily than all windows pooled.
	m["load.throughput_pts_s"] = quantile(untraced, 0.75)
	m["load.latency_p50_ms"] = quantile(windowP50, 0.25) / 1e6
	m["load.setup_wall_s"] = median(wallSetups)
	m["load.latency_p95_ms"] = quantile(lat, 0.95) / 1e6
	m["load.latency_p99_ms"] = quantile(lat, 0.99) / 1e6
	m["load.latency_samples"] = float64(len(lat))
	m["load.windows"] = float64(len(tracedWin))
	m["proc.cpu_us_per_pt"] = m["cpu_us_per_pt"]
	m["proc.gc_cpu_frac"] = proc.gcCPU / proc.cpu.Seconds()
	m["proc.gc_pauses"] = float64(proc.gcs)
	if sys.primary != nil {
		m["server.allocs_per_call"] = float64(proc.mallocs) / (points / float64(d.streams[0].batch))
		m["server.queue_len_max"] = float64(queueMax)
	}

	if err := d.check(m, tr); err != nil {
		if !errors.Is(err, errMismatch) {
			return nil, err
		}
		res.mismatch = err
		return res, nil
	}
	if o.trace {
		if err := coreLayer(m, d.cfg, d.streams[0].pool, tr); err != nil {
			return nil, err
		}
		tableSizeSweep(m, d.cfg, o.seed, tr)
		evtLayer(m, o.seed, tr)
		m["trace.untraced_pts_s"] = median(untraced)
		m["trace.traced_pts_s"] = median(traced)
		m["trace.overhead_frac"] = 1 - median(traced)/median(untraced)
		tracedCPU := float64(tracedProc.cpu) / 1e3 / float64(len(traced)*d.window*len(d.streams))
		m["trace.cpu_overhead_frac"] = tracedCPU/m["cpu_us_per_pt"] - 1
		m["trace.spans"] = float64(tr.spanCount())
		if err := tr.write(o.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// sampleQueues polls every tenant's admission-queue length until the
// returned stop is called, which returns the largest length seen. The
// status call also CRC-verifies the tenant's newest checkpoint, so the
// poll is kept sparse to keep it out of the tracing overhead.
func sampleQueues(srv *server.Server, names []string) (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, name := range names {
					if ts, ok := srv.Tenant(name); ok {
						peak = max(peak, ts.QueueLen)
					}
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

// readState records the state-dependent metrics at the end of the first
// measured window, with the system quiesced: the live heap, the
// detectors' table and epoch counters, the checkpoints written, and the
// flagged rate and ranking quality of that window's replies. The traced
// run also times a snapshot cut, encode and decode of the first
// tenant's state there.
func (d *deployment) readState(sys *system, m map[string]float64, heap0 uint64, tr *tracer) error {
	if err := sys.quiesce(d.names); err != nil {
		return err
	}
	m["heap_mb"] = (float64(liveHeap()) - float64(heap0)) / (1 << 20)
	sts, tss := sys.streamStats(d.names)
	var sum stream.Stats
	var effTrials float64
	for _, st := range sts {
		sum.ProjectedCells += st.ProjectedCells
		sum.BaseCells += st.BaseCells
		sum.EvictedProjected += st.EvictedProjected
		sum.Sweeps += st.Sweeps
		sum.SweepNanos += st.SweepNanos
		sum.CoalescedPoints += st.CoalescedPoints
		sum.CoalescedDistinct += st.CoalescedDistinct
		sum.CoalesceGroupings += st.CoalesceGroupings
		sum.Calibrations += st.Calibrations
		sum.Checkpoints += st.Checkpoints
		sum.CheckpointNanos += st.CheckpointNanos
		effTrials += st.AutoEffTrials / float64(len(sts))
	}
	m["stream.projected_cells"] = float64(sum.ProjectedCells)
	m["stream.base_cells"] = float64(sum.BaseCells)
	m["stream.evicted_projected"] = float64(sum.EvictedProjected)
	m["stream.sweeps"] = float64(sum.Sweeps)
	m["stream.sweep_ms"] = ratio(float64(sum.SweepNanos)/1e6, float64(sum.Sweeps))
	m["stream.coalesce_dup_ratio"] = ratio(float64(sum.CoalescedPoints), float64(sum.CoalescedDistinct))
	m["stream.coalesce_distinct_per_group"] = ratio(float64(sum.CoalescedDistinct), float64(sum.CoalesceGroupings))
	m["stream.calibrations"] = float64(sum.Calibrations)
	m["stream.auto_eff_trials"] = effTrials
	if tss != nil {
		var ckpts uint64
		for _, ts := range tss {
			ckpts += ts.Checkpoint.LatestSeq - d.ckptSeq0
		}
		m["server.checkpoints"] = float64(ckpts)
		// Detector.Snapshot serves both checkpoints and replication
		// cuts; its mean time is the encode share of either.
		m["server.checkpoint_ms"] = ratio(float64(sum.CheckpointNanos)/1e6, float64(sum.Checkpoints))
	}

	var scores []float64
	var labels []bool
	flagged := 0
	for _, s := range d.streams {
		lo, hi := d.warm, d.warm+d.window
		for i := lo; i < hi; i++ {
			if s.verdicts[i] {
				flagged++
			}
			labels = append(labels, s.pool.label(s.base+i))
		}
		scores = append(scores, s.scores[lo:hi]...)
	}
	m["stream.flagged_rate"] = float64(flagged) / float64(len(labels))
	m["quality.auc"], m["quality.precision_at_k"] = rankMetrics(scores, labels)

	if tr != nil {
		if err := d.snapshotLayer(sys, m, tr); err != nil {
			return err
		}
	}
	if sys.standby != nil {
		return sys.resume()
	}
	return nil
}

// snapshotLayer times, on the first tenant's state: the replication cut
// through the tenant worker (daemon workloads), Detector.Snapshot and
// stream.Restore.
func (d *deployment) snapshotLayer(sys *system, m map[string]float64, tr *tracer) error {
	const reps = 3
	det := sys.det
	if det == nil {
		var snap []byte
		var err error
		cut := tr.medianSpan("replica", "Server.SnapshotTenant", reps, func() {
			snap, _, err = sys.primary.srv.SnapshotTenant(d.names[0])
		})
		if err != nil {
			return err
		}
		if sys.standby != nil {
			m["replica.cut_ms"] = ms(cut)
		}
		if det, err = stream.Restore(bytes.NewReader(snap), d.cfg); err != nil {
			return err
		}
		defer det.Close()
	}
	var buf bytes.Buffer
	var err error
	enc := tr.medianSpan("snapshot", "Detector.Snapshot", reps, func() {
		buf.Reset()
		err = det.Snapshot(&buf)
	})
	if err != nil {
		return err
	}
	dec := tr.medianSpan("snapshot", "stream.Restore", reps, func() {
		var r *stream.Detector
		if r, err = stream.Restore(bytes.NewReader(buf.Bytes()), d.cfg); err == nil {
			r.Close()
		}
	})
	if err != nil {
		return err
	}
	m["snapshot.encode_ms"] = ms(enc)
	m["snapshot.decode_ms"] = ms(dec)
	m["snapshot.bytes"] = float64(buf.Len())
	return nil
}

// readEnd records the counters read after the last window: refusals on
// the primary and the replication link's delivery record, summed over
// the shippers the run started.
func (d *deployment) readEnd(sys *system, m map[string]float64) {
	_, tss := sys.streamStats(d.names)
	var shed, deadline uint64
	for _, ts := range tss {
		shed += ts.Shed
		deadline += ts.DeadlineMisses
	}
	if sys.primary != nil {
		m["server.shed"] = float64(shed)
		m["server.deadline_misses"] = float64(deadline)
	}
	if sys.shipper == nil {
		return
	}
	var gens, bytesShipped, fails, behind, accepted uint64
	for _, tg := range append(sys.shipped, sys.shipper.Status().Targets...) {
		gens += tg.GensShipped
		bytesShipped += tg.BytesShipped
		fails += tg.ShipFailures
		behind = tg.Behind // the current shipper's, listed last
	}
	for _, name := range d.names {
		ts, _ := sys.standby.srv.Tenant(name)
		accepted += ts.ReplAccepted
	}
	m["replica.gens_shipped"] = float64(gens)
	m["replica.bytes_shipped"] = float64(bytesShipped)
	m["replica.ship_failures"] = float64(fails)
	m["replica.behind_at_end"] = float64(behind)
	m["replica.standby_accepted"] = float64(accepted)
}

// check runs the output check on every stream and derives the layer
// metrics its timed replay gives: per-point detector cost away from and
// at epoch boundaries, allocations, the server's per-call overhead over
// the library, and for the library workload the single-shard baseline.
func (d *deployment) check(m map[string]float64, tr *tracer) error {
	var rtt, libMeasured, plain, boundary []float64
	var allocs uint64
	var replayedPts, measuredPts int
	var replayMeasuredNs float64
	first := d.warm / d.streams[0].batch // index of the first measured call
	// Untraced runs replay their streams concurrently to shorten the
	// run; the traced run replays one at a time, so that its timings
	// see no other load.
	rs := make([]replayed, len(d.streams))
	errs := make([]error, len(d.streams))
	var wg sync.WaitGroup
	for i, s := range d.streams {
		if tr != nil {
			rs[i], errs[i] = d.replay(s, tr)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[i], errs[i] = d.replay(s, nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, s := range d.streams {
		r := rs[i]
		allocs += r.allocs
		replayedPts += len(s.verdicts)
		rtt = append(rtt, s.lat...)
		measuredDurs := r.durs[first:]
		libMeasured = append(libMeasured, measuredDurs...)
		for _, ns := range measuredDurs {
			replayMeasuredNs += ns
		}
		measuredPts += len(measuredDurs) * s.batch
		// The detector cost of each measured call: the replay's for the
		// daemon workloads, the system's own call for the library one.
		own := measuredDurs
		if d.layer == "stream" {
			own = s.lat
		}
		for j, ns := range own {
			t0 := uint64(s.base + (first+j)*s.batch)
			if (t0+uint64(s.batch))/d.cfg.EpochTicks > t0/d.cfg.EpochTicks {
				boundary = append(boundary, ns)
			} else {
				plain = append(plain, ns/float64(s.batch))
			}
		}
	}
	batch := float64(d.streams[0].batch)
	m["stream.batch_us_per_pt"] = median(plain) / 1e3
	m["stream.sweep_batch_extra_ms"] = (median(boundary) - median(plain)*batch) / 1e6
	m["stream.allocs_per_pt"] = float64(allocs) / float64(replayedPts)
	if d.layer == "server" {
		m["server.overhead_us_per_call"] = (median(rtt) - median(libMeasured)) / 1e3
	} else {
		m["stream.shards1_pts_s"] = float64(measuredPts) / (replayMeasuredNs / 1e9)
		m["stream.shard_speedup"] = m["load.throughput_pts_s"] / m["stream.shards1_pts_s"]
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"spot/internal/snapshot"
	"spot/internal/stream"
)

// deployment is a prepared workload: its inputs are generated and, for
// interactive, its warm checkpoint is written, so that start measures
// only the system's own construction.
type deployment struct {
	names   []string      // tenant names, one per stream
	streams []*streamLoad // one closed-loop client per tenant
	warm    int           // points per stream sent before the first measured window
	window  int           // points per stream in each measured window
	layer   string        // layer the calls enter, for the traced run's spans
	cfg     stream.Config // detector configuration of the system under test
	// replayCfg is the configuration of the library detector the output
	// check replays each stream into; restore, when set, is the warm
	// snapshot both the system and the replay continue from.
	replayCfg stream.Config
	restore   []byte
	// ckptSeq0 is the number of checkpoint generations written before
	// the first call.
	ckptSeq0 uint64
	// start builds the system; i numbers the repeated set-ups.
	start func(i int) (*system, error)
}

// workloads maps each --workload name to its preparation.
var workloads = map[string]func(o *opts) (*deployment, error){
	"bulk-replicated": prepareBulk,
	"interactive":     prepareInteractive,
	"uniform-library": prepareUniform,
}

// prepareBulk is the deployed topology: a spotd primary with two
// tenants and a warm standby over loopback, both checkpointing every
// 4096 points, the shipper at its 1 s default, and one connection per
// tenant sending scored 512-point batches.
func prepareBulk(o *opts) (*deployment, error) {
	const warm, window, batch = 16384, 16384, 512
	d := &deployment{
		names: []string{"t1", "t2"}, warm: warm, window: window, layer: "server",
		cfg: detectorConfig(1), replayCfg: detectorConfig(1),
	}
	for i, name := range d.names {
		p := newPool(clusteredGen(o.seed, i+1))
		d.streams = append(d.streams, newStreamLoad(name, p, batch, 0, warm+maxWindows*window))
	}
	d.start = func(i int) (*system, error) {
		return startReplicated(d.names, d.cfg, filepath.Join(o.dir, fmt.Sprintf("setup%d", i)))
	}
	return d, nil
}

// prepareInteractive is an inline scoring stage: one 2-shard tenant
// that recovers at start-up from a checkpoint of a warmed detector and
// then receives one scored point per call on one connection.
func prepareInteractive(o *opts) (*deployment, error) {
	const warm, window, batch = 32768, 4096, 1
	cfg := detectorConfig(2)
	p := newPool(clusteredGen(o.seed, 1))
	snap, err := warmSnapshot(cfg, p, warm)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.dir, "recover")
	k, err := snapshot.NewKeeper(filepath.Join(dir, "t1"), 3)
	if err != nil {
		return nil, err
	}
	if _, _, err := k.Save(func(w io.Writer) error {
		_, err := w.Write(snap)
		return err
	}); err != nil {
		return nil, err
	}
	d := &deployment{
		names: []string{"t1"}, window: window, layer: "server",
		cfg: cfg, replayCfg: cfg, restore: snap, ckptSeq0: 1,
		streams: []*streamLoad{newStreamLoad("t1", p, batch, warm, maxWindows*window)},
	}
	d.start = func(int) (*system, error) { return startRecovering(d.names, d.cfg, dir) }
	return d, nil
}

// warmSnapshot runs the first n points of p through a library
// detector in 512-point batches and returns its snapshot.
func warmSnapshot(cfg stream.Config, p *pool, n int) ([]byte, error) {
	det, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	defer det.Close()
	out, sc := make([]bool, 512), make([]float64, 512)
	for pos := 0; pos < n; pos += 512 {
		if _, err := det.ProcessBatchScoredErr(p.points(pos, 512), out, sc); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepareUniform is the library without a daemon on the
// duplication-free uniform stream, one shard per CPU, one caller
// sending 512-point batches. Its output check replays into a
// single-shard detector, which also gives the multi-core baseline.
func prepareUniform(o *opts) (*deployment, error) {
	const warm, window, batch = 20480, 4096, 512
	d := &deployment{
		names: []string{"library"}, warm: warm, window: window, layer: "stream",
		cfg: detectorConfig(runtime.NumCPU()), replayCfg: detectorConfig(1),
		streams: []*streamLoad{newStreamLoad("library", newPool(uniformGen(o.seed)), batch, 0, warm+maxWindows*window)},
	}
	d.start = func(int) (*system, error) { return startLibrary(d.cfg, batch) }
	return d, nil
}

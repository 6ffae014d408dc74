package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRankMetrics(t *testing.T) {
	for _, c := range []struct {
		name     string
		scores   []float64
		labels   []bool
		auc, pak float64
	}{
		{"perfect", []float64{0.9, 0.8, 0.1, 0}, []bool{true, true, false, false}, 1, 1},
		{"inverted", []float64{0, 0.1, 0.8, 0.9}, []bool{true, true, false, false}, 0, 0},
		// Every score tied: the ranking carries no information, so AUC
		// is exactly 1/2 and the one slot at K=1 gets the positive
		// share of the tie group.
		{"all tied", []float64{0, 0, 0, 0}, []bool{true, false, false, false}, 0.5, 0.25},
		// The positive ties one negative at the top: half a win over it,
		// a full win over the other two.
		{"tie at top", []float64{1, 1, 0.5, 0}, []bool{true, false, false, false}, (0.5 + 1 + 1) / 3, 0.5},
		{"one class", []float64{1, 2}, []bool{false, false}, 0, 0},
	} {
		auc, pak := rankMetrics(c.scores, c.labels)
		if math.Abs(auc-c.auc) > 1e-12 || math.Abs(pak-c.pak) > 1e-12 {
			t.Errorf("%s: got auc %v p@k %v, want %v %v", c.name, auc, pak, c.auc, c.pak)
		}
	}
}

// TestPoolOutlastsEviction pins the reason the pool exists: a cell
// touched once in a pass is evicted long before the pass repeats, so
// the detector cannot see the recycling.
func TestPoolOutlastsEviction(t *testing.T) {
	for _, shards := range []int{1, 2} {
		h := evictionHorizon(detectorConfig(shards))
		if poolPeriod < 4*h {
			t.Fatalf("pool period %d < 4 × eviction horizon %.0f", poolPeriod, h)
		}
	}
	for name, prepare := range map[string]func(*opts) (*deployment, error){"bulk-replicated": prepareBulk, "uniform-library": prepareUniform} {
		d, err := prepare(&opts{seed: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if poolPeriod%d.streams[0].batch != 0 {
			t.Fatalf("%s: call size %d does not divide the pool period", name, d.streams[0].batch)
		}
	}
}

// stateMetrics are the metrics read at the fixed stream position that
// must repeat exactly for a given seed.
var stateMetrics = []string{
	"stream.projected_cells", "stream.base_cells", "stream.evicted_projected",
	"stream.sweeps", "stream.calibrations", "stream.auto_eff_trials",
	"stream.coalesce_dup_ratio", "stream.flagged_rate",
	"server.checkpoints", "quality.auc", "quality.precision_at_k",
}

// shortRun runs a workload with its warm-up and windows cut down, one
// window only.
func shortRun(t *testing.T, workload string) *outcome {
	t.Helper()
	o := &opts{workload: workload, seed: 3, seconds: time.Nanosecond, dir: t.TempDir()}
	d, err := workloads[workload](o)
	if err != nil {
		t.Fatal(err)
	}
	d.warm, d.window = min(d.warm, 4096), min(d.window, 4096)
	res, err := run(o, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.mismatch != nil {
		t.Fatal(res.mismatch)
	}
	return res
}

func TestStateMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := shortRun(t, name), shortRun(t, name)
			for _, k := range stateMetrics {
				if a.metrics[k] != b.metrics[k] {
					t.Errorf("%s: %v then %v", k, a.metrics[k], b.metrics[k])
				}
			}
			if a.metrics["stream.sweeps"] == 0 {
				t.Error("no epoch sweep before the fixed position")
			}
		})
	}
}

// TestReplayCatchesMismatch checks that the output check fails on a
// single flipped score bit.
func TestReplayCatchesMismatch(t *testing.T) {
	d, err := prepareUniform(&opts{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := d.start(0)
	if err != nil {
		t.Fatal(err)
	}
	s := d.streams[0]
	s.call = sys.calls[0]
	if err := s.drive(4096, false, "stream", nil, -1); err != nil {
		t.Fatal(err)
	}
	if err := sys.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.replay(s, nil); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	s.scores[4000] = math.Float64frombits(math.Float64bits(s.scores[4000]) ^ 1)
	if _, err := d.replay(s, nil); !errors.Is(err, errMismatch) {
		t.Fatalf("tampered replay: got %v, want errMismatch", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown or without a one-line why", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(defs))
			return
		}
		for i, def := range defs {
			if g := got[i]; g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, def)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range b.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, b.PerLayer)
}

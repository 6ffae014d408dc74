package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"spot/internal/core"
)

// closedConfig builds a small scoring detector so every entry point —
// including the scored variants — is exercisable.
func closedConfig(shards int) Config {
	cfg := DefaultConfig(4)
	cfg.Shards = shards
	cfg.Scoring = true
	cfg.TopK = 4
	cfg.Warmup = 0
	return cfg
}

// TestCloseIdempotent pins the double-Close contract: the second and
// every later Close is a no-op, with and without started workers.
func TestCloseIdempotent(t *testing.T) {
	flat := make([]float64, 8*4)
	out := make([]bool, 8)
	for _, workers := range []bool{false, true} {
		d, err := New(closedConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		if workers {
			if _, err := d.ProcessBatchScoredErr(flat, out, nil); err != nil {
				t.Fatalf("workers=%v: ingest before Close: %v", workers, err)
			}
		}
		d.Close()
		if _, err := d.ProcessBatchScoredErr(flat, out, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%v: ingest after Close: got %v, want ErrClosed", workers, err)
		}
		d.Close() // must not panic (double close of worker channels)
		d.Close()
	}
}

// TestClosedEntryPoints drives every ingestion and snapshot entry
// point against a closed detector: each must return typed ErrClosed
// before any state is touched.
func TestClosedEntryPoints(t *testing.T) {
	point := []float64{0.1, 0.2, 0.3, 0.4}
	flat := append(append([]float64{}, point...), point...)
	out := make([]bool, 2)
	scores := make([]float64, 2)

	errCases := []struct {
		name string
		call func(d *Detector) error
	}{
		{"one-point ingest", func(d *Detector) error {
			_, err := d.ProcessBatchScoredErr(point, out[:1], nil)
			return err
		}},
		{"batch ingest", func(d *Detector) error {
			_, err := d.ProcessBatchScoredErr(flat, out, nil)
			return err
		}},
		{"scored batch ingest", func(d *Detector) error {
			_, err := d.ProcessBatchScoredErr(flat, out, scores)
			return err
		}},
		{"Snapshot", func(d *Detector) error {
			return d.Snapshot(io.Discard)
		}},
	}

	for _, shards := range []int{1, 2} {
		d, err := New(closedConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		// Ingest a little so the closed detector holds real state the
		// rejected calls must not have mutated.
		if _, err := d.ProcessBatchScoredErr(flat, out, nil); err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		d.Close()

		for _, tc := range errCases {
			if err := tc.call(d); !errors.Is(err, ErrClosed) {
				t.Errorf("shards=%d: %s on closed detector: got %v, want ErrClosed", shards, tc.name, err)
			}
		}
		if after := d.Stats(); after != before {
			t.Errorf("shards=%d: rejected calls mutated state: before %+v, after %+v", shards, before, after)
		}
	}
}

// TestClosedScoringDisabledOrder pins the error precedence on a
// closed non-scoring detector: ErrClosed wins over ErrScoringDisabled
// for a score buffer of any length, the empty one included.
func TestClosedScoringDisabledOrder(t *testing.T) {
	cfg := DefaultConfig(4)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	point := []float64{0.1, 0.2, 0.3, 0.4}
	for _, scores := range [][]float64{make([]float64, 1), {}} {
		if _, err := d.ProcessBatchScoredErr(point, make([]bool, 1), scores); !errors.Is(err, ErrClosed) {
			t.Errorf("scored ingest (%d score slots) on closed non-scoring detector: want ErrClosed, got %v", len(scores), err)
		}
	}
}

// TestSharedDecayTable pins the Config.Decay injection contract: a
// shared table with matching Lambda yields verdicts bit-identical to a
// private-table detector, and a mismatched table is rejected at New.
func TestSharedDecayTable(t *testing.T) {
	cfg := closedConfig(1)
	shared := core.NewDecayTable(cfg.Lambda)

	cfgShared := cfg
	cfgShared.Decay = shared
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgShared)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	rng := uint64(1)
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%1000) / 1000
	}
	const n, dims = 512, 4
	flat := make([]float64, n*dims)
	for i := range flat {
		flat[i] = next()
	}
	outA := make([]bool, n)
	outB := make([]bool, n)
	if _, err := a.ProcessBatchScoredErr(flat, outA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessBatchScoredErr(flat, outB, nil); err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("verdict %d diverges between private and shared decay table", i)
		}
	}

	// Snapshot/restore with a shared-table config continues identically.
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Restore(&buf, cfgShared)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := a.ProcessBatchScoredErr(flat, outA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessBatchScoredErr(flat, outB, nil); err != nil {
		t.Fatal(err)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("post-restore verdict %d diverges with shared decay table", i)
		}
	}

	bad := cfg
	bad.Decay = core.NewDecayTable(cfg.Lambda * 2)
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted a decay table built for a different Lambda")
	}
}

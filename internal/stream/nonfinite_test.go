package stream

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// feedClean ingests n deterministic finite points and returns the
// verdicts, so tests can compare a detector that survived a rejected
// poison point against one that never saw it.
func feedClean(t *testing.T, det *Detector, n int) []bool {
	t.Helper()
	next := uniformStream(41, det.cfg.Dims)
	buf := make([]float64, det.cfg.Dims)
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		next(buf)
		out[i] = processPoint(t, det, buf)
	}
	return out
}

// TestNonFiniteRejected: every NaN/±Inf placement returns ErrNonFinite
// from one-point and batch ingest calls alike.
func TestNonFiniteRejected(t *testing.T) {
	cfg := DefaultConfig(4)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range poisons {
		for dim := 0; dim < cfg.Dims; dim++ {
			pt := []float64{0.1, 0.2, 0.3, 0.4}
			pt[dim] = p
			out := make([]bool, 3)
			if _, err := det.ProcessBatchScoredErr(pt, out[:1], nil); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("one-point ingest (%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
			batch := append(append([]float64{0.5, 0.5, 0.5, 0.5}, pt...), 0.6, 0.6, 0.6, 0.6)
			if _, err := det.ProcessBatchScoredErr(batch, out, nil); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("batch ingest (%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
		}
	}
}

// TestNonFiniteRejectBeforeMutate: a rejected point must leave no trace.
// Tick and the summary tables stay untouched, and every later verdict is
// identical to a detector that never saw the poison — the reject happens
// before any state mutation, not after a partial one. Besides NaN/±Inf,
// the poison includes finite one-point calls of the wrong length, from
// empty (an accepted no-op) to 10·Dims: a ragged slice fails with
// ErrBatchLength, and a multi-point slice with its 1-slot verdict
// buffer fails with ErrVerdictBuffer rather than being ingested.
func TestNonFiniteRejectBeforeMutate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.EpochTicks = 128
	dirty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	// Warm both, then hit only one with poison between clean points.
	warm := uniformStream(43, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 300; i++ {
		warm(buf)
		processPoint(t, dirty, buf)
		processPoint(t, clean, buf)
	}
	before := dirty.Stats()
	out := make([]bool, 2)
	if _, err := dirty.ProcessBatchScoredErr([]float64{0.1, math.NaN(), 0.3, 0.4}, out[:1], nil); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("poison point not rejected: %v", err)
	}
	if n, err := dirty.ProcessBatchScoredErr(nil, out[:1], nil); n != 0 || err != nil {
		t.Fatalf("empty point: got (%d, %v), want (0, nil)", n, err)
	}
	for _, n := range []int{1, cfg.Dims - 1, cfg.Dims + 1, 2 * cfg.Dims, 10 * cfg.Dims} {
		pt := make([]float64, n)
		for i := range pt {
			pt[i] = 0.5
		}
		want, msg := ErrBatchLength, fmt.Sprintf("%d values over %d dims", n, cfg.Dims)
		if n%cfg.Dims == 0 {
			want, msg = ErrVerdictBuffer, fmt.Sprintf("1 slots for %d points", n/cfg.Dims)
		}
		_, err := dirty.ProcessBatchScoredErr(pt, out[:1], nil)
		if !errors.Is(err, want) {
			t.Fatalf("%d-value point: got %v, want %v", n, err, want)
		}
		if !strings.Contains(err.Error(), msg) {
			t.Fatalf("%d-value point: error %q does not say %q", n, err, msg)
		}
	}
	if _, err := dirty.ProcessBatchScoredErr([]float64{
		0.1, 0.2, 0.3, 0.4,
		math.Inf(-1), 0.2, 0.3, 0.4,
	}, out, nil); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("poison batch not rejected: %v", err)
	}
	after := dirty.Stats()
	if after.Tick != before.Tick || after.BaseCells != before.BaseCells || after.SummaryEntries != before.SummaryEntries {
		t.Fatalf("rejected input mutated state: before %+v after %+v", before, after)
	}
	dv := feedClean(t, dirty, 600)
	cv := feedClean(t, clean, 600)
	for i := range dv {
		if dv[i] != cv[i] {
			t.Fatalf("verdict %d diverged after rejected poison: dirty=%v clean=%v", i, dv[i], cv[i])
		}
	}
}

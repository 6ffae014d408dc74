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
		out[i] = det.Process(buf)
	}
	return out
}

// TestNonFiniteRejected: every NaN/±Inf placement returns ErrNonFinite
// from both error-returning entry points, with the offending point and
// dimension named in the message.
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
			if _, err := det.ProcessErr(pt); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("ProcessErr(%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
			batch := append(append([]float64{0.5, 0.5, 0.5, 0.5}, pt...), 0.6, 0.6, 0.6, 0.6)
			out := make([]bool, 3)
			if _, err := det.ProcessBatchErr(batch, out); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("ProcessBatchErr(%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
		}
	}
}

// TestNonFiniteRejectBeforeMutate: a rejected point must leave no trace.
// Tick and the summary tables stay untouched, and every later verdict is
// identical to a detector that never saw the poison — the reject happens
// before any state mutation, not after a partial one. Besides NaN/±Inf,
// the poison includes finite points of the wrong length, from empty to
// 10·Dims; a 2·Dims slice must be rejected, not ingested as two points.
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
		dirty.Process(buf)
		clean.Process(buf)
	}
	before := dirty.Stats()
	if _, err := dirty.ProcessErr([]float64{0.1, math.NaN(), 0.3, 0.4}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("poison point not rejected: %v", err)
	}
	for _, n := range []int{0, 1, cfg.Dims - 1, cfg.Dims + 1, 2 * cfg.Dims, 10 * cfg.Dims} {
		pt := make([]float64, n)
		for i := range pt {
			pt[i] = 0.5
		}
		_, err := dirty.ProcessErr(pt)
		if !errors.Is(err, ErrBatchLength) {
			t.Fatalf("%d-value point not rejected: %v", n, err)
		}
		if want := fmt.Sprintf("point has %d values, want %d", n, cfg.Dims); !strings.Contains(err.Error(), want) {
			t.Fatalf("%d-value point: error %q does not say %q", n, err, want)
		}
	}
	out := make([]bool, 2)
	if _, err := dirty.ProcessBatchErr([]float64{
		0.1, 0.2, 0.3, 0.4,
		math.Inf(-1), 0.2, 0.3, 0.4,
	}, out); !errors.Is(err, ErrNonFinite) {
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

// TestNonFinitePanicsOnPanicAPI: the panic-flavored entry points wrap
// the same typed error, so defensive callers can still errors.Is it.
func TestNonFinitePanicsOnPanicAPI(t *testing.T) {
	cfg := DefaultConfig(2)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic on non-finite input", name)
			}
			if e, ok := r.(error); !ok || !errors.Is(e, ErrNonFinite) {
				t.Fatalf("%s panicked with %v, want ErrNonFinite", name, r)
			}
		}()
		f()
	}
	mustPanic("Process", func() { det.Process([]float64{math.NaN(), 1}) })
	mustPanic("ProcessBatch", func() {
		det.ProcessBatch([]float64{1, 2, 3, math.Inf(1)}, make([]bool, 2))
	})
}

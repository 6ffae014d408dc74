package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"spot/internal/server"
)

// callFn sends one call of n points to the system under test and
// returns its verdicts and scores: an Ingest round trip for the daemon
// workloads, a ProcessBatchScoredErr call for the library one.
type callFn func(flat []float64, n int) ([]bool, []float64, error)

// maxRefusals bounds how many refused calls one stream retries before
// the run gives up: the workloads are sized so that none is refused.
const maxRefusals = 1000

// streamLoad is one closed-loop client: it walks its pool in calls of
// batch points, waiting for each reply before sending the next, and
// keeps every reply for the output check.
type streamLoad struct {
	name  string
	pool  *pool
	batch int
	base  int // stream position (and detector tick) of the first call
	call  callFn

	pos      int       // next stream position
	verdicts []bool    // reply verdicts, indexed by position − base
	scores   []float64 // reply scores, same indexing
	lat      []float64 // round-trip ns of each measured call, in order

	attempted, failed int // measured calls sent and refused
}

// newStreamLoad sizes the reply buffers for capacity points up front
// (the warm-up plus maxWindows windows), so that neither heap_mb nor a
// timed window pays for their growth.
func newStreamLoad(name string, p *pool, batch, base, capacity int) *streamLoad {
	return &streamLoad{
		name: name, pool: p, batch: batch, base: base, pos: base,
		verdicts: make([]bool, 0, capacity),
		scores:   make([]float64, 0, capacity),
		lat:      make([]float64, 0, capacity/batch),
	}
}

// refused reports whether err is a typed refusal under which nothing
// was applied, so the same call may be sent again.
func refused(err error) bool {
	return errors.Is(err, server.ErrShed) || errors.Is(err, server.ErrDeadline)
}

// drive sends calls until points more points were applied. Measured
// calls record their latency; with a tracer each call is a span of
// layer under parent.
func (s *streamLoad) drive(points int, measured bool, layer string, tr *tracer, parent int32) error {
	refusals := 0
	for end := s.pos + points; s.pos < end; {
		flat := s.pool.points(s.pos, s.batch)
		start := time.Now()
		v, sc, err := s.call(flat, s.batch)
		stop := time.Now()
		if measured {
			s.attempted++
		}
		if err != nil {
			if !refused(err) || refusals >= maxRefusals {
				return fmt.Errorf("%s at position %d: %w", s.name, s.pos, err)
			}
			refusals++
			if measured {
				s.failed++
			}
			continue
		}
		if len(v) != s.batch || len(sc) != s.batch {
			return fmt.Errorf("%s at position %d: %d verdicts and %d scores for %d points", s.name, s.pos, len(v), len(sc), s.batch)
		}
		tr.record(layer, "call", parent, start, stop)
		if measured {
			s.lat = append(s.lat, float64(stop.Sub(start)))
		}
		s.verdicts = append(s.verdicts, v...)
		s.scores = append(s.scores, sc...)
		s.pos += s.batch
	}
	return nil
}

// driveAll drives every stream concurrently, one goroutine (and, for
// the daemon, one connection) each, and waits for all of them.
func driveAll(streams []*streamLoad, points int, measured bool, layer string, tr *tracer, parent int32) error {
	if len(streams) == 1 {
		return streams[0].drive(points, measured, layer, tr, parent)
	}
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *streamLoad) {
			defer wg.Done()
			errs[i] = s.drive(points, measured, layer, tr, parent)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

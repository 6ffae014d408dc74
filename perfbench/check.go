package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"spot/internal/stream"
)

// errMismatch marks a reply that differs from the library replay: the
// run's output is wrong.
var errMismatch = errors.New("output check failed")

// replayed is one stream's output check: the duration of every replay
// call, in call order, and the allocations the replay made.
type replayed struct {
	durs   []float64 // ns per call
	allocs uint64
}

// replay feeds every applied call of s, in the same call sizes, into a
// library detector built from d.replayCfg (continuing from d.restore
// when set) and requires each reply's verdicts and scores to be
// bit-identical to the library's. It runs after the system stopped,
// outside every timed window.
func (d *deployment) replay(s *streamLoad, tr *tracer) (replayed, error) {
	var det *stream.Detector
	var err error
	if d.restore != nil {
		det, err = stream.Restore(bytes.NewReader(d.restore), d.replayCfg)
	} else {
		det, err = stream.New(d.replayCfg)
	}
	if err != nil {
		return replayed{}, err
	}
	defer det.Close()
	out, sc := make([]bool, s.batch), make([]float64, s.batch)
	r := replayed{durs: make([]float64, 0, len(s.verdicts)/s.batch)}
	parent := tr.open("bench", "replay "+s.name, -1, time.Now())
	m0 := mallocs()
	for i := 0; i < len(s.verdicts); i += s.batch {
		flat := s.pool.points(s.base+i, s.batch)
		start := time.Now()
		_, err := det.ProcessBatchScoredErr(flat, out, sc)
		stop := time.Now()
		if err != nil {
			return replayed{}, err
		}
		tr.record("stream", "call", parent, start, stop)
		r.durs = append(r.durs, float64(stop.Sub(start)))
		for j := range out {
			if out[j] != s.verdicts[i+j] || math.Float64bits(sc[j]) != math.Float64bits(s.scores[i+j]) {
				return replayed{}, fmt.Errorf("%w: %s at tick %d: system replied (%v, %v), library replay (%v, %v)",
					errMismatch, s.name, s.base+i+j+1, s.verdicts[i+j], s.scores[i+j], out[j], sc[j])
			}
		}
	}
	r.allocs = mallocs() - m0
	tr.close(parent, time.Now())
	return r, nil
}

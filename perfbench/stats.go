package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none),
// leaving xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeap returns the live heap in bytes after two full collections
// (the second frees what the first's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// procSample is a reading of the process-wide counters the proc.*
// metrics difference over the measured windows.
type procSample struct {
	cpu     time.Duration // user + system CPU of the whole process
	gcCPU   float64       // CPU seconds spent in the garbage collector
	gcs     uint64        // completed GC cycles
	mallocs uint64
}

var procMetrics = []metrics.Sample{
	// The runtime updates its CPU estimates at each collection, so
	// differences over a window are exact only to the nearest cycle.
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// cpuTime returns the user + system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSample {
	metrics.Read(procMetrics)
	return procSample{
		cpu:     cpuTime(),
		gcCPU:   procMetrics[0].Value.Float64(),
		gcs:     procMetrics[1].Value.Uint64(),
		mallocs: mallocs(),
	}
}

// add accumulates the difference b−a into p.
func (p *procSample) add(a, b procSample) {
	p.cpu += b.cpu - a.cpu
	p.gcCPU += b.gcCPU - a.gcCPU
	p.gcs += b.gcs - a.gcs
	p.mallocs += b.mallocs - a.mallocs
}

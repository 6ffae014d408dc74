package main

import (
	"math"

	"spot/internal/bench"
	"spot/internal/stream"
)

// dims is the data-space dimensionality of every workload: d=20 with
// the default MaxSubspaceDim of 3 gives the fixed SST group every
// subspace of arity ≤ 3 (1350 subspaces).
const dims = 20

// poolPeriod is the length in points of each stream's pre-generated
// pool; positions beyond it wrap. 2^16 is more than 4× the eviction
// horizon of detectorConfig (≈ 9966 ticks), so every cell a pass
// touched has been evicted long before the pass repeats: the detector
// cannot tell the recycled stream from a fresh one. It is a multiple of
// every call size, so no call straddles the wrap.
const poolPeriod = 1 << 16

// pool is one stream's recycled input: row-major points and the
// generator's planted-outlier labels.
type pool struct {
	flat   []float64
	labels []bool
}

func newPool(g bench.GenConfig) *pool {
	p := &pool{flat: make([]float64, poolPeriod*g.Dims), labels: make([]bool, poolPeriod)}
	bench.NewGenerator(g).Fill(p.flat, p.labels, poolPeriod)
	return p
}

// points returns the n points starting at stream position pos; the
// slice aliases the pool and must not be written.
func (p *pool) points(pos, n int) []float64 {
	i := pos % poolPeriod
	return p.flat[i*dims : (i+n)*dims]
}

func (p *pool) label(pos int) bool { return p.labels[pos%poolPeriod] }

// streamSeed derives a stream's generator seed from the benchmark seed
// and the stream's index, so tenants of one run get distinct streams
// and every run with the same --seed gets the same ones.
func streamSeed(seed int64, stream int) int64 { return seed*1000 + int64(stream) }

// clusteredGen is the clustered stream of the daemon workloads: the
// default three tight clusters with 1% planted projected outliers,
// relocating every 8192 points so abandoned cells must be evicted.
func clusteredGen(seed int64, stream int) bench.GenConfig {
	g := bench.DefaultGenConfig(dims)
	g.DriftPeriod = 8192
	g.Seed = streamSeed(seed, stream)
	return g
}

// uniformGen is the duplication-free stream: uniform over the unit box,
// no planted outliers.
func uniformGen(seed int64) bench.GenConfig {
	g := bench.DefaultGenConfig(dims)
	g.Uniform = true
	g.Seed = streamSeed(seed, 1)
	return g
}

// detectorConfig is the one detector configuration every workload
// runs: DefaultConfig thresholds untouched, EVT auto-thresholding at
// risk 1e-3, scoring and a top-16.
func detectorConfig(shards int) stream.Config {
	cfg := stream.DefaultConfig(dims)
	cfg.Shards = shards
	cfg.AutoThreshold = stream.AutoThreshold{Risk: 1e-3}
	cfg.Scoring = true
	cfg.TopK = 16
	return cfg
}

// evictionHorizon is the number of untouched ticks after which a cell
// touched once decays below the eviction floor: 2^(-λt) < ε.
func evictionHorizon(cfg stream.Config) float64 {
	return math.Log2(1/cfg.EvictEpsilon) / cfg.Lambda
}

// Package bench provides the synthetic high-dimensional stream
// generator used by the detector tests and the throughput benchmark
// harness: Gaussian clusters over the unit box with planted projected
// outliers — points that look normal in the full space but are
// abnormally sparse in some low-dimensional projection, the workload
// SPOT exists to catch. Beyond the stationary default, the generator
// supports two stress modes for the epoch engine: jump drift (cluster
// centers relocate periodically, so summaries of abandoned regions must
// be evicted for memory to stay bounded) and correlated "mix" outliers
// (each per-dimension coordinate is individually dense, only a specific
// multi-dimensional combination is anomalous — invisible to the fixed
// SST group until evolution promotes the right subspace).
package bench

import "math/rand"

// MaxDimFor is the benchmark policy for SST arity by dimensionality:
// the full 3-D template at d ≤ 20, 2-D above (3-D enumeration at d=100
// is 160k+ subspaces — a different experiment). Shared by
// BenchmarkDetector and TestRankingQuality so the throughput grid and
// the ranking-quality gate run the same templates.
func MaxDimFor(d int) int {
	if d <= 20 {
		return 3
	}
	return 2
}

// OutlierMode selects how planted outliers deviate from the clusters.
type OutlierMode int

const (
	// OutlierDisplace (the default) moves OutlierDims randomly chosen
	// dimensions to coordinates far from every cluster center: the
	// outlier is sparse even in the 1-D projections of those
	// dimensions.
	OutlierDisplace OutlierMode = iota
	// OutlierMix borrows dimension MixDim from a different cluster
	// than the rest of the point: every single coordinate lands in a
	// dense interval of its own dimension, but any subspace combining
	// MixDim with another dimension projects the point into an empty
	// cell. Such outliers are invisible to 1-D subspaces and exist to
	// exercise SST evolution. Requires at least two clusters.
	OutlierMix
)

// GenConfig parameterizes a synthetic stream.
type GenConfig struct {
	// Dims is the dimensionality of generated points.
	Dims int
	// Clusters is the number of Gaussian clusters. Ignored when
	// Centers is set.
	Clusters int
	// Centers optionally pins the cluster centers instead of placing
	// them randomly; each must have length Dims. Tests use it to align
	// clusters with grid cells for deterministic assertions.
	Centers [][]float64
	// Sigma is the per-dimension standard deviation of each cluster.
	Sigma float64
	// OutlierRate is the fraction of generated points that are
	// planted projected outliers.
	OutlierRate float64
	// Mode selects the outlier construction; see OutlierMode.
	Mode OutlierMode
	// OutlierDims is how many dimensions of an OutlierDisplace outlier
	// are displaced away from every cluster (its "outlying subspace"
	// arity).
	OutlierDims int
	// MixDim is the dimension an OutlierMix outlier borrows from a
	// second cluster. Ignored when MixDims is set.
	MixDim int
	// MixDims optionally borrows several dimensions at once: every
	// listed dimension of a mix outlier comes from the second cluster,
	// so the anomaly only shows in subspaces combining a borrowed with
	// a home dimension. Supersedes MixDim when non-empty.
	MixDims []int
	// DriftPeriod, when positive, relocates every cluster center to a
	// fresh random position after each DriftPeriod generated points —
	// jump drift. The summaries of abandoned regions are never touched
	// again, which is exactly the workload that needs epoch eviction.
	// Explicit Centers are also re-randomized on drift.
	DriftPeriod int
	// Uniform replaces the clustered point body with draws uniform over
	// the unit box — the adversarial no-structure workload where
	// consecutive points share almost no projected cells, used to bound
	// the overhead of optimizations (batch cell coalescing) that bank on
	// duplication. Outlier planting and drift are disabled: nothing is
	// sparse relative to uniform noise.
	Uniform bool
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultGenConfig returns a reasonable stream for a d-dimensional
// space: a handful of tight clusters and 1% planted projected outliers
// displaced in up to 2 dimensions.
func DefaultGenConfig(d int) GenConfig {
	return GenConfig{
		Dims:        d,
		Clusters:    3,
		Sigma:       0.02,
		OutlierRate: 0.01,
		OutlierDims: 2,
		Seed:        1,
	}
}

// Generator produces a reproducible synthetic stream. Points live in
// the unit box [0,1)^d. Not safe for concurrent use.
type Generator struct {
	cfg      GenConfig
	rng      *rand.Rand
	centers  [][]float64
	count    int
	mixDims  []int
	lastDims []int
}

// NewGenerator builds a generator, placing cluster centers uniformly in
// the interior of the unit box (so cluster mass stays inside it) unless
// cfg.Centers pins them explicitly.
func NewGenerator(cfg GenConfig) *Generator {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{cfg: cfg, rng: rng}
	g.mixDims = cfg.MixDims
	if len(g.mixDims) == 0 {
		g.mixDims = []int{cfg.MixDim}
	}
	if len(cfg.Centers) > 0 {
		for _, c := range cfg.Centers {
			center := make([]float64, cfg.Dims)
			copy(center, c)
			g.centers = append(g.centers, center)
		}
		return g
	}
	g.centers = make([][]float64, cfg.Clusters)
	for c := range g.centers {
		g.centers[c] = make([]float64, cfg.Dims)
	}
	g.placeCenters()
	return g
}

// placeCenters re-randomizes every cluster center.
func (g *Generator) placeCenters() {
	for _, center := range g.centers {
		for i := range center {
			center[i] = 0.2 + 0.6*g.rng.Float64()
		}
	}
}

// Next fills buf (length ≥ Dims) with the next point and reports
// whether it is a planted projected outlier. It does not allocate
// beyond the first planted outlier's ground-truth record (see
// LastOutlierDims).
func (g *Generator) Next(buf []float64) bool {
	cfg := &g.cfg
	if cfg.Uniform {
		g.count++
		for i := 0; i < cfg.Dims; i++ {
			buf[i] = g.rng.Float64()
		}
		return false
	}
	if cfg.DriftPeriod > 0 && g.count > 0 && g.count%cfg.DriftPeriod == 0 {
		g.placeCenters()
	}
	g.count++
	ci := g.rng.Intn(len(g.centers))
	center := g.centers[ci]
	for i := 0; i < cfg.Dims; i++ {
		buf[i] = clamp01(center[i] + cfg.Sigma*g.rng.NormFloat64())
	}
	if g.rng.Float64() >= cfg.OutlierRate {
		return false
	}
	g.lastDims = g.lastDims[:0]
	if cfg.Mode == OutlierMix {
		if len(g.centers) < 2 {
			return false // mix outliers need a second cluster to borrow from
		}
		// Borrow the mix dimensions from another cluster: each borrowed
		// coordinate lands in that cluster's dense interval, so no 1-D
		// projection is suspicious — only the joint cells pairing a
		// borrowed with a home dimension are empty.
		bi := g.rng.Intn(len(g.centers) - 1)
		if bi >= ci {
			bi++
		}
		for _, dim := range g.mixDims {
			buf[dim] = clamp01(g.centers[bi][dim] + cfg.Sigma*g.rng.NormFloat64())
			g.lastDims = append(g.lastDims, dim)
		}
		return true
	}
	// Displace a few dimensions to coordinates far from every cluster
	// center: anomalous only when those dimensions are examined
	// together with nothing to hide behind — a projected outlier.
	for k := 0; k < cfg.OutlierDims; k++ {
		dim := g.rng.Intn(cfg.Dims)
		buf[dim] = g.farCoordinate(dim)
		g.lastDims = append(g.lastDims, dim)
	}
	return true
}

// LastOutlierDims returns the ground-truth outlying dimensions of the
// most recent planted outlier — the dimensions Next displaced (in
// OutlierDisplace mode, possibly with repeats) or borrowed from the
// second cluster (mix modes). The slice is reused by the next planted
// outlier; callers that retain it must copy. It lets supervised
// benchmarks and tests check promoted subspaces against the planted
// truth, the "labeled exemplar" half of the generator's output.
func (g *Generator) LastOutlierDims() []int { return g.lastDims }

// farCoordinate draws a coordinate in [0,1) at distance ≥ 0.12 from
// every cluster center in the given dimension.
func (g *Generator) farCoordinate(dim int) float64 {
	for {
		x := g.rng.Float64()
		ok := true
		for _, c := range g.centers {
			d := x - c[dim]
			if d < 0 {
				d = -d
			}
			if d < 0.12 {
				ok = false
				break
			}
		}
		if ok {
			return x
		}
	}
}

// Fill generates n points into the flat row-major buffer (length ≥
// n*Dims) and marks planted outliers in labels (length ≥ n), returning
// the number of planted outliers.
func (g *Generator) Fill(flat []float64, labels []bool, n int) int {
	planted := 0
	for i := 0; i < n; i++ {
		labels[i] = g.Next(flat[i*g.cfg.Dims : (i+1)*g.cfg.Dims])
		if labels[i] {
			planted++
		}
	}
	return planted
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math1ulpBelow
	}
	return x
}

// math1ulpBelow is the largest float64 strictly below 1, keeping
// clamped values inside the half-open unit box.
const math1ulpBelow = 1 - 1.0/(1<<53)

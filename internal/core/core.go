// Package core implements the cell-based data summaries at the heart of
// SPOT (Zhang, Gao & Wu, "SPOT: A System for Detecting Projected Outliers
// From High-dimensional Data Streams", ICDE 2008).
//
// Concept map (paper term -> code):
//
//   - Equi-width cell grid: every dimension of the data space is
//     partitioned into φ (phi) equal-width intervals. A cell of a
//     subspace s is the cross product of one interval per dimension of
//     s. See Grid.
//
//   - Cell key: a subspace cell is identified by a single packed uint64
//     (subspace ID in the high bits, one byte of interval index per
//     subspace dimension in the low bits) so that locating a cell's
//     summary is one map probe with no per-dimension allocation. See
//     EncodeCell / DecodeCell.
//
//   - BCS (Base Cell Summary): the summary kept for every populated
//     base cell, i.e. a cell of the full d-dimensional space, when an
//     evolver is configured. It holds the decayed density Dc and the
//     last-touch tick — the raw material the epoch sweep snapshots for
//     the self-evolving subspace group (internal/sst's Evolver). The
//     paper's per-dimension linear and squared sums are not kept: no
//     evolver here reconstructs projected centroids. See BCS.
//
//   - PCS (Projected Cell Summary): the compact summary kept per
//     populated cell of every subspace in the Sparse Subspace Template.
//     It holds the decayed density Dc and the decayed first/second
//     moments of the point magnitude within the cell, from which the
//     outlier-ness measures RD (Relative Density), IRSD (Inverse
//     Relative Standard Deviation) and IkRD (Inverse k-Relative
//     Distance) are derived. See PCS and internal/stream for the
//     measure computations.
//
//   - Fading factor: all summaries decay exponentially with stream
//     time, weighting a point observed Δt ticks ago by 2^(-λ·Δt).
//     Decay is applied lazily ("update on touch"): each summary stores
//     the tick of its last update and is brought current only when it
//     is touched again, so ingestion never scans the summary tables.
//     See Decay, DecayTable and the Touch methods.
//
//   - Epoch sweep: the counterpart of lazy decay. Summaries the stream
//     abandons are never touched again, so PCSTable and BCSTable
//     support a periodic linear sweep that evicts entries whose
//     decayed density fell below a floor ε and hands survivors to a
//     visitor for density accounting and SST evolution. See
//     PCSTable.Sweep and BCSTable.Sweep.
package core

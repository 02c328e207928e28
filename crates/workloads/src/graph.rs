//! Synthetic power-law graphs for PageRank.
//!
//! GAP's PageRank inputs (Kronecker/RMAT graphs, twitter/web crawls) share
//! two properties that matter for paging: a heavy-tailed degree
//! distribution (a few huge hubs) and skewed neighbor popularity (edges
//! point disproportionately at hubs). We reproduce both without storing an
//! edge list: only the CSR offsets are materialized (a vertex's degree is
//! the difference of two), while each edge's endpoint is derived from a
//! hash of `(vertex, edge index)` mapped through a power-law warp. This
//! keeps multi-million-edge graphs cheap while preserving the page-access
//! distribution over the rank array.
//!
//! The endpoint of edge `(v, i)` is computed in two halves:
//! [`PowerLawGraph::neighbor_draw`] hashes the edge to a 53-bit draw `m`,
//! and [`PowerLawGraph::neighbor_of_draw`] warps `m` to a vertex. The warp
//! is monotone in `m` and is the only costly step (a `powf`), so a caller
//! that only needs a monotone function of the neighbor, such as the page of
//! its rank entry, can replace the warp by a threshold table over draws
//! ([`crate::pagerank::RankPageTable`]). PageRank goes one step further
//! and tabulates that page once per edge
//! ([`crate::pagerank::PageRankWorkload::edge_pages`]).

use pagesim_engine::rng::splitmix64;

/// Number of distinct neighbor draws: a draw is the top 53 bits of a
/// 64-bit hash, the mantissa width of an `f64`, so `draw / DRAWS` is exact.
pub const DRAWS: u64 = 1 << 53;

/// The least draw `m` above `floor` with `pred(m)`, for `pred` monotone
/// over `floor..DRAWS` with `pred(floor)` false and `pred(DRAWS - 1)`
/// true: gallops out from `guess` until the answer is bracketed, then
/// bisects. Threshold tables over draws find their thresholds with it.
pub(crate) fn least_draw(floor: u64, guess: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let guess = guess.clamp(floor + 1, DRAWS - 1);
    // Invariant: !pred(lo) && pred(hi).
    let (mut lo, mut hi);
    let mut step = 1;
    if pred(guess) {
        hi = guess;
        lo = guess.saturating_sub(step).max(floor);
        while pred(lo) {
            assert!(lo > floor, "predicate true on the floor");
            hi = lo;
            step *= 2;
            lo = lo.saturating_sub(step).max(floor);
        }
    } else {
        lo = guess;
        hi = (guess + step).min(DRAWS - 1);
        while !pred(hi) {
            assert!(hi < DRAWS - 1, "predicate false on the last draw");
            lo = hi;
            step *= 2;
            hi = (hi + step).min(DRAWS - 1);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// A synthetic scale-free graph with hash-generated adjacency.
///
/// Vertex 0 is the biggest hub (degrees descend with vertex id); neighbor
/// draws are warped toward low ids with the same exponent, so hub rank
/// pages are the hottest.
///
/// ```rust
/// use pagesim_workloads::graph::PowerLawGraph;
/// let g = PowerLawGraph::new(1000, 10_000, 0.6, 42);
/// assert_eq!(g.vertices(), 1000);
/// assert!(g.degree(0) > g.degree(999)); // hub head
/// let n = g.neighbor(5, 3);
/// assert!(n < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct PowerLawGraph {
    /// CSR offsets: `offsets[v]` is `v`'s first edge and `offsets[V]` the
    /// edge count, so `v`'s degree is `offsets[v + 1] - offsets[v]`.
    offsets: Vec<u64>,
    seed: u64,
    skew: f64,
}

impl PowerLawGraph {
    /// Builds a graph with `vertices` vertices and approximately
    /// `target_edges` edges; `skew` in `(0, 1)` sets the power-law
    /// exponent (higher = heavier tail).
    ///
    /// # Panics
    ///
    /// Panics if `vertices == 0` or `skew` is outside `(0, 1)`.
    pub fn new(vertices: u32, target_edges: u64, skew: f64, seed: u64) -> Self {
        assert!(vertices > 0, "empty graph");
        assert!(skew > 0.0 && skew < 1.0, "skew must be in (0,1)");
        // Zipf-like degree sequence: deg(v) ∝ 1/(v+1)^skew, scaled to hit
        // the edge target.
        let weights: Vec<f64> = (0..vertices)
            .map(|v| 1.0 / ((v + 1) as f64).powf(skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let scale = target_edges as f64 / total;
        let mut offsets = Vec::with_capacity(vertices as usize + 1);
        let mut acc = 0u64;
        for w in &weights {
            offsets.push(acc);
            acc += (w * scale).round().max(1.0) as u32 as u64;
        }
        offsets.push(acc);
        PowerLawGraph {
            offsets,
            seed,
            skew,
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Total edges (sum of out-degrees).
    pub fn edges(&self) -> u64 {
        self.offsets[self.offsets.len() - 1]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// CSR offset of `v`'s first edge (drives the edges-array page walk).
    pub fn edge_offset(&self, v: u32) -> u64 {
        self.offsets[v as usize]
    }

    /// The `i`-th out-neighbor of `v`, derived deterministically: the
    /// neighbor of the edge's draw. This composition is the definition of
    /// the adjacency; [`neighbor_draw`](Self::neighbor_draw) and
    /// [`neighbor_of_draw`](Self::neighbor_of_draw) are its two halves.
    ///
    /// Neighbor ids follow a power-law toward low ids (hubs), matching the
    /// in-degree skew of RMAT-style graphs.
    pub fn neighbor(&self, v: u32, i: u32) -> u32 {
        self.neighbor_of_draw(self.neighbor_draw(v, i))
    }

    /// The 53-bit uniform draw behind edge `(v, i)`: a hash of the graph
    /// seed and the edge, in `0..`[`DRAWS`].
    pub fn neighbor_draw(&self, v: u32, i: u32) -> u64 {
        debug_assert!(i < self.degree(v));
        splitmix64(self.seed ^ ((v as u64) << 32) ^ i as u64) >> 11
    }

    /// The neighbor a draw `m` in `0..`[`DRAWS`] selects: non-decreasing
    /// in `m`, up to the sub-ULP rounding of the `powf` warp.
    pub fn neighbor_of_draw(&self, m: u64) -> u32 {
        debug_assert!(m < DRAWS);
        // u in [0,1): warp by u^(1/(1-skew)) to concentrate near 0.
        let u = m as f64 / DRAWS as f64;
        let warped = u.powf(1.0 / (1.0 - self.skew));
        let n = (warped * self.vertices() as f64) as u32;
        n.min(self.vertices() - 1)
    }

    /// The degree/neighbor skew exponent in `(0, 1)`.
    pub(crate) fn skew(&self) -> f64 {
        self.skew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> PowerLawGraph {
        PowerLawGraph::new(10_000, 100_000, 0.6, 7)
    }

    #[test]
    fn edge_count_near_target() {
        let g = g();
        let e = g.edges() as f64;
        assert!((0.8..1.5).contains(&(e / 100_000.0)), "edges = {e}");
        assert_eq!(g.edge_offset(0), 0);
        assert_eq!(g.edge_offset(9_999) + g.degree(9_999) as u64, g.edges());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = g();
        let mean = g.edges() as f64 / g.vertices() as f64;
        // Degrees descend by construction: vertex 0 is the straggler hub.
        let hub = g.degree(0);
        assert!(hub as f64 > 20.0 * mean, "hub degree {hub} vs mean {mean}");
        assert!(g.degree(9_999) >= 1, "every vertex has an edge");
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let g = g();
        for v in 1..100u32 {
            assert_eq!(
                g.edge_offset(v),
                g.edge_offset(v - 1) + g.degree(v - 1) as u64
            );
        }
    }

    #[test]
    fn neighbors_skew_to_hubs() {
        let g = g();
        let mut low = 0;
        let mut total = 0;
        for v in (0..10_000).step_by(97) {
            for i in 0..g.degree(v).min(20) {
                total += 1;
                if g.neighbor(v, i) < 1000 {
                    low += 1;
                }
            }
        }
        // 10% of the id space should attract far more than 10% of edges.
        let share = low as f64 / total as f64;
        assert!(share > 0.3, "hub share = {share}");
    }

    #[test]
    fn adjacency_is_deterministic() {
        let a = PowerLawGraph::new(1000, 5000, 0.6, 3);
        let b = PowerLawGraph::new(1000, 5000, 0.6, 3);
        for v in 0..100 {
            for i in 0..a.degree(v) {
                assert_eq!(a.neighbor(v, i), b.neighbor(v, i));
            }
        }
        let c = PowerLawGraph::new(1000, 5000, 0.6, 4);
        let diff = (0..100u32)
            .flat_map(|v| (0..a.degree(v).min(c.degree(v))).map(move |i| (v, i)))
            .filter(|&(v, i)| a.neighbor(v, i) != c.neighbor(v, i))
            .count();
        assert!(diff > 0, "seeds must matter");
    }

    #[test]
    fn neighbors_in_range() {
        let g = PowerLawGraph::new(17, 100, 0.5, 9);
        for v in 0..17 {
            for i in 0..g.degree(v) {
                assert!(g.neighbor(v, i) < 17);
            }
        }
    }
}

//! Random-walk algorithms (§IV-A).
//!
//! The paper evaluates three: uniform sampling (DeepWalk-style fixed-length
//! walks recording a `walk_id`), PageRank (random walk with restart,
//! p = 0.15, fixed length), and Personalized PageRank (all walks from one
//! source, geometric termination with p = 0.15). As extensions we add an
//! exact weighted first-order walk and an exact node2vec-style second-order
//! walk, both mentioned in §II-A as the natural generalisations.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::rng::{step_value, step_value2, uniform_f64, uniform_index};
use crate::walker::Walker;
use lt_graph::{Csr, VertexId};
use std::ops::RangeInclusive;

/// Outcome of one step decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepDecision {
    /// Move to this vertex (and record a visit if the algorithm tracks
    /// visit frequencies).
    Move(VertexId),
    /// Move to this vertex along an edge carrying this timestamp
    /// (temporal walks). Advancing stores the timestamp in `walker.aux`,
    /// which doubles as the walker's clock — temporal walks trade the
    /// second-order history slot for a time slot.
    MoveAt(VertexId, u32),
    /// The walk is finished.
    Terminate,
}

impl StepDecision {
    /// The destination vertex, if the decision moves.
    #[inline]
    pub fn target(&self) -> Option<VertexId> {
        match *self {
            StepDecision::Move(v) | StepDecision::MoveAt(v, _) => Some(v),
            StepDecision::Terminate => None,
        }
    }

    /// Apply the decision to a walker in place: hop, count the step, and
    /// update `aux` (previous vertex for [`StepDecision::Move`], the
    /// traversed edge's timestamp for [`StepDecision::MoveAt`]). No-op on
    /// [`StepDecision::Terminate`].
    #[inline]
    pub fn advance(&self, w: &mut Walker) {
        match *self {
            StepDecision::Move(v) => {
                w.aux = w.vertex;
                w.vertex = v;
                w.step += 1;
            }
            StepDecision::MoveAt(v, time) => {
                w.aux = time;
                w.vertex = v;
                w.step += 1;
            }
            StepDecision::Terminate => {}
        }
    }
}

/// Per-vertex context handed to [`WalkAlgorithm::step`]: the neighbors of
/// the walker's current vertex plus optional weights, read from whichever
/// copy of the partition is in play (device pool or zero copy).
#[derive(Clone, Copy, Debug)]
pub struct StepContext<'a> {
    /// Neighbors of the current vertex.
    pub neighbors: &'a [VertexId],
    /// Edge weights parallel to `neighbors`, for weighted walks.
    pub weights: Option<&'a [f32]>,
    /// Neighbors of the *previous* vertex (`walker.aux`), in the graph's
    /// row order: vertex-sorted, or in time order on a timestamped graph
    /// (`timestamps` is `Some`). `Some` only for an algorithm whose
    /// [`WalkAlgorithm::reads_prev_neighbors`] is `true`, and even then
    /// `None` when the previous vertex lies outside the resident
    /// partition — the asymmetry the second-order engines the paper cites
    /// accept. [`SecondOrderWalk`] then cannot tell a common neighbor of
    /// the previous vertex from an outward one and weighs every candidate
    /// but the previous vertex `1/q`.
    pub prev_neighbors: Option<&'a [VertexId]>,
    /// Edge timestamps parallel to `neighbors`, for temporal walks.
    /// `None` on non-temporal graphs.
    pub timestamps: Option<&'a [u32]>,
    /// The graph's [`lt_graph::Csr::max_multiplicity`]: no row holds more
    /// parallel edges to one target (1 on every deduplicated graph).
    /// [`SecondOrderWalk`] sizes its return-edge strip by it, so every
    /// site stepping one graph passes that graph's value; a first-order
    /// walk ignores it (callers pass 1).
    pub max_multiplicity: u32,
    /// Total vertex count of the graph (for restarts).
    pub num_vertices: u64,
}

/// A random-walk algorithm: initial walker placement plus the per-step
/// transition rule.
///
/// Implementations must be deterministic in `(seed, walker.id,
/// walker.step)` — all randomness must come from [`crate::rng`] — so that
/// trajectories are independent of scheduling (see `rng` module docs).
/// The same purity lets the kernel ask, before a walker's turn, which
/// entry of its row the step will read first
/// ([`WalkAlgorithm::first_read`]) and prefetch it while earlier walkers
/// step.
pub trait WalkAlgorithm: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Place initial walker `id` on a graph of `num_vertices` vertices.
    /// Placement is id-addressed and reads the vertex count and nothing
    /// else of the graph, so an engine over an out-of-core store or an
    /// evolving block table seeds walks without a CSR in hand, and files
    /// them as they are placed, never holding the whole workload twice.
    /// `None` for an algorithm with no workload of its own
    /// ([`crate::JobTable`]): placement stops at the first `None`.
    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker>;

    /// Walkers `0..num_walks` ([`WalkAlgorithm::place_walker`]), in id
    /// order. `num_walks` is the workload size (typically `2|V|`).
    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        (0..num_walks)
            .map_while(|id| self.place_walker(num_vertices, id))
            .collect()
    }

    /// [`WalkAlgorithm::place_walkers`] for a caller holding a CSR. Kept
    /// only because the frozen `benchmark/` harness calls it; nothing in
    /// this repository does.
    fn initial_walkers(&self, graph: &Csr, num_walks: u64) -> Vec<Walker> {
        self.place_walkers(graph.num_vertices(), num_walks)
    }

    /// Decide walker's next move. Called with `walker.step` equal to the
    /// number of steps already taken.
    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision;

    /// The index, in the walker's current row of `degree` entries (at
    /// least one), of the entry [`WalkAlgorithm::step`] reads first: its
    /// first drawn candidate, or 0 for a step that scans or searches the
    /// row. The kernel prefetches that entry of every edge column a few
    /// walkers ahead (`kernel::PREFETCH_AHEAD`).
    ///
    /// A hint only: a wrong answer costs a cache miss, never a result.
    /// The default, 0, is right for a scan such as [`WeightedWalk`]'s and
    /// for [`TemporalWalk`]'s window search, which reads the row's first
    /// stamp first. An implementation takes its answer from the helper
    /// its `step` takes the first draw from, so the two cannot drift
    /// apart.
    fn first_read(&self, walker: &Walker, degree: usize, seed: u64) -> usize {
        let _ = (walker, degree, seed);
        0
    }

    /// Whether [`WalkAlgorithm::step`] reads
    /// [`StepContext::prev_neighbors`]. The engine asks once per batch and
    /// only on `true` looks `walker.aux` up — and, over an out-of-core
    /// store, decodes the partitions it points into. No default on
    /// purpose: a wrong `false` silently makes a second-order walk
    /// first-order, so every implementer has to answer.
    fn reads_prev_neighbors(&self) -> bool;

    /// Whether per-vertex visit frequencies must be maintained in device
    /// memory (PageRank, PPR).
    fn tracks_visits(&self) -> bool {
        false
    }

    /// Whether [`WalkAlgorithm::step`] routes each walker by
    /// [`crate::Walker::tag`] to a job of its own. The engine asks once,
    /// at construction, and on `true` splits every kernel's steps, visits
    /// and finished walks by tag into [`crate::TagDelta`]s. The default,
    /// `false`, is one job under tag 0; [`crate::JobTable`] answers
    /// `true`.
    fn routes_by_tag(&self) -> bool {
        false
    }

    /// Check the algorithm's parameters before any walker steps. The
    /// engine ([`crate::LightTraffic::new`]) and the job table
    /// ([`crate::JobTable::register`]) refuse an algorithm that fails
    /// with [`crate::EngineError::Admission`] carrying the message. The
    /// default accepts.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Simulated walk-index size `S_w` in bytes (8 for plain
    /// vertex+steps, 16 when a walk id is carried, 20 for second-order).
    fn walker_state_bytes(&self) -> u64 {
        8
    }
}

/// Helper: spread walkers uniformly over all vertices (walk `id` starts
/// at vertex `id mod |V|`), the paper's placement for PageRank and
/// uniform sampling.
fn spread_walker(nv: u64, id: u64) -> Option<Walker> {
    Some(Walker::new(id, (id % nv) as VertexId))
}

/// The entry a walker's `salt`-th uniform draw names in a row of `degree`
/// entries (`degree > 0`); salt 0 is the unsalted draw. The uniform row
/// picks of every `step` with a [`WalkAlgorithm::first_read`] hint go
/// through here, and so do the hints that name one.
#[inline]
fn pick(seed: u64, walker: &Walker, salt: u64, degree: usize) -> usize {
    let r = step_value(seed ^ (salt << 32), walker.id, walker.step);
    uniform_index(r, degree as u64) as usize
}

/// The entry a walker's second draw names in a row of `degree` entries
/// (`degree > 0`): the neighbor choice of a step whose first draw decides
/// whether to restart or stop.
#[inline]
fn pick2(seed: u64, walker: &Walker, degree: usize) -> usize {
    uniform_index(step_value2(seed, walker.id, walker.step), degree as u64) as usize
}

/// DeepWalk-style uniform sampling: fixed length `l`, uniform neighbor at
/// each step, `walk_id` recorded in the walk index (`S_w` = 16).
#[derive(Clone, Copy, Debug)]
pub struct UniformSampling {
    /// Walk length `l` (paper default 80).
    pub length: u32,
}

impl UniformSampling {
    /// Fixed-length uniform sampling with walk length `length`.
    pub fn new(length: u32) -> Self {
        UniformSampling { length }
    }
}

impl WalkAlgorithm for UniformSampling {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker> {
        spread_walker(num_vertices, id)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        StepDecision::Move(ctx.neighbors[pick(seed, walker, 0, ctx.neighbors.len())])
    }

    fn first_read(&self, walker: &Walker, degree: usize, seed: u64) -> usize {
        pick(seed, walker, 0, degree)
    }

    fn walker_state_bytes(&self) -> u64 {
        16 // current_vertex + walked_steps + walk_id
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }
}

/// Monte-Carlo PageRank: random walk with restart. At each step the walk
/// restarts at a uniformly random vertex with probability `restart_p`,
/// otherwise moves to a uniform neighbor; it terminates after `length`
/// steps. Visit frequencies are maintained in device memory.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Walk length `l` (paper default 80).
    pub length: u32,
    /// Restart probability `p` (paper default 0.15).
    pub restart_p: f64,
}

impl PageRank {
    /// PageRank walk with the paper's defaults for the given length.
    pub fn new(length: u32, restart_p: f64) -> Self {
        PageRank { length, restart_p }
    }
}

impl WalkAlgorithm for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker> {
        spread_walker(num_vertices, id)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length {
            return StepDecision::Terminate;
        }
        let r = step_value(seed, walker.id, walker.step);
        if uniform_f64(r) < self.restart_p || ctx.neighbors.is_empty() {
            let r2 = step_value2(seed, walker.id, walker.step);
            return StepDecision::Move(uniform_index(r2, ctx.num_vertices) as VertexId);
        }
        StepDecision::Move(ctx.neighbors[pick2(seed, walker, ctx.neighbors.len())])
    }

    fn first_read(&self, walker: &Walker, degree: usize, seed: u64) -> usize {
        pick2(seed, walker, degree)
    }

    fn tracks_visits(&self) -> bool {
        true
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }
}

/// Personalized PageRank: every walk starts at `source` and terminates with
/// probability `stop_p` at each step (geometric length). The paper starts
/// all walks at the highest-degree vertex.
#[derive(Clone, Copy, Debug)]
pub struct Ppr {
    /// The common source vertex.
    pub source: VertexId,
    /// Per-step termination probability (paper default 0.15).
    pub stop_p: f64,
    /// Safety cap on walk length (geometric tails are unbounded).
    pub cap: u32,
}

impl Ppr {
    /// PPR from an explicit source.
    pub fn new(source: VertexId, stop_p: f64) -> Self {
        Ppr {
            source,
            stop_p,
            cap: 10_000,
        }
    }

    /// PPR from the highest-degree vertex of `graph` (the paper's choice).
    pub fn from_highest_degree(graph: &Csr, stop_p: f64) -> Self {
        let source = (0..graph.num_vertices() as VertexId)
            .max_by_key(|&v| graph.degree(v))
            .unwrap_or(0);
        Self::new(source, stop_p)
    }
}

impl WalkAlgorithm for Ppr {
    fn name(&self) -> &'static str {
        "ppr"
    }

    fn place_walker(&self, _num_vertices: u64, id: u64) -> Option<Walker> {
        Some(Walker::new(id, self.source))
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.cap || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let r = step_value(seed, walker.id, walker.step);
        if uniform_f64(r) < self.stop_p {
            return StepDecision::Terminate;
        }
        StepDecision::Move(ctx.neighbors[pick2(seed, walker, ctx.neighbors.len())])
    }

    fn first_read(&self, walker: &Walker, degree: usize, seed: u64) -> usize {
        pick2(seed, walker, degree)
    }

    fn tracks_visits(&self) -> bool {
        true
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }
}

/// Exact weighted first-order walk (§II-A) by inverse transform: one pass
/// sums the row's weights, one draw picks a point below the sum, and a
/// prefix-sum scan finds the edge it falls on. O(d) per step and no
/// retries, however skewed the row, and no state built from the graph, so
/// it walks an evolving graph across seals. It is the one weighted
/// sampler: an O(1)-per-step alias table would be a second path with no
/// weighted benchmark workload to measure it on (DESIGN.md §12).
#[derive(Clone, Copy, Debug)]
pub struct WeightedWalk {
    /// Fixed walk length.
    pub length: u32,
}

impl WeightedWalk {
    /// Weighted fixed-length walk.
    pub fn new(length: u32) -> Self {
        WeightedWalk { length }
    }
}

impl WalkAlgorithm for WeightedWalk {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker> {
        spread_walker(num_vertices, id)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let weights = match ctx.weights {
            Some(w) => w,
            // Unweighted graph: degenerate to uniform.
            None => {
                let r = step_value(seed, walker.id, walker.step);
                let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
                return StepDecision::Move(ctx.neighbors[k]);
            }
        };
        // Summed in the order the scan below accumulates, so the scan
        // reaches exactly `w_sum` at the row's end.
        let w_sum = weights.iter().fold(0.0f64, |s, &w| s + w as f64);
        let r = step_value(seed, walker.id, walker.step);
        if w_sum <= 0.0 {
            let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
            return StepDecision::Move(ctx.neighbors[k]);
        }
        let target = uniform_f64(r) * w_sum;
        let mut acc = 0.0;
        let k = weights
            .iter()
            .position(|&w| {
                acc += w as f64;
                acc > target
            })
            // `target` rounded up to `w_sum`: the last edge that can be
            // drawn.
            .or_else(|| weights.iter().rposition(|&w| w > 0.0))
            .expect("w_sum > 0, so some weight is positive");
        StepDecision::Move(ctx.neighbors[k])
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }
}

/// Node2vec-style second-order walk (extension). The transition from `v`
/// is biased by the previous vertex `t` stored in `walker.aux`:
///
/// - returning to `t` has weight `1/p` (return parameter),
/// - moving to a common neighbor of `t` and `v` (distance 1 from `t`) has
///   weight 1,
/// - moving "outward" (distance 2 from `t`) has weight `1/q` (in-out
///   parameter),
///
/// each per edge slot, so `m` parallel edges to `t` weigh `m/p`. Without
/// second-order context ([`StepContext::prev_neighbors`] is `None`) every
/// candidate but `t` weighs `1/q`.
///
/// Sampling is exact rejection against an envelope that covers only the
/// weights in force, so no alias tables are needed on the "device" — the
/// trade-off ThunderRW and the second-order I/O systems the paper cites
/// also make. The `d` columns of the row are capped at the heaviest
/// non-return weight, `cap = max(1, 1/q)` with context and `1/q` without;
/// the return edge's excess `1/p − cap`, if any, is folded into a strip of
/// height `(1/p − cap)·M/d` on top (KnightKing's fold), `M` being the
/// smaller of [`StepContext::max_multiplicity`] and `d` (no row holds
/// more copies of `t` than either), so one multi-edge hub elsewhere in
/// the graph never loosens a short row's envelope. A proposal picks a
/// column and a height: below `min(1, 1/q)` any candidate but `t` is
/// accepted without searching `t`'s row; between that and `cap` one
/// binary search of `t`'s row decides; in the strip `t` is taken with
/// probability `m/M`, `m` being its copies in the row, which are counted
/// only then. Proposals repeat until one is accepted — no cap, so the law
/// is exact however loose the envelope. Rows are searched where they are
/// vertex-sorted and scanned where they are in time order (a timestamped
/// graph, [`StepContext::timestamps`] `Some`).
///
/// A step's expected proposals are at most the ratio of the heaviest to
/// the lightest of 1, `1/p` and `1/q`, so `p` and `q` must lie in
/// [`SecondOrderWalk::PARAM_RANGE`] ([`WalkAlgorithm::validate`]).
#[derive(Clone, Copy, Debug)]
pub struct SecondOrderWalk {
    /// Fixed walk length.
    pub length: u32,
    /// Return parameter `p` of node2vec.
    pub return_p: f64,
    /// In-out parameter `q` of node2vec (q > 1 keeps walks local, q < 1
    /// pushes them outward).
    pub in_out_q: f64,
}

impl SecondOrderWalk {
    /// The values `p` and `q` may take. It bounds a step's expected
    /// proposals at 10,000 (`p = 0.01`, `q = 100`); outside it they grow
    /// without bound, and `p = 0` or a non-finite `q` never accepts at
    /// all. node2vec's usual grid is 0.25–4.
    pub const PARAM_RANGE: RangeInclusive<f64> = 0.01..=100.0;

    /// Second-order walk with the given return parameter and `q = 1`
    /// (distance-2 moves unbiased).
    pub fn new(length: u32, return_p: f64) -> Self {
        Self::node2vec(length, return_p, 1.0)
    }

    /// Full node2vec parameterization. `p` and `q` must pass
    /// [`SecondOrderWalk::check`]; callers taking them from outside check
    /// first, since the engine refuses the walk otherwise.
    pub fn node2vec(length: u32, return_p: f64, in_out_q: f64) -> Self {
        debug_assert!(
            Self::check(return_p, in_out_q).is_ok(),
            "node2vec p = {return_p}, q = {in_out_q} outside {:?}",
            Self::PARAM_RANGE
        );
        SecondOrderWalk {
            length,
            return_p,
            in_out_q,
        }
    }

    /// `Ok` when both parameters lie in [`SecondOrderWalk::PARAM_RANGE`]
    /// (NaN does not), else a one-line reason naming the first one that
    /// does not.
    pub fn check(return_p: f64, in_out_q: f64) -> Result<(), String> {
        for (name, v) in [("p", return_p), ("q", in_out_q)] {
            if !Self::PARAM_RANGE.contains(&v) {
                return Err(format!(
                    "node2vec {name} = {v} is outside {:?}",
                    Self::PARAM_RANGE
                ));
            }
        }
        Ok(())
    }
}

/// Copies of `v` in `row`, counted up to `limit`: a search of a
/// vertex-sorted row, a scan of a row in time order (`time_ordered`),
/// where copies of one target need not be adjacent.
#[inline]
fn copies(row: &[VertexId], v: VertexId, limit: u32, time_ordered: bool) -> u32 {
    if time_ordered {
        return row.iter().filter(|&&x| x == v).take(limit as usize).count() as u32;
    }
    let lo = row.partition_point(|&x| x < v);
    row[lo..]
        .iter()
        .take(limit as usize)
        .take_while(|&&x| x == v)
        .count() as u32
}

/// Whether `row` holds `v`: a binary search of a vertex-sorted row, a
/// scan of a row in time order (`time_ordered`).
#[inline]
fn holds(row: &[VertexId], v: VertexId, time_ordered: bool) -> bool {
    if time_ordered {
        row.contains(&v)
    } else {
        row.binary_search(&v).is_ok()
    }
}

impl WalkAlgorithm for SecondOrderWalk {
    fn name(&self) -> &'static str {
        "second-order"
    }

    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker> {
        spread_walker(num_vertices, id)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let prev = walker.aux;
        // First step (or missing history): uniform, the unsalted draw
        // the first proposal below also takes.
        if walker.step == 0 || prev == VertexId::MAX {
            return StepDecision::Move(ctx.neighbors[pick(seed, walker, 0, ctx.neighbors.len())]);
        }
        let row = ctx.neighbors;
        // A timestamped graph keeps its rows in time order, not by vertex.
        let time_ordered = ctx.timestamps.is_some();
        let (ret, out) = (1.0 / self.return_p, 1.0 / self.in_out_q);
        // The lightest and heaviest non-return weight in force.
        let (floor, cap) = match ctx.prev_neighbors {
            Some(_) => (out.min(1.0), out.max(1.0)),
            None => (out, out),
        };
        // `prev` has at most this many copies in the row.
        let m_max = ctx
            .max_multiplicity
            .min(u32::try_from(row.len()).unwrap_or(u32::MAX));
        let strip = (ret - cap).max(0.0) * m_max as f64 / row.len() as f64;
        let height = cap + strip;
        let mut salt = 0u64;
        loop {
            let s = seed ^ (salt << 32);
            let cand = row[pick(seed, walker, salt, row.len())];
            let y = uniform_f64(step_value2(s, walker.id, walker.step)) * height;
            if y >= cap {
                // The strip: `prev`'s excess weight, per copy in the row.
                let m = copies(row, prev, m_max, time_ordered);
                if (y - cap) * (m_max as f64) < m as f64 * strip {
                    return StepDecision::Move(prev);
                }
            } else if cand == prev {
                if y < ret {
                    return StepDecision::Move(cand);
                }
            } else if y < floor
                || y < match ctx.prev_neighbors {
                    Some(pn) if holds(pn, cand, time_ordered) => 1.0,
                    _ => out,
                }
            {
                return StepDecision::Move(cand);
            }
            salt += 1;
        }
    }

    /// The unsalted draw: the first step's uniform pick and every later
    /// step's first proposal alike.
    fn first_read(&self, walker: &Walker, degree: usize, seed: u64) -> usize {
        pick(seed, walker, 0, degree)
    }

    fn validate(&self) -> Result<(), String> {
        Self::check(self.return_p, self.in_out_q)
    }

    fn walker_state_bytes(&self) -> u64 {
        20 // vertex + steps + id + previous vertex
    }

    fn reads_prev_neighbors(&self) -> bool {
        true
    }
}

/// The interpolation guess a window search starts from: a row in time
/// order read as if its stamps were spread evenly between its first and
/// its last.
#[derive(Clone, Copy)]
struct Interpolation {
    first: u32,
    /// Entries per stamp, in 32.32 fixed point: one division a row.
    per_stamp: u64,
    last_index: usize,
}

impl Interpolation {
    /// The guess for `ts`, non-empty and in time order.
    #[inline]
    fn of(ts: &[u32]) -> Self {
        let (first, last) = (ts[0], ts[ts.len() - 1]);
        Interpolation {
            first,
            per_stamp: ((ts.len() as u64) << 32) / (u64::from(last - first) + 1),
            last_index: ts.len() - 1,
        }
    }

    /// Where the first stamp `>= x` would sit: the entries stamped
    /// before `x`, estimated, held to the row.
    #[inline]
    fn at(self, x: u32) -> usize {
        let below = (u128::from(x.saturating_sub(self.first)) * u128::from(self.per_stamp)) >> 32;
        (below as usize).min(self.last_index)
    }
}

/// The partition point of `pred` over `ts` (the first index where it is
/// false; it must hold on a prefix), searched outward from `guess <
/// ts.len()`: steps of 1, 2, 4, ... bracket it, then a binary search
/// inside the bracket finds it. A good guess costs a cache line or two
/// where a plain binary search of a hub row misses log₂ d times.
#[inline]
fn gallop(ts: &[u32], guess: usize, pred: impl Fn(u32) -> bool) -> usize {
    let d = ts.len();
    let mut step = 1;
    if pred(ts[guess]) {
        // The answer is past `at`.
        let mut at = guess;
        loop {
            let probe = at + step;
            if probe >= d || !pred(ts[probe]) {
                let end = probe.min(d);
                return at + 1 + ts[at + 1..end].partition_point(|&x| pred(x));
            }
            (at, step) = (probe, step * 2);
        }
    } else {
        // The answer is at `at` or before it.
        let mut at = guess;
        loop {
            if at < step {
                return ts[..at].partition_point(|&x| pred(x));
            }
            let probe = at - step;
            if pred(ts[probe]) {
                return probe + 1 + ts[probe + 1..at].partition_point(|&x| pred(x));
            }
            (at, step) = (probe, step * 2);
        }
    }
}

/// Temporal random walk on a timestamped graph (DESIGN.md §15): each step
/// may only traverse edges whose timestamp lies in the sliding window
/// `[t, t + window]`, where `t` is the walker's clock — the timestamp of
/// the last edge it traversed (`start_time` before the first hop). Among
/// in-window edges the choice is uniform; a walk terminates when no edge
/// falls inside its window (it has "run out of time") or after `length`
/// steps.
///
/// Rows of a timestamped graph are in time order ([`Csr`]), so the
/// in-window edges are one range `[lo, hi)` of the row: `lo` the first
/// stamp `>= t`, `hi` the first stamp past the window's end (`t +
/// window`, saturating; one past it is never formed, as it can
/// overflow), each found from an interpolation guess refined by
/// galloping. An empty range terminates; otherwise the step moves to
/// entry `lo + uniform_index(step_value(seed, id, step), hi - lo)`. The
/// law is uniform over the in-window edges exactly, and the decision is a
/// pure function of `(row, walker, seed)`.
///
/// The walker's clock lives in `walker.aux` via [`StepDecision::MoveAt`]:
/// time only moves forward (candidate timestamps are `>= t`), matching the
/// usual strictly-non-decreasing temporal-walk definition. On a
/// non-temporal graph (no timestamps) the walk degrades to plain uniform
/// sampling, mirroring [`WeightedWalk`]'s unweighted fallback.
#[derive(Clone, Copy, Debug)]
pub struct TemporalWalk {
    /// Fixed walk length cap.
    pub length: u32,
    /// Window width: an edge is admissible at clock `t` iff its timestamp
    /// lies in `[t, t + window]` (inclusive, saturating).
    pub window: u32,
    /// Clock value walkers start with (before any edge is traversed).
    pub start_time: u32,
}

impl TemporalWalk {
    /// Temporal walk starting at time 0.
    pub fn new(length: u32, window: u32) -> Self {
        TemporalWalk {
            length,
            window,
            start_time: 0,
        }
    }

    /// Temporal walk with an explicit start clock.
    pub fn starting_at(length: u32, window: u32, start_time: u32) -> Self {
        TemporalWalk {
            length,
            window,
            start_time,
        }
    }

    /// The walker's current clock: `start_time` before the first hop,
    /// otherwise the timestamp of the last traversed edge (in `aux`).
    #[inline]
    fn clock(&self, walker: &Walker) -> u32 {
        if walker.step == 0 {
            self.start_time
        } else {
            walker.aux
        }
    }
}

impl WalkAlgorithm for TemporalWalk {
    fn name(&self) -> &'static str {
        "temporal"
    }

    fn place_walker(&self, num_vertices: u64, id: u64) -> Option<Walker> {
        spread_walker(num_vertices, id)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let ts = match ctx.timestamps {
            Some(ts) => ts,
            // Non-temporal graph: degenerate to uniform sampling.
            None => {
                let k = pick(seed, walker, 0, ctx.neighbors.len());
                return StepDecision::Move(ctx.neighbors[k]);
            }
        };
        let t = self.clock(walker);
        let end = t.saturating_add(self.window);
        // The two searches start from their own guesses, independent of
        // each other, so their first probes are in flight together.
        let guess = Interpolation::of(ts);
        let lo = gallop(ts, guess.at(t), |x| x < t);
        let hi = gallop(ts, guess.at(end), |x| x <= end);
        if lo == hi {
            return StepDecision::Terminate;
        }
        let k = lo + pick(seed, walker, 0, hi - lo);
        StepDecision::MoveAt(ctx.neighbors[k], ts[k])
    }

    fn walker_state_bytes(&self) -> u64 {
        16 // vertex + steps + clock
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::{erdos_renyi, with_random_weights};

    fn ctx<'a>(neighbors: &'a [VertexId], nv: u64) -> StepContext<'a> {
        StepContext {
            neighbors,
            weights: None,
            prev_neighbors: None,
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: nv,
        }
    }

    fn tctx<'a>(neighbors: &'a [VertexId], ts: &'a [u32], nv: u64) -> StepContext<'a> {
        StepContext {
            neighbors,
            weights: None,
            prev_neighbors: None,
            timestamps: Some(ts),
            max_multiplicity: 1,
            num_vertices: nv,
        }
    }

    #[test]
    fn uniform_terminates_at_length() {
        let alg = UniformSampling::new(5);
        let w = Walker {
            id: 0,
            vertex: 0,
            step: 5,
            aux: 0,
            tag: 0,
        };
        assert_eq!(alg.step(&w, ctx(&[1, 2], 10), 1), StepDecision::Terminate);
        let w2 = Walker { step: 4, ..w };
        assert!(matches!(
            alg.step(&w2, ctx(&[1, 2], 10), 1),
            StepDecision::Move(_)
        ));
    }

    #[test]
    fn uniform_moves_to_a_neighbor() {
        let alg = UniformSampling::new(100);
        let nbrs = [3u32, 9, 27];
        for id in 0..200 {
            let w = Walker::new(id, 0);
            let v = alg.step(&w, ctx(&nbrs, 100), 42).target().expect("move");
            assert!(nbrs.contains(&v));
        }
    }

    #[test]
    fn uniform_terminates_on_dead_end() {
        let alg = UniformSampling::new(100);
        let w = Walker::new(0, 0);
        assert_eq!(alg.step(&w, ctx(&[], 10), 1), StepDecision::Terminate);
    }

    #[test]
    fn pagerank_restart_rate_is_about_p() {
        let alg = PageRank::new(u32::MAX, 0.15);
        let nbrs = [1u32];
        let mut restarts = 0;
        let trials = 20_000;
        for id in 0..trials {
            let w = Walker::new(id, 0);
            if let StepDecision::Move(v) = alg.step(&w, ctx(&nbrs, 1000), 9) {
                if v != 1 {
                    restarts += 1;
                }
            }
        }
        let rate = restarts as f64 / trials as f64;
        // Restart moves land anywhere incl. vertex 1 w.p. 1/1000 — negligible.
        assert!((0.13..0.17).contains(&rate), "rate {rate}");
    }

    #[test]
    fn pagerank_restarts_on_dead_end_instead_of_dying() {
        let alg = PageRank::new(100, 0.15);
        let w = Walker::new(1, 0);
        assert!(matches!(
            alg.step(&w, ctx(&[], 50), 3),
            StepDecision::Move(v) if v < 50
        ));
    }

    #[test]
    fn ppr_length_is_geometric() {
        let alg = Ppr::new(0, 0.2);
        let nbrs = [1u32, 2];
        let mut total_steps = 0u64;
        let walks = 20_000u64;
        for id in 0..walks {
            let mut w = Walker::new(id, 0);
            loop {
                match alg.step(&w, ctx(&nbrs, 10), 4) {
                    StepDecision::Terminate => break,
                    d => {
                        w.vertex = d.target().unwrap();
                        w.step += 1;
                        total_steps += 1;
                    }
                }
            }
        }
        // E[steps] = (1-p)/p = 4 for p = 0.2.
        let mean = total_steps as f64 / walks as f64;
        assert!((3.7..4.3).contains(&mean), "mean {mean}");
    }

    #[test]
    fn ppr_all_walkers_start_at_source() {
        let g = erdos_renyi(128, 1024, 1).csr;
        let alg = Ppr::from_highest_degree(&g, 0.15);
        let ws = alg.place_walkers(g.num_vertices(), 100);
        assert_eq!(ws.len(), 100);
        assert!(ws.iter().all(|w| w.vertex == alg.source));
        assert_eq!(g.degree(alg.source), g.max_degree());
    }

    #[test]
    fn weighted_walk_biases_toward_heavy_edges() {
        let g = erdos_renyi(64, 2048, 2).csr;
        let g = with_random_weights(&g, 3);
        let alg = WeightedWalk::new(1);
        // Pick a vertex with >= 4 neighbors and count first-step choices.
        let v = (0..64u32).find(|&v| g.degree(v) >= 4).unwrap();
        let nbrs = g.neighbors(v);
        let weights = g.neighbor_weights(v).unwrap();
        let sctx = StepContext {
            neighbors: nbrs,
            weights: Some(weights),
            prev_neighbors: None,
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: 64,
        };
        let mut counts = vec![0u64; nbrs.len()];
        let trials = 50_000u64;
        for id in 0..trials {
            let w = Walker::new(id, v);
            if let StepDecision::Move(t) = alg.step(&w, sctx, 6) {
                counts[nbrs.iter().position(|&x| x == t).unwrap()] += 1;
            }
        }
        // Empirical frequency should be ~ weight / sum(weights).
        let wsum: f32 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expect = (weights[i] / wsum) as f64;
            let got = c as f64 / trials as f64;
            assert!(
                (got - expect).abs() < 0.03 + 0.25 * expect,
                "neighbor {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn second_order_prefers_return_when_p_small() {
        // return_p = 0.25 => returning proposal weight 4x.
        let alg = SecondOrderWalk::new(10, 0.25);
        let nbrs = [5u32, 6, 7, 8];
        let mut returns = 0u64;
        let trials = 20_000u64;
        for id in 0..trials {
            let w = Walker {
                id,
                vertex: 0,
                step: 1,
                aux: 5, // previous vertex is neighbor 5
                tag: 0,
            };
            if let StepDecision::Move(v) = alg.step(&w, ctx(&nbrs, 100), 8) {
                if v == 5 {
                    returns += 1;
                }
            }
        }
        let rate = returns as f64 / trials as f64;
        // Stationary: weight 4 vs 1+1+1 => 4/7 ≈ 0.571.
        assert!(rate > 0.45, "return rate {rate}");
    }

    /// The declaration cannot lie silently: an algorithm answering `false`
    /// decides identically whether or not the engine serves
    /// `prev_neighbors`, and the one answering `true` really depends on it.
    #[test]
    fn reads_prev_neighbors_matches_what_step_reads() {
        let nv = 64u64;
        let g = with_random_weights(&erdos_renyi(nv, 1024, 5).csr, 6);
        let g = lt_graph::gen::with_random_timestamps(&g, 7, 64);
        // Whether walker `id`, mid-walk at some vertex with another one in
        // `aux`, decides the same with and without second-order context.
        let same = |alg: &dyn WalkAlgorithm, id: u64| {
            let (v, prev) = ((id * 7 % nv) as VertexId, (id * 13 % nv) as VertexId);
            let w = Walker {
                step: 1 + (id % 6) as u32,
                aux: prev,
                ..Walker::new(id, v)
            };
            let with = StepContext {
                neighbors: g.neighbors(v),
                weights: g.neighbor_weights(v),
                prev_neighbors: Some(g.neighbors(prev)),
                timestamps: g.neighbor_timestamps(v),
                max_multiplicity: g.max_multiplicity(),
                num_vertices: nv,
            };
            let without = StepContext {
                prev_neighbors: None,
                ..with
            };
            alg.step(&w, with, 3) == alg.step(&w, without, 3)
        };
        let first_order: [Box<dyn WalkAlgorithm>; 5] = [
            Box::new(UniformSampling::new(8)),
            Box::new(PageRank::new(8, 0.15)),
            Box::new(Ppr::new(0, 0.15)),
            Box::new(WeightedWalk::new(8)),
            Box::new(TemporalWalk::new(8, 16)),
        ];
        for alg in &first_order {
            assert!(!alg.reads_prev_neighbors(), "{}", alg.name());
            assert!((0..300).all(|id| same(alg.as_ref(), id)), "{}", alg.name());
        }
        let node2vec = SecondOrderWalk::node2vec(8, 0.25, 4.0);
        assert!(node2vec.reads_prev_neighbors());
        assert!(!(0..300).all(|id| same(&node2vec, id)));
    }

    /// `first_read` names the entry `step` reads wherever the step's first
    /// draw decides it. Rows hold distinct ids, so the move names the
    /// index.
    #[test]
    fn first_read_names_the_entry_step_reads() {
        use crate::JobTable;
        use std::sync::Arc;
        const BASE: VertexId = 1_000;
        let row = |d: u32| -> Vec<VertexId> { (0..d).map(|k| BASE + k).collect() };
        // Whether `alg`'s step of `w` under `seed` moves to the entry its
        // hint names.
        let agrees = |alg: &dyn WalkAlgorithm, w: &Walker, row: &[VertexId], seed: u64| {
            let k = alg.first_read(w, row.len(), seed);
            assert!(
                k < row.len(),
                "{}: hint {k} outside a row of {}",
                alg.name(),
                row.len()
            );
            alg.step(w, ctx(row, 1 << 20), seed).target() == Some(row[k])
        };
        let seed = 42;
        let walkers = |ids: std::ops::Range<u64>| {
            ids.map(|id| Walker {
                step: (id % 7) as u32,
                aux: BASE + (id % 5) as u32,
                ..Walker::new(id, 0)
            })
        };
        let first_draw = |w: &Walker| uniform_f64(step_value(seed, w.id, w.step));
        for d in [1, 2, 3, 17, 300, 1_000] {
            let row = row(d);
            let uniform = UniformSampling::new(100);
            assert!(walkers(0..500).all(|w| agrees(&uniform, &w, &row, seed)));
            // PageRank and PPR: where the first draw neither restarts nor
            // stops.
            let (pagerank, ppr) = (PageRank::new(100, 0.15), Ppr::new(0, 0.15));
            let moving: Vec<Walker> = walkers(0..500).filter(|w| first_draw(w) >= 0.15).collect();
            assert!(moving.len() > 350, "{} moving walkers", moving.len());
            for w in &moving {
                assert!(agrees(&pagerank, w, &row, seed), "pagerank walker {}", w.id);
                assert!(agrees(&ppr, w, &row, seed), "ppr walker {}", w.id);
            }
            // node2vec accepts its first proposal when p = q = 1, with the
            // previous vertex in the row or not; step 0 is the same draw.
            let node2vec = SecondOrderWalk::node2vec(100, 1.0, 1.0);
            let fresh = (0..200).map(|id| Walker::new(id, 0));
            for w in walkers(0..500).chain(fresh) {
                assert!(
                    agrees(&node2vec, &w, &row, seed),
                    "node2vec walker {}",
                    w.id
                );
            }
        }
        // Temporal: the window search reads the row's first stamp first,
        // the default hint.
        let temporal = TemporalWalk::new(100, 4);
        assert!(walkers(0..500).all(|w| temporal.first_read(&w, 1_000, seed) == 0));
        // The job table hints under the job's seed, not the engine's.
        let (job_seed, engine_seed) = (99, 12_345);
        let table = JobTable::with_capacity(2);
        let tag = table
            .register(Arc::new(UniformSampling::new(100)), job_seed)
            .expect("a free slot");
        let row = row(1_000);
        let tagged: Vec<Walker> = walkers(0..500).map(|w| Walker { tag, ..w }).collect();
        for w in &tagged {
            assert!(agrees(&table, w, &row, engine_seed), "job walker {}", w.id);
        }
        let uniform = UniformSampling::new(100);
        assert!(
            tagged
                .iter()
                .any(|w| uniform.first_read(w, row.len(), job_seed)
                    != uniform.first_read(w, row.len(), engine_seed)),
            "the two seeds must name different entries"
        );
    }

    #[test]
    fn state_bytes_match_paper() {
        assert_eq!(PageRank::new(80, 0.15).walker_state_bytes(), 8);
        assert_eq!(UniformSampling::new(80).walker_state_bytes(), 16);
        assert_eq!(SecondOrderWalk::new(80, 0.5).walker_state_bytes(), 20);
        assert_eq!(TemporalWalk::new(80, 4).walker_state_bytes(), 16);
    }

    #[test]
    fn temporal_walk_only_picks_edges_in_window() {
        let alg = TemporalWalk::starting_at(10, 5, 10);
        let nbrs = [1u32, 2, 3, 4];
        let ts = [9u32, 10, 15, 16]; // window [10, 15] admits 2 and 3
        for id in 0..500 {
            let w = Walker::new(id, 0); // step 0 => clock = start_time = 10
            match alg.step(&w, tctx(&nbrs, &ts, 100), 21) {
                StepDecision::MoveAt(v, t) => {
                    assert!(v == 2 || v == 3, "picked out-of-window neighbor {v}");
                    assert!((10..=15).contains(&t));
                }
                d => panic!("expected MoveAt, got {d:?}"),
            }
        }
    }

    #[test]
    fn temporal_walk_clock_comes_from_aux_after_first_hop() {
        let alg = TemporalWalk::new(10, 2);
        let nbrs = [7u32, 8];
        let ts = [4u32, 9];
        let w = Walker {
            id: 3,
            vertex: 0,
            step: 2,
            aux: 3, // clock 3 => window [3, 5] admits only ts 4
            tag: 0,
        };
        assert_eq!(
            alg.step(&w, tctx(&nbrs, &ts, 100), 5),
            StepDecision::MoveAt(7, 4)
        );
    }

    #[test]
    fn temporal_walk_terminates_when_window_is_empty() {
        let alg = TemporalWalk::new(10, 2);
        let nbrs = [7u32, 8];
        let ts = [4u32, 9];
        let w = Walker {
            id: 0,
            vertex: 0,
            step: 1,
            aux: 20, // window [20, 22] admits nothing; time never rewinds
            tag: 0,
        };
        assert_eq!(
            alg.step(&w, tctx(&nbrs, &ts, 100), 5),
            StepDecision::Terminate
        );
    }

    /// The window search equals the partition point it searches for,
    /// from every guess: rows with runs of equal stamps, gaps, stamps at
    /// both ends of `u32`, and every length up to 70.
    #[test]
    fn gallop_finds_the_partition_point_from_any_guess() {
        for d in 1..70u32 {
            let ts: Vec<u32> = (0..d)
                .map(|k| match k % 7 {
                    0 if k == 0 => 0,
                    _ if k + 1 == d => u32::MAX,
                    _ => k / 3 * 5,
                })
                .collect();
            assert!(ts.is_sorted());
            for x in [0, 1, 4, 5, 6, 55, 56, 1_000, u32::MAX - 1, u32::MAX] {
                let below = ts.partition_point(|&t| t < x);
                let at_most = ts.partition_point(|&t| t <= x);
                for guess in 0..d as usize {
                    assert_eq!(gallop(&ts, guess, |t| t < x), below, "d {d}, x {x}");
                    assert_eq!(gallop(&ts, guess, |t| t <= x), at_most, "d {d}, x {x}");
                }
                assert!(Interpolation::of(&ts).at(x) < d as usize);
            }
        }
    }

    /// A long row in time order whose in-window edges are known: every
    /// in-window edge is drawn about equally often and nothing else is
    /// drawn at all.
    #[test]
    fn temporal_long_rows_sample_the_window_uniformly() {
        let n = 4096u32;
        let nbrs: Vec<VertexId> = (0..n).collect();
        // Sixteen entries a stamp, stamps 0..256: the window [100, 115]
        // holds 256 entries, 1,600..1,856.
        let ts: Vec<u32> = (0..n).map(|k| k / 16).collect();
        let alg = TemporalWalk::starting_at(10, 15, 100);
        let mut counts = vec![0u64; n as usize];
        let trials = 256 * 400u64;
        for id in 0..trials {
            match alg.step(&Walker::new(id, 0), tctx(&nbrs, &ts, n as u64), 77) {
                StepDecision::MoveAt(v, time) => {
                    assert_eq!(time, ts[v as usize]);
                    counts[v as usize] += 1;
                }
                d => panic!("expected MoveAt, got {d:?}"),
            }
        }
        let expect = 400.0;
        let mut chi2 = 0.0;
        for (k, &c) in counts.iter().enumerate() {
            if (1_600..1_856).contains(&k) {
                chi2 += (c as f64 - expect).powi(2) / expect;
            } else {
                assert_eq!(c, 0, "edge {k} is outside the window");
            }
        }
        // 255 degrees of freedom: mean 255, sd ~22.6; 370 is five sd out.
        assert!(chi2 < 370.0, "chi-square {chi2} over 256 in-window edges");
    }

    /// The search finds a window of one edge anywhere in a long row,
    /// terminates on an empty one — before the row, between two stamps,
    /// past its end — and clips a window at `u32::MAX` without
    /// overflowing.
    #[test]
    fn temporal_window_search_finds_rare_and_empty_windows() {
        let n = 10_000u32;
        let nbrs: Vec<VertexId> = (0..n).collect();
        let mut ts: Vec<u32> = (0..n).map(|k| 1_000 + 2 * k).collect();
        ts[n as usize - 1] = u32::MAX;
        let at = |clock: u32, window: u32, id: u64| {
            let w = Walker {
                step: 1,
                aux: clock,
                ..Walker::new(id, 0)
            };
            TemporalWalk::new(10, window).step(&w, tctx(&nbrs, &ts, n as u64), 5)
        };
        for id in 0..1_000 {
            assert_eq!(at(1_000, 0, id), StepDecision::MoveAt(0, 1_000));
            assert_eq!(at(15_642, 1, id), StepDecision::MoveAt(7_321, 15_642));
            assert_eq!(at(0, 999, id), StepDecision::Terminate);
            assert_eq!(at(15_643, 0, id), StepDecision::Terminate);
            assert_eq!(at(30_000, u32::MAX - 30_001, id), StepDecision::Terminate);
            assert_eq!(
                at(u32::MAX - 5, 1_000, id),
                StepDecision::MoveAt(n - 1, u32::MAX)
            );
            let d = at(20_996, u32::MAX, id);
            assert!(
                matches!(d, StepDecision::MoveAt(v, t) if v >= n - 2 && t == ts[v as usize]),
                "{d:?}"
            );
        }
    }

    #[test]
    fn temporal_walk_degrades_to_uniform_without_timestamps() {
        let alg = TemporalWalk::new(10, 1);
        let nbrs = [1u32, 2, 3];
        for id in 0..200 {
            let w = Walker::new(id, 0);
            match alg.step(&w, ctx(&nbrs, 100), 17) {
                StepDecision::Move(v) => assert!(nbrs.contains(&v)),
                d => panic!("expected plain Move fallback, got {d:?}"),
            }
        }
    }

    #[test]
    fn move_at_advance_stores_time_in_aux() {
        let mut w = Walker::new(1, 4);
        StepDecision::MoveAt(9, 1234).advance(&mut w);
        assert_eq!((w.vertex, w.step, w.aux), (9, 1, 1234));
        let mut w2 = Walker::new(1, 4);
        StepDecision::Move(9).advance(&mut w2);
        assert_eq!((w2.vertex, w2.step, w2.aux), (9, 1, 4));
        let before = w2;
        StepDecision::Terminate.advance(&mut w2);
        assert_eq!(w2, before);
    }
}

#[cfg(test)]
mod node2vec_tests {
    use super::*;

    /// A path graph 0-1-2-3 plus a triangle 1-2-4: from vertex 2 with
    /// previous vertex 1, candidate 1 is "return", candidate 4 is a common
    /// neighbor of 1 (distance 1), candidate 3 is distance 2.
    fn ctx2<'a>(neighbors: &'a [VertexId], prev_neighbors: &'a [VertexId]) -> StepContext<'a> {
        StepContext {
            neighbors,
            weights: None,
            prev_neighbors: Some(prev_neighbors),
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: 5,
        }
    }

    fn transition_freqs(alg: &SecondOrderWalk, trials: u64) -> [f64; 3] {
        // current = 2, prev = 1; neighbors(2) = [1, 3, 4]; neighbors(1) =
        // [0, 2, 4].
        let neighbors = [1u32, 3, 4];
        let prev_nbrs = [0u32, 2, 4];
        let mut counts = [0u64; 3];
        for id in 0..trials {
            let w = Walker {
                id,
                vertex: 2,
                step: 1,
                aux: 1,
                tag: 0,
            };
            if let StepDecision::Move(v) = alg.step(&w, ctx2(&neighbors, &prev_nbrs), 11) {
                counts[neighbors.iter().position(|&x| x == v).unwrap()] += 1;
            }
        }
        [
            counts[0] as f64 / trials as f64, // return (1)
            counts[1] as f64 / trials as f64, // outward (3)
            counts[2] as f64 / trials as f64, // common neighbor (4)
        ]
    }

    #[test]
    fn node2vec_low_q_explores_outward() {
        // q = 0.25 => outward weight 4; return p = 4 => return weight 0.25.
        let alg = SecondOrderWalk::node2vec(10, 4.0, 0.25);
        let [ret, out, common] = transition_freqs(&alg, 60_000);
        // Expected ∝ [0.25, 4, 1] → [0.048, 0.762, 0.19].
        assert!(
            out > common && common > ret,
            "ret {ret} out {out} common {common}"
        );
        assert!((out - 0.762).abs() < 0.03, "out {out}");
    }

    #[test]
    fn node2vec_high_q_stays_local() {
        // q = 4 => outward weight 0.25; p = 0.25 => return weight 4.
        let alg = SecondOrderWalk::node2vec(10, 0.25, 4.0);
        let [ret, out, common] = transition_freqs(&alg, 60_000);
        // Expected ∝ [4, 0.25, 1] → [0.762, 0.048, 0.19].
        assert!(
            ret > common && common > out,
            "ret {ret} out {out} common {common}"
        );
        assert!((ret - 0.762).abs() < 0.03, "ret {ret}");
    }

    #[test]
    fn first_step_without_history_is_uniform() {
        let alg = SecondOrderWalk::node2vec(10, 0.1, 10.0);
        let neighbors = [1u32, 3, 4];
        let mut counts = [0u64; 3];
        let trials = 30_000u64;
        for id in 0..trials {
            let w = Walker::new(id, 2); // step 0, aux = MAX
            let ctx = StepContext {
                neighbors: &neighbors,
                weights: None,
                prev_neighbors: None,
                timestamps: None,
                max_multiplicity: 1,
                num_vertices: 5,
            };
            if let StepDecision::Move(v) = alg.step(&w, ctx, 13) {
                counts[neighbors.iter().position(|&x| x == v).unwrap()] += 1;
            }
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.02, "uniform first step: {f}");
        }
    }

    /// The return strip is sized by the row's own degree when the graph's
    /// bound is larger: a row of `d` edges behaves exactly as under
    /// `M = d`, whatever hub elsewhere set the bound.
    #[test]
    fn short_rows_ignore_a_larger_multiplicity_bound() {
        let alg = SecondOrderWalk::node2vec(10, 0.25, 2.0);
        let (neighbors, prev_nbrs) = ([1u32, 1, 3], [0u32, 2, 4]);
        for id in 0..2_000 {
            let w = Walker {
                step: 1,
                aux: 1,
                ..Walker::new(id, 2)
            };
            let at = |m| {
                let ctx = StepContext {
                    max_multiplicity: m,
                    ..ctx2(&neighbors, &prev_nbrs)
                };
                alg.step(&w, ctx, 17)
            };
            assert_eq!(at(1_000), at(3), "walker {id}");
        }
    }

    #[test]
    fn check_admits_only_the_parameter_range() {
        for (p, q) in [(0.01, 100.0), (100.0, 0.01), (0.5, 2.0)] {
            assert!(SecondOrderWalk::check(p, q).is_ok(), "p = {p}, q = {q}");
        }
        let bad = [
            (0.0, 1.0),
            (-1.0, 1.0),
            (f64::NAN, 1.0),
            (1.0, 0.0),
            (1.0, f64::INFINITY),
            (1.0, 1e300),
            (0.009, 1.0),
        ];
        for (p, q) in bad {
            assert!(SecondOrderWalk::check(p, q).is_err(), "p = {p}, q = {q}");
            let alg = SecondOrderWalk {
                length: 4,
                return_p: p,
                in_out_q: q,
            };
            assert!(alg.validate().is_err(), "p = {p}, q = {q}");
        }
    }
}

//! Random-walk algorithms (§IV-A).
//!
//! The paper evaluates three: uniform sampling (DeepWalk-style fixed-length
//! walks recording a `walk_id`), PageRank (random walk with restart,
//! p = 0.15, fixed length), and Personalized PageRank (all walks from one
//! source, geometric termination with p = 0.15). As extensions we add a
//! weighted first-order walk via rejection sampling and a node2vec-style
//! second-order walk, both mentioned in §II-A as the natural generalisations.

use crate::rng::{step_value, step_value2, uniform_f64, uniform_index};
use crate::walker::Walker;
use lt_graph::{Csr, VertexId};

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
    /// Neighbors of the *previous* vertex (`walker.aux`). `Some` only for
    /// an algorithm whose [`WalkAlgorithm::reads_prev_neighbors`] is
    /// `true`, and even then `None` when the previous vertex lies outside
    /// the resident partition — the second-order engines the paper cites
    /// hit the same asymmetry and fall back to first-order weights there,
    /// as we do.
    pub prev_neighbors: Option<&'a [VertexId]>,
    /// Edge timestamps parallel to `neighbors`, for temporal walks.
    /// `None` on non-temporal graphs.
    pub timestamps: Option<&'a [u32]>,
    /// Total vertex count of the graph (for restarts).
    pub num_vertices: u64,
}

/// A random-walk algorithm: initial walker placement plus the per-step
/// transition rule.
///
/// Implementations must be deterministic in `(seed, walker.id,
/// walker.step)` — all randomness must come from [`crate::rng`] — so that
/// trajectories are independent of scheduling (see `rng` module docs).
pub trait WalkAlgorithm: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Place the initial walkers on a graph of `num_vertices` vertices.
    /// `num_walks` is the workload size (typically `2|V|`). Placement
    /// reads the vertex count and nothing else of the graph, so an engine
    /// over an out-of-core store or an evolving block table seeds walks
    /// without a CSR in hand.
    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker>;

    /// [`WalkAlgorithm::place_walkers`] for a caller holding a CSR. Kept
    /// only because the frozen `benchmark/` harness calls it; nothing in
    /// this repository does.
    fn initial_walkers(&self, graph: &Csr, num_walks: u64) -> Vec<Walker> {
        self.place_walkers(graph.num_vertices(), num_walks)
    }

    /// Decide walker's next move. Called with `walker.step` equal to the
    /// number of steps already taken.
    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision;

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

    /// Whether the algorithm carries state built from the epoch-0 graph
    /// (e.g. [`crate::AliasWeightedWalk`]'s alias table, indexed by the
    /// original CSR offsets). Such state goes stale at the first seal, so
    /// the engine refuses [`crate::LightTraffic::mutate`] and
    /// [`crate::LightTraffic::seal_epoch`] under it.
    fn holds_epoch0_state(&self) -> bool {
        false
    }

    /// Simulated walk-index size `S_w` in bytes (8 for plain
    /// vertex+steps, 16 when a walk id is carried, 20 for second-order).
    fn walker_state_bytes(&self) -> u64 {
        8
    }

    /// An upper bound on steps per walk, used only as a safety rail for
    /// unbounded algorithms.
    fn max_steps(&self) -> u32;
}

/// Helper: spread `num_walks` walkers uniformly over all vertices
/// (walk `w` starts at vertex `w mod |V|`), the paper's placement for
/// PageRank and uniform sampling.
fn spread_walkers(nv: u64, num_walks: u64) -> Vec<Walker> {
    (0..num_walks)
        .map(|w| Walker::new(w, (w % nv) as VertexId))
        .collect()
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

    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        spread_walkers(num_vertices, num_walks)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let r = step_value(seed, walker.id, walker.step);
        let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
        StepDecision::Move(ctx.neighbors[k])
    }

    fn walker_state_bytes(&self) -> u64 {
        16 // current_vertex + walked_steps + walk_id
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    fn max_steps(&self) -> u32 {
        self.length
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

    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        spread_walkers(num_vertices, num_walks)
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
        let r2 = step_value2(seed, walker.id, walker.step);
        let k = uniform_index(r2, ctx.neighbors.len() as u64) as usize;
        StepDecision::Move(ctx.neighbors[k])
    }

    fn tracks_visits(&self) -> bool {
        true
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    fn max_steps(&self) -> u32 {
        self.length
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

    fn place_walkers(&self, _num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        (0..num_walks)
            .map(|w| Walker::new(w, self.source))
            .collect()
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.cap || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let r = step_value(seed, walker.id, walker.step);
        if uniform_f64(r) < self.stop_p {
            return StepDecision::Terminate;
        }
        let r2 = step_value2(seed, walker.id, walker.step);
        let k = uniform_index(r2, ctx.neighbors.len() as u64) as usize;
        StepDecision::Move(ctx.neighbors[k])
    }

    fn tracks_visits(&self) -> bool {
        true
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    fn max_steps(&self) -> u32 {
        self.cap
    }
}

/// Weighted first-order walk via rejection sampling (§II-A): propose a
/// uniform neighbor, accept with probability `w / w_max`; retry with fresh
/// draws on rejection (bounded retries, then accept the proposal).
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

    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        spread_walkers(num_vertices, num_walks)
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
        let w_max = weights.iter().fold(0.0f32, |a, &b| a.max(b));
        if w_max <= 0.0 {
            let r = step_value(seed, walker.id, walker.step);
            let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
            return StepDecision::Move(ctx.neighbors[k]);
        }
        // Rejection loop with a derived counter so determinism holds.
        let mut salt = 0u32;
        loop {
            let r = step_value(seed ^ ((salt as u64) << 32), walker.id, walker.step);
            let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
            let accept = uniform_f64(step_value2(
                seed ^ ((salt as u64) << 32),
                walker.id,
                walker.step,
            ));
            if accept < (weights[k] / w_max) as f64 || salt >= 64 {
                return StepDecision::Move(ctx.neighbors[k]);
            }
            salt += 1;
        }
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    fn max_steps(&self) -> u32 {
        self.length
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
/// implemented by rejection sampling against the max-weight envelope so no
/// alias tables are needed on the "device" — the trade-off ThunderRW and
/// the second-order I/O systems the paper cites also make.
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
    /// Second-order walk with the given return parameter and `q = 1`
    /// (distance-2 moves unbiased).
    pub fn new(length: u32, return_p: f64) -> Self {
        SecondOrderWalk {
            length,
            return_p,
            in_out_q: 1.0,
        }
    }

    /// Full node2vec parameterization.
    pub fn node2vec(length: u32, return_p: f64, in_out_q: f64) -> Self {
        SecondOrderWalk {
            length,
            return_p,
            in_out_q,
        }
    }

    /// Unnormalized node2vec weight of moving to `cand`, where `prev` is
    /// the walk's previous vertex and `prev_neighbors` its adjacency.
    #[inline]
    fn weight(&self, cand: VertexId, prev: VertexId, prev_neighbors: &[VertexId]) -> f64 {
        if cand == prev {
            1.0 / self.return_p
        } else if prev_neighbors.binary_search(&cand).is_ok() {
            1.0
        } else {
            1.0 / self.in_out_q
        }
    }
}

impl WalkAlgorithm for SecondOrderWalk {
    fn name(&self) -> &'static str {
        "second-order"
    }

    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        spread_walkers(num_vertices, num_walks)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let prev = walker.aux;
        // First step (or missing history): uniform.
        if walker.step == 0 || prev == VertexId::MAX {
            let r = step_value(seed, walker.id, walker.step);
            let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
            return StepDecision::Move(ctx.neighbors[k]);
        }
        let prev_neighbors = ctx.prev_neighbors.unwrap_or(&[]);
        let envelope = (1.0 / self.return_p).max(1.0).max(1.0 / self.in_out_q);
        let mut salt = 0u32;
        loop {
            let r = step_value(seed ^ ((salt as u64) << 32), walker.id, walker.step);
            let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
            let cand = ctx.neighbors[k];
            let w = self.weight(cand, prev, prev_neighbors);
            let accept = uniform_f64(step_value2(
                seed ^ ((salt as u64) << 32),
                walker.id,
                walker.step,
            ));
            if accept < w / envelope || salt >= 64 {
                return StepDecision::Move(cand);
            }
            salt += 1;
        }
    }

    fn walker_state_bytes(&self) -> u64 {
        20 // vertex + steps + id + previous vertex
    }

    fn reads_prev_neighbors(&self) -> bool {
        true
    }

    fn max_steps(&self) -> u32 {
        self.length
    }
}

/// Rows at least this long are sampled by propose-accept before they are
/// scanned (see [`TemporalWalk`]); shorter ones are cheaper to scan.
const PROPOSE_MIN_ROW: usize = 256;

/// Width of the blocks the window scan counts and skips by.
const SCAN_BLOCK: usize = 64;

/// Proposals a row of `len` edges gets before the scan: the scan they
/// avoid costs ∝ `len`, so the budget grows with it — one try per scan
/// block, between 16 and 64 (sweep in DESIGN.md §15).
#[inline]
fn propose_tries(len: usize) -> u64 {
    (len / SCAN_BLOCK).clamp(16, 64) as u64
}

/// Timestamps of `ts` in `[t, t + span]`. A plain sum of compares over
/// `u32` lanes, which the compiler vectorises.
#[inline]
fn count_in_window(ts: &[u32], t: u32, span: u32) -> u32 {
    ts.iter().map(|&x| (x.wrapping_sub(t) <= span) as u32).sum()
}

/// Index of the `pick`-th (0-based, row order) timestamp in
/// `[t, t + span]`: whole blocks are counted and skipped, only the block
/// holding the answer is walked. `pick` must be below the in-window count.
#[inline]
fn nth_in_window(ts: &[u32], t: u32, span: u32, mut pick: usize) -> usize {
    for (b, block) in ts.chunks(SCAN_BLOCK).enumerate() {
        let c = count_in_window(block, t, span) as usize;
        if pick < c {
            let k = block
                .iter()
                .enumerate()
                .filter(|(_, &x)| x.wrapping_sub(t) <= span)
                .nth(pick)
                .map(|(k, _)| k)
                .expect("pick < in-window count of this block");
            return b * SCAN_BLOCK + k;
        }
        pick -= c;
    }
    panic!("pick exceeds the in-window count");
}

/// Temporal random walk on a timestamped graph (DESIGN.md §15): each step
/// may only traverse edges whose timestamp lies in the sliding window
/// `[t, t + window]`, where `t` is the walker's clock — the timestamp of
/// the last edge it traversed (`start_time` before the first hop). Among
/// in-window edges the choice is uniform; a walk terminates when no edge
/// falls inside its window (it has "run out of time") or after `length`
/// steps.
///
/// Sampling pays for what it touches (DESIGN.md §15). A row shorter than
/// `PROPOSE_MIN_ROW` is scanned: a vectorised count of the in-window
/// edges, one draw, a select that skips whole blocks. A longer row —
/// walkers sit on hubs — first proposes uniform edge indices with salted
/// draws, up to `propose_tries(len)` of them, taking the first whose
/// timestamp is in the window; only when all miss does the scan run, with
/// the unsalted draw. Both are uniform over the in-window edges, so the
/// law is the scan's exactly, only the scan (`count == 0`) terminates a
/// walk, and the decision is a pure function of `(row, walker, seed)`.
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

    fn place_walkers(&self, num_vertices: u64, num_walks: u64) -> Vec<Walker> {
        spread_walkers(num_vertices, num_walks)
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, seed: u64) -> StepDecision {
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let ts = match ctx.timestamps {
            Some(ts) => ts,
            // Non-temporal graph: degenerate to uniform sampling.
            None => {
                let r = step_value(seed, walker.id, walker.step);
                let k = uniform_index(r, ctx.neighbors.len() as u64) as usize;
                return StepDecision::Move(ctx.neighbors[k]);
            }
        };
        let t = self.clock(walker);
        // `x` is in `[t, t + window]` iff `x - t`, wrapping, is at most
        // the (saturated) window width: one unsigned compare.
        let span = t.saturating_add(self.window) - t;
        if ts.len() >= PROPOSE_MIN_ROW {
            for salt in 1..=propose_tries(ts.len()) {
                let r = step_value(seed ^ (salt << 32), walker.id, walker.step);
                let k = uniform_index(r, ts.len() as u64) as usize;
                if ts[k].wrapping_sub(t) <= span {
                    return StepDecision::MoveAt(ctx.neighbors[k], ts[k]);
                }
            }
        }
        let count = count_in_window(ts, t, span);
        if count == 0 {
            return StepDecision::Terminate;
        }
        let r = step_value(seed, walker.id, walker.step);
        let k = nth_in_window(ts, t, span, uniform_index(r, count as u64) as usize);
        StepDecision::MoveAt(ctx.neighbors[k], ts[k])
    }

    fn walker_state_bytes(&self) -> u64 {
        16 // vertex + steps + clock
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    fn max_steps(&self) -> u32 {
        self.length
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
            num_vertices: nv,
        }
    }

    fn tctx<'a>(neighbors: &'a [VertexId], ts: &'a [u32], nv: u64) -> StepContext<'a> {
        StepContext {
            neighbors,
            weights: None,
            prev_neighbors: None,
            timestamps: Some(ts),
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
                num_vertices: nv,
            };
            let without = StepContext {
                prev_neighbors: None,
                ..with
            };
            alg.step(&w, with, 3) == alg.step(&w, without, 3)
        };
        let first_order: [Box<dyn WalkAlgorithm>; 6] = [
            Box::new(UniformSampling::new(8)),
            Box::new(PageRank::new(8, 0.15)),
            Box::new(Ppr::new(0, 0.15)),
            Box::new(WeightedWalk::new(8)),
            Box::new(crate::alias::AliasWeightedWalk::new(&g, 8)),
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

    /// Short rows keep the draw they always had: decisions pinned on the
    /// scan-twice sampler this one replaced.
    #[test]
    fn temporal_short_rows_keep_their_goldens() {
        let n = 200u32;
        assert!((n as usize) < PROPOSE_MIN_ROW);
        let alg = TemporalWalk::starting_at(80, 12, 20);
        let nbrs: Vec<VertexId> = (0..n).map(|k| 1000 + k * 3).collect();
        let ts: Vec<u32> = (0..n).map(|k| (k * 37 + 11) % 101).collect();
        for ((id, step, aux, seed), (v, time)) in [
            ((0u64, 0u32, u32::MAX, 42u64), (1558, 25)),
            ((7, 3, 55, 1234), (1528, 59)),
            ((123_456, 17, 90, 9), (1162, 90)),
        ] {
            let w = Walker {
                id,
                vertex: 0,
                step,
                aux,
                tag: 0,
            };
            let d = alg.step(&w, tctx(&nbrs, &ts, 5000), seed);
            assert_eq!(d, StepDecision::MoveAt(v, time), "walker {id}");
        }
    }

    /// A long row whose in-window edges are known: every in-window edge
    /// is drawn about equally often, whichever of propose-accept and the
    /// scan produced it, and nothing else is drawn at all.
    #[test]
    fn temporal_long_rows_sample_the_window_uniformly() {
        let n = 4096u32;
        let nbrs: Vec<VertexId> = (0..n).collect();
        // Every 16th edge is in the window [10, 14]: 256 candidates, so
        // a proposal hits with probability 1/16 and both paths are used.
        let ts: Vec<u32> = (0..n)
            .map(|k| if k % 16 == 5 { 10 + k % 5 } else { 40 + k % 7 })
            .collect();
        let alg = TemporalWalk::starting_at(10, 4, 10);
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
            if k % 16 == 5 {
                chi2 += (c as f64 - expect).powi(2) / expect;
            } else {
                assert_eq!(c, 0, "edge {k} is outside the window");
            }
        }
        // 255 degrees of freedom: mean 255, sd ~22.6; 370 is five sd out.
        assert!(chi2 < 370.0, "chi-square {chi2} over 256 in-window edges");
    }

    /// Termination and rare hits belong to the scan: an empty window
    /// terminates, and with one in-window edge among 10,000 the 64
    /// proposals find it once in 156 walkers — 1,000 walkers all finding
    /// it is the fallback's doing.
    #[test]
    fn temporal_long_rows_fall_back_to_the_exact_scan() {
        let n = 10_000usize;
        assert!(propose_tries(n) <= 64);
        let nbrs: Vec<VertexId> = (0..n as u32).collect();
        let mut ts = vec![3u32; n];
        let alg = TemporalWalk::starting_at(10, 4, 10);
        for expected in [StepDecision::Terminate, StepDecision::MoveAt(7_321, 12)] {
            for id in 0..1_000 {
                let d = alg.step(&Walker::new(id, 0), tctx(&nbrs, &ts, n as u64), 5);
                assert_eq!(d, expected, "walker {id}");
            }
            ts[7_321] = 12;
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
}

//! Host-parallel kernel execution with deterministic merge.
//!
//! The engine's kernels execute eagerly on the host while their *simulated*
//! duration is charged on the [`lt_gpusim`] timeline. This module is the
//! host execution layer: a batch is split into contiguous per-thread chunks
//! (in walker order), every chunk is stepped independently against one
//! read-only `GraphView` of borrowed block-table rows, whatever store holds
//! them, and the per-chunk outputs are merged back **in chunk order**.
//!
//! Chunk-order merging makes the result bit-identical to sequential
//! execution for *any* chunking:
//!
//! - Trajectories are pure functions of `(seed, walk_id, step)` (see
//!   [`crate::rng`]) — a walker computes the same path no matter which
//!   thread steps it.
//! - Each walk id appears in exactly one chunk of a batch, so per-walk path
//!   segments never interleave across chunks.
//! - Step, finish, visit-count, and length-histogram updates are sums, and
//!   sums commute.
//! - The `moved` walkers (reshuffle input) are counting-sorted by target
//!   partition inside their chunk, and the insert reads each partition's
//!   runs in chunk order, which equals the arrival-order subsequence of
//!   the sequential iteration order of the batch.
//!
//! Simulated kernel time is still charged from the *total* step count, so
//! simulated metrics (makespan, traffic, per-category busy time) are
//! unchanged by the thread count — only wall-clock throughput scales.
//!
//! The same purity hides the kernel's main stall. A step's first draw
//! names the row entry it reads, so while one walker steps, the chunk
//! prefetches the entry the walker `PREFETCH_AHEAD` (16) places later will
//! read first ([`WalkAlgorithm::first_read`]). Nothing is staged or
//! reordered: every output is what plain stepping gives.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use crate::reshuffle::LocalIndex;
use crate::walker::Walker;
use lt_graph::partition::Rows;
use lt_graph::{Csr, PartitionLookup, VertexId};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The rows a kernel reads, always in place: its own partition's and,
/// only for a zero-copy kernel of an algorithm that
/// [reads second-order context](WalkAlgorithm::reads_prev_neighbors),
/// those of every partition a walker's previous vertex (`aux`) lies in at
/// batch start — after its first step a walker's `aux` lies in the own
/// partition. Each is a range of a RAM CSR, a sealed block of the block
/// table, or an out-of-core block fetched or pinned for the batch; the
/// host moves no bytes for any of them. A resident kernel's view covers
/// only its own partition, as only that partition is on the device.
pub(crate) struct GraphView<'a> {
    own: Rows<'a>,
    /// The other covered partitions, sorted by vertex range.
    context: Vec<Rows<'a>>,
}

impl<'a> GraphView<'a> {
    /// A view over `own` plus `context`, partitions other than `own`.
    pub(crate) fn new(own: Rows<'a>, mut context: Vec<Rows<'a>>) -> GraphView<'a> {
        context.sort_by_key(|r| r.v_start);
        GraphView { own, context }
    }

    /// The covered rows holding `v`, if any. A lookup outside the view
    /// only comes from a [`crate::JobTable`] mixing a second-order job
    /// with a temporal one — a clock in `aux` aliasing a vertex id or
    /// exceeding |V| — and temporal walks never read what it returns.
    #[inline]
    fn find(&self, v: VertexId) -> Option<&Rows<'a>> {
        if self.own.contains(v) {
            return Some(&self.own);
        }
        let i = self.context.partition_point(|r| r.v_end <= v);
        self.context.get(i).filter(|r| r.contains(v))
    }
}

/// Largest batch stepped inline: a batch fans out only above this many
/// walkers, so every chunk carries at least half of it. Below, waking a
/// worker and moving the walkers to another core's cache costs more
/// than the chunk's stepping saves. Measured on 2 CPUs (DESIGN.md §11):
/// `serve_tcp`'s ~100-walker batches gained ×1.2–1.3 in `jobs_per_s` from
/// 64 to 256, and 512 or 1,024 gained no more; library workloads, whose
/// batches hold thousands of walkers, stayed flat.
pub(crate) const MIN_CHUNK_WALKERS: usize = 256;

/// Number of chunks a batch of `walkers` walkers is split into when up to
/// `threads` host threads are available: one per started
/// [`MIN_CHUNK_WALKERS`], at most `threads`. `1` means "run inline on the
/// scheduler thread".
pub(crate) fn plan_chunks(walkers: usize, threads: usize) -> usize {
    if threads <= 1 || walkers == 0 {
        return 1;
    }
    threads.min(walkers.div_ceil(MIN_CHUNK_WALKERS)).max(1)
}

/// Most batches a partition drain holds stepped ahead of their acquire
/// (DESIGN.md §11): one fan-out steps the acquired batch and, beside it,
/// further batches of the draining partition while the batches held
/// ahead, from this fan-out and any earlier one, stay within this bound.
/// Without it a one-source PPR drain, every walker in one partition,
/// would hold every walker's outputs at once; with it a drain holds at
/// most eight batches' walkers, `8 × batch_capacity`, scaling with the
/// same setting that sizes the walk pool. `deepwalk_ram` drains about
/// 4.5 batches a partition. A batch is at most one chunk per thread, so
/// the bound also caps the chunk outputs alive at once, which sizes the
/// [`ScratchPool`].
pub(crate) const LOOKAHEAD_BATCHES: usize = 8;

/// Resolve the [`crate::EngineConfig::kernel_threads`] knob: `0` means
/// "one thread per available CPU", overridable by the
/// `LT_TEST_KERNEL_THREADS` environment variable (the CI test matrix
/// forces the default fan-out to 1 and 4 this way). Explicit config
/// values always win over the environment. The environment lookup is
/// cached in a `OnceLock` — this runs on every kernel dispatch, and the
/// variable is only ever set before the process starts (CI matrix), so
/// one read is both sufficient and cheaper than a syscall per batch.
pub(crate) fn resolve_threads(cfg_threads: usize) -> usize {
    if cfg_threads == 0 {
        static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
        if let Some(n) = *ENV_THREADS.get_or_init(|| {
            std::env::var("LT_TEST_KERNEL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
        }) {
            return n;
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        cfg_threads
    }
}

/// Rough steps-per-walker estimate used only to pre-size the per-step
/// event buffers (`visits`, `path_events`) — a wrong guess costs at most
/// one reallocation curve, never correctness.
const EST_STEPS_PER_WALKER: usize = 8;

/// Everything one chunk produces. Merging these in chunk order reproduces
/// the sequential kernel exactly (see the module docs).
#[derive(Default)]
pub(crate) struct ChunkOutput {
    /// Steps executed in this chunk.
    pub steps: u64,
    /// Walks terminated in this chunk.
    pub finished: u64,
    /// Walkers that left the partition, in stepping order.
    pub moved: Vec<Walker>,
    /// `moved`, counting-sorted by target partition at the end of the
    /// chunk: the chunk's share of the reshuffle's local index.
    pub movers: LocalIndex,
    /// One entry per step when visit counts are tracked: the visited vertex.
    pub visits: Vec<VertexId>,
    /// Owning job tag of each `visits` entry, parallel to `visits`, filled
    /// only when the algorithm routes by tag (multi-tenant serving; see
    /// [`crate::WalkAlgorithm::routes_by_tag`]).
    pub visit_tags: Vec<u32>,
    /// One `(walk_id, vertex)` entry per step when paths are recorded.
    pub path_events: Vec<(u64, VertexId)>,
    /// Final step counts of the walks that terminated here.
    pub lengths: Vec<u32>,
    /// Owning job tag of each `lengths` entry, parallel to `lengths`,
    /// filled only when the algorithm routes by tag.
    pub length_tags: Vec<u32>,
}

impl ChunkOutput {
    /// Zero the counters and empty the vectors, keeping their capacity —
    /// the recycling contract of [`ScratchPool`].
    fn clear(&mut self) {
        self.steps = 0;
        self.finished = 0;
        self.moved.clear();
        self.movers.clear();
        self.visits.clear();
        self.visit_tags.clear();
        self.path_events.clear();
        self.lengths.clear();
        self.length_tags.clear();
    }

    /// Size a cleared buffer for a chunk of `walkers` walkers:
    /// `moved`/`lengths` can never exceed the walker count, and the
    /// per-step event vectors get a length-estimate hint when tracked.
    fn reserve_for(&mut self, walkers: usize, track_visits: bool, track_paths: bool) {
        debug_assert_eq!(self.steps, 0, "recycled buffer was not cleared");
        self.moved.reserve(walkers);
        self.lengths.reserve(walkers);
        let est_steps = walkers.saturating_mul(EST_STEPS_PER_WALKER);
        if track_visits {
            self.visits.reserve(est_steps);
        }
        if track_paths {
            self.path_events.reserve(est_steps);
        }
    }
}

/// Recycled [`ChunkOutput`] buffers shared by every chunk-step site of an
/// engine — inline and pooled stepping. The scheduler thread returns each
/// buffer after booking it, so steady-state drains reuse the per-chunk
/// vectors instead of reallocating them every round. Purely an
/// allocation cache: a recycled buffer is cleared before reuse, so
/// outputs are bit-identical with or without it.
pub(crate) struct ScratchPool {
    bufs: Mutex<Vec<ChunkOutput>>,
    /// At most this many buffers are retained.
    cap: usize,
}

impl ScratchPool {
    /// A pool for an engine of `threads` host threads. It retains as many
    /// buffers as a drain has alive at once: the chunks of the acquired
    /// batch and of the [`LOOKAHEAD_BATCHES`] stepped ahead, at most
    /// `threads` each. Every buffer a drain returns is then kept for the
    /// next.
    pub(crate) fn new(threads: usize) -> Self {
        ScratchPool {
            bufs: Mutex::default(),
            cap: (LOOKAHEAD_BATCHES + 1) * threads,
        }
    }

    /// A cleared buffer sized for `walkers` — recycled when one is
    /// available, freshly allocated otherwise.
    fn take(&self, walkers: usize, track_visits: bool, track_paths: bool) -> ChunkOutput {
        let mut o = self.lock().pop().unwrap_or_default();
        o.reserve_for(walkers, track_visits, track_paths);
        o
    }

    /// Return a booked buffer for reuse (dropped when the pool is already
    /// at capacity).
    pub(crate) fn put(&self, mut o: ChunkOutput) {
        o.clear();
        let mut bufs = self.lock();
        if bufs.len() < self.cap {
            bufs.push(o);
        }
    }

    /// Buffers retained now, and at most.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> (usize, usize) {
        (self.lock().len(), self.cap)
    }

    /// The retained buffers. A panic while the lock was held cannot leave
    /// the pool unsound — it only ever holds cleared buffers — so a
    /// poisoned lock is used as it is.
    fn lock(&self) -> MutexGuard<'_, Vec<ChunkOutput>> {
        self.bufs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared read-only inputs of one fan-out, borrowed from the engine for
/// the batches it steps, all of one partition; every chunk of them steps
/// against the same task, inline or from a worker thread that borrows it
/// for the duration of the fan-out.
pub(crate) struct KernelTask<'a> {
    /// Where graph data is read from; walkers leaving its own partition
    /// stop.
    pub view: GraphView<'a>,
    /// The walk algorithm.
    pub alg: &'a dyn WalkAlgorithm,
    /// [`WalkAlgorithm::reads_prev_neighbors`], read once per fan-out.
    pub reads_prev: bool,
    /// [`StepContext::max_multiplicity`]: the graph's bound when
    /// `reads_prev`, else 1.
    pub max_multiplicity: u32,
    /// RNG seed (trajectories hash `(seed, walk_id, step)`).
    pub seed: u64,
    /// `|V|` of the full graph.
    pub num_vertices: u64,
    /// Files each mover into its target partition for the chunk's local
    /// index.
    pub lookup: &'a PartitionLookup,
    /// Collect per-step visit events.
    pub track_visits: bool,
    /// Collect per-step `(walk_id, vertex)` path events.
    pub track_paths: bool,
    /// Attribute visit and termination events to the owning job tag
    /// (fills the `visit_tags`/`length_tags` vectors of [`ChunkOutput`]):
    /// [`WalkAlgorithm::routes_by_tag`]. Requires `track_visits` so the
    /// tag vector stays parallel to the visit vector.
    pub tagged: bool,
    /// Recycled output buffers.
    pub scratch: &'a ScratchPool,
}

/// How many walkers ahead of the one stepping [`step_chunk`] prefetches:
/// far enough that the line arrives before its walker's turn (a step
/// takes tens of nanoseconds, a miss to DRAM about a hundred), near
/// enough that it is still cached then. In a one-thread microbenchmark on
/// the benchmark graph (DESIGN.md §12), 8 and 16 both took a walker from
/// 28–29 ns to 22 ns.
pub(crate) const PREFETCH_AHEAD: usize = 16;

/// Step every walker of one chunk, one at a time and each to its exit:
/// until it terminates or leaves the task's range.
///
/// This is the one kernel core, shared by every stepping site: the
/// `kernel_threads = 1` path runs it inline on the whole batch, the
/// parallel paths run it once per chunk on worker threads. `moved` and
/// `lengths` are emitted in walker order with no staging, and the chunk
/// ends by counting-sorting `moved` into `movers`.
///
/// While walker `j` steps, the row entry walker `j + PREFETCH_AHEAD`
/// will read first is prefetched ([`prefetch_first_read`]). That entry,
/// not the walker's next row, is the miss that matters: an out-of-memory
/// engine at ~50 partitions sees 98 % of all steps leave the partition,
/// so most walkers take one step per residency, and on a hub row the
/// drawn entry is a random line of kilobytes (DESIGN.md §12). Walkers
/// after the chunk's last get no prefetch.
pub(crate) fn step_chunk(task: &KernelTask, walkers: &[Walker]) -> ChunkOutput {
    let mut out = task
        .scratch
        .take(walkers.len(), task.track_visits, task.track_paths);
    for (j, mut w) in walkers.iter().copied().enumerate() {
        debug_assert!(task.view.own.contains(w.vertex), "batch invariant violated");
        if let Some(ahead) = walkers.get(j + PREFETCH_AHEAD) {
            prefetch_first_read(task, ahead);
        }
        loop {
            let d = step_once(task, &w);
            match d {
                StepDecision::Terminate => {
                    out.finished += 1;
                    out.lengths.push(w.step);
                    if task.tagged {
                        out.length_tags.push(w.tag);
                    }
                    break;
                }
                StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                    out.steps += 1;
                    d.advance(&mut w);
                    if task.track_visits {
                        out.visits.push(v);
                        if task.tagged {
                            out.visit_tags.push(w.tag);
                        }
                    }
                    if task.track_paths {
                        out.path_events.push((w.id, v));
                    }
                    if !task.view.own.contains(v) {
                        out.moved.push(w);
                        break;
                    }
                }
            }
        }
    }
    out.movers.sort(&out.moved, task.lookup);
    out
}

/// Prefetch, in every edge column of the own partition, the entry of
/// `w`'s row that its next step reads first. Walkers of a batch all lie
/// in the own partition, so the row is there; an empty row has nothing
/// to read, and a hint past the row's end is held to its last entry.
#[inline]
fn prefetch_first_read(task: &KernelTask, w: &Walker) {
    let own = &task.view.own;
    let span = own.span(w.vertex);
    if span.is_empty() {
        return;
    }
    let hint = task.alg.first_read(w, span.len(), task.seed);
    let i = span.start + hint.min(span.len() - 1);
    let (edges, weights, timestamps) = own.columns();
    if let Some(e) = edges.get(i) {
        prefetch(e);
    }
    if let Some(x) = weights.and_then(|c| c.get(i)) {
        prefetch(x);
    }
    if let Some(t) = timestamps.and_then(|c| c.get(i)) {
        prefetch(t);
    }
}

/// Ask the CPU to bring the cache line holding `r` into L1, without
/// waiting for it. A no-op off x86-64. A plain load would not do: it
/// blocks retirement until the line arrives, and a load 8 or 16 walkers
/// ahead ran no faster than no look-ahead (DESIGN.md §12).
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It never faults, whatever the address,
    // and changes no architectural state; and a `&T` is always a live
    // address besides.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// One step of `w` against the task's view, read in place. Second-order
/// context is built only for an algorithm that declared it reads it, so
/// a first-order walk sees `None` on every view, and then it is the
/// view's row for `aux` wherever the view holds one, else `None`.
#[inline]
fn step_once(task: &KernelTask, w: &Walker) -> StepDecision {
    let own = &task.view.own;
    let prev_neighbors = if task.reads_prev {
        task.view.find(w.aux).map(|r| r.neighbors(w.aux))
    } else {
        None
    };
    let ctx = StepContext {
        neighbors: own.neighbors(w.vertex),
        weights: own.neighbor_weights(w.vertex),
        prev_neighbors,
        timestamps: own.neighbor_timestamps(w.vertex),
        max_multiplicity: task.max_multiplicity,
        num_vertices: task.num_vertices,
    };
    task.alg.step(w, ctx, task.seed)
}

/// The [`StepContext::max_multiplicity`] to step `alg` with: for an
/// algorithm that reads second-order context, `graph_bound()` — the
/// stepped graph's cached [`Csr::max_multiplicity`] — and 1 otherwise, so
/// a first-order walk never scans for it. Every CPU baseline picks the value
/// here, and the engine by the same rule, which keeps them bit-identical.
#[inline]
pub fn multiplicity_for(alg: &dyn WalkAlgorithm, graph_bound: impl FnOnce() -> u32) -> u32 {
    if alg.reads_prev_neighbors() {
        graph_bound()
    } else {
        1
    }
}

/// One host-graph step for the CPU baselines: build the [`StepContext`]
/// from the full CSR (all adjacencies readable, so an algorithm that reads
/// second-order context is always served it) and apply the decision in place.
///
/// Returns the decision so callers can account finishes/steps; on a move
/// decision ([`StepDecision::Move`] or [`StepDecision::MoveAt`]) the
/// walker has already advanced.
#[inline]
pub fn host_step(graph: &Csr, alg: &dyn WalkAlgorithm, w: &mut Walker, seed: u64) -> StepDecision {
    let ctx = StepContext {
        neighbors: graph.neighbors(w.vertex),
        weights: graph.neighbor_weights(w.vertex),
        // Bounds guard: temporal walks keep their clock in `aux`, which
        // can exceed |V| (see `step_once`).
        prev_neighbors: (alg.reads_prev_neighbors()
            && w.aux != VertexId::MAX
            && (w.aux as u64) < graph.num_vertices())
        .then(|| graph.neighbors(w.aux)),
        timestamps: graph.neighbor_timestamps(w.vertex),
        max_multiplicity: multiplicity_for(alg, || graph.max_multiplicity()),
        num_vertices: graph.num_vertices(),
    };
    let d = alg.step(w, ctx, seed);
    d.advance(w);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::UniformSampling;
    use lt_graph::gen::erdos_renyi;
    use std::ops::Range;
    use std::sync::Arc;

    /// A view of `g`'s vertices `range`, read in place from the CSR.
    fn csr_view(g: &Csr, range: Range<VertexId>) -> GraphView<'_> {
        GraphView::new(Rows::csr(g, range), Vec::new())
    }

    /// One partition holding every vertex a test graph has.
    static WHOLE: OnceLock<PartitionLookup> = OnceLock::new();

    /// A task with every tracker off; tests override the fields they
    /// exercise.
    fn task<'a>(
        view: GraphView<'a>,
        alg: &'a dyn WalkAlgorithm,
        scratch: &'a ScratchPool,
        num_vertices: u64,
    ) -> KernelTask<'a> {
        KernelTask {
            view,
            alg,
            reads_prev: false,
            max_multiplicity: 1,
            seed: 0,
            num_vertices,
            lookup: WHOLE.get_or_init(|| PartitionLookup::new(vec![0, u32::MAX])),
            track_visits: false,
            track_paths: false,
            tagged: false,
            scratch,
        }
    }

    #[test]
    fn plan_chunks_bounds() {
        assert_eq!(plan_chunks(0, 8), 1);
        assert_eq!(plan_chunks(1000, 1), 1);
        assert_eq!(plan_chunks(100, 8), 1);
        assert_eq!(plan_chunks(256, 8), 1);
        assert_eq!(plan_chunks(257, 8), 2);
        assert_eq!(plan_chunks(10_000, 4), 4);
        assert_eq!(plan_chunks(512, 64), 2);
    }

    #[test]
    fn resolve_threads_auto_detects() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    /// Chunked stepping merged in chunk order equals one-shot stepping.
    #[test]
    fn chunked_equals_sequential() {
        let g = erdos_renyi(512, 4096, 3).csr;
        let alg = UniformSampling::new(9);
        let scratch = ScratchPool::new(1);
        let walkers: Vec<Walker> = (0..300).map(|i| Walker::new(i, (i % 512) as u32)).collect();
        // Whole graph: no movers.
        let task = KernelTask {
            seed: 7,
            track_visits: true,
            track_paths: true,
            ..task(csr_view(&g, 0..512), &alg, &scratch, g.num_vertices())
        };
        let whole = step_chunk(&task, &walkers);
        let mut merged_visits = Vec::new();
        let mut merged_paths = Vec::new();
        let mut steps = 0;
        let mut finished = 0;
        for chunk in walkers.chunks(77) {
            let o = step_chunk(&task, chunk);
            steps += o.steps;
            finished += o.finished;
            merged_visits.extend(o.visits);
            merged_paths.extend(o.path_events);
        }
        assert_eq!(steps, whole.steps);
        assert_eq!(finished, whole.finished);
        // Visit *counts* match (event order differs across chunk sizes, the
        // per-vertex sums cannot).
        let count = |evs: &[VertexId]| {
            let mut c = vec![0u64; 512];
            for &v in evs {
                c[v as usize] += 1;
            }
            c
        };
        assert_eq!(count(&merged_visits), count(&whole.visits));
        // Per-walk path segments are identical (each id lives in one chunk).
        let by_id = |evs: &[(u64, VertexId)]| {
            let mut p = vec![Vec::new(); 300];
            for &(id, v) in evs {
                p[id as usize].push(v);
            }
            p
        };
        assert_eq!(by_id(&merged_paths), by_id(&whole.path_events));
    }

    #[test]
    fn movers_keep_stepping_order_within_chunk() {
        let g = erdos_renyi(256, 4096, 5).csr;
        let alg = UniformSampling::new(20);
        let scratch = ScratchPool::new(1);
        let walkers: Vec<Walker> = (0..200).map(|i| Walker::new(i, (i % 128) as u32)).collect();
        let task = KernelTask {
            seed: 1,
            // Half the graph: walks leave.
            ..task(csr_view(&g, 0..128), &alg, &scratch, g.num_vertices())
        };
        let whole = step_chunk(&task, &walkers);
        let mut merged: Vec<Walker> = Vec::new();
        for chunk in walkers.chunks(50) {
            merged.extend(step_chunk(&task, chunk).moved);
        }
        assert_eq!(
            merged, whole.moved,
            "chunk-order concat == sequential order"
        );
    }

    /// A step is a pure function of `(row, walker, seed)`: the temporal
    /// sampler — a window search of the row's stamps, then one draw —
    /// picks the same edges whether the rows are a CSR range or a block.
    #[test]
    fn temporal_steps_agree_on_every_view() {
        use crate::algorithm::TemporalWalk;
        use lt_graph::gen::with_random_timestamps;
        use lt_graph::PartitionedGraph;
        // Dense enough that most rows are long (~280 edges): both views
        // search hub-sized rows as well as short ones.
        let g = Arc::new(with_random_timestamps(
            &erdos_renyi(512, 512 * 220, 11).csr,
            3,
            64,
        ));
        let long_rows = (0..512).filter(|&v| g.degree(v) >= 256).count();
        assert!((256..512).contains(&long_rows), "{long_rows} long rows");
        let pg = PartitionedGraph::build(g.clone(), u64::MAX);
        let block = pg.extract(0);
        let alg = TemporalWalk::new(40, 6);
        let scratch = ScratchPool::new(1);
        let walkers: Vec<Walker> = (0..500).map(|i| Walker::new(i, (i % 512) as u32)).collect();
        let run = |own| {
            let task = KernelTask {
                seed: 9,
                track_visits: true,
                ..task(GraphView::new(own, Vec::new()), &alg, &scratch, 512)
            };
            let o = step_chunk(&task, &walkers);
            (o.steps, o.visits, o.lengths)
        };
        let csr = run(Rows::csr(&g, 0..512));
        assert!(csr.0 > 2_000, "walks must actually move: {} steps", csr.0);
        assert_eq!(run(block.rows()), csr);
    }

    /// A view serves second-order context only for the partitions it
    /// covers: a resident view of the kernel's own partition steps some
    /// node2vec walks differently from a view that also covers the
    /// partitions of the walkers' previous vertices, and CSR rows equal
    /// block rows under either coverage.
    #[test]
    fn resident_csr_serves_context_only_inside_the_partition() {
        use crate::algorithm::SecondOrderWalk;
        use lt_graph::PartitionedGraph;
        let g = Arc::new(erdos_renyi(512, 512 * 8, 13).csr);
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        assert!(pg.num_partitions() >= 3);
        let blocks: Vec<_> = (0..pg.num_partitions()).map(|p| pg.extract(p)).collect();
        let range = pg.vertex_range(1);
        let alg = SecondOrderWalk::node2vec(30, 0.25, 4.0);
        let scratch = ScratchPool::new(1);
        // Mid-walk, previous vertices on both sides of the partition
        // boundary.
        let walkers: Vec<Walker> = (0..400)
            .map(|i| Walker {
                step: 1,
                aux: (i as u32 * 37) % 512,
                ..Walker::new(i, range.start + i as u32 % (range.end - range.start))
            })
            .collect();
        let run = |view| {
            let task = KernelTask {
                reads_prev: true,
                seed: 3,
                track_visits: true,
                ..task(view, &alg, &scratch, 512)
            };
            let o = step_chunk(&task, &walkers);
            (o.steps, o.visits, o.lengths, o.moved)
        };
        /// Partition 1's view, covering every other partition too when
        /// `covered`.
        fn view<'a>(rows: &[Rows<'a>], covered: bool) -> GraphView<'a> {
            let others = rows.iter().enumerate().filter(|&(p, _)| covered && p != 1);
            GraphView::new(rows[1], others.map(|(_, r)| *r).collect())
        }
        let csr_rows: Vec<_> = (0..pg.num_partitions())
            .map(|p| Rows::csr(&g, pg.vertex_range(p)))
            .collect();
        let block_rows: Vec<_> = blocks.iter().map(|b| b.rows()).collect();
        let resident = run(view(&block_rows, false));
        assert_eq!(run(view(&csr_rows, false)), resident);
        let covered = run(view(&csr_rows, true));
        assert_ne!(covered, resident);
        assert_eq!(run(view(&block_rows, true)), covered);
    }

    /// Everything a chunk produced that the merge reads.
    type Summary = (
        u64,
        u64,
        Vec<Walker>,
        Vec<VertexId>,
        Vec<(u64, VertexId)>,
        Vec<u32>,
    );

    fn summary(o: ChunkOutput) -> Summary {
        (
            o.steps,
            o.finished,
            o.moved,
            o.visits,
            o.path_events,
            o.lengths,
        )
    }

    /// The prefetch pipeline changes no output: stepping the first `n`
    /// walkers in one call equals stepping them one per call, for every
    /// `n` up to two look-ahead windows and one more walker. A one-walker
    /// call has nothing ahead to prefetch, which makes it the reference.
    /// Every algorithm with a hint is covered, on every column a hint
    /// prefetches in: node2vec over a view covering the previous
    /// vertices, the weighted scan on weights, the temporal walk on
    /// timestamps, where the hint is the row start its window search
    /// reads first.
    #[test]
    fn prefetching_ahead_changes_no_output() {
        use crate::algorithm::{PageRank, SecondOrderWalk, TemporalWalk, WeightedWalk};
        use lt_graph::gen::{with_random_timestamps, with_random_weights};
        use lt_graph::PartitionedGraph;
        let plain = Arc::new(erdos_renyi(512, 512 * 16, 21).csr);
        let weighted = Arc::new(with_random_weights(&plain, 4));
        // ~280 edges a row: most rows are long.
        let temporal = Arc::new(with_random_timestamps(
            &erdos_renyi(512, 512 * 220, 11).csr,
            3,
            64,
        ));
        let cases: [(Arc<Csr>, Box<dyn WalkAlgorithm>); 5] = [
            (plain.clone(), Box::new(UniformSampling::new(12))),
            (plain.clone(), Box::new(PageRank::new(12, 0.15))),
            (plain, Box::new(SecondOrderWalk::node2vec(12, 0.25, 4.0))),
            (weighted, Box::new(WeightedWalk::new(12))),
            (temporal, Box::new(TemporalWalk::new(12, 16))),
        ];
        let scratch = ScratchPool::new(1);
        for (g, alg) in &cases {
            let alg = alg.as_ref();
            let pg = PartitionedGraph::build(g.clone(), g.csr_bytes() / 4);
            assert!(pg.num_partitions() >= 3, "{}", alg.name());
            let rows: Vec<_> = (0..pg.num_partitions())
                .map(|p| Rows::csr(g, pg.vertex_range(p)))
                .collect();
            let reads_prev = alg.reads_prev_neighbors();
            let context = rows
                .iter()
                .enumerate()
                .filter(|&(p, _)| reads_prev && p != 1);
            let view = GraphView::new(rows[1], context.map(|(_, r)| *r).collect());
            let range = pg.vertex_range(1);
            let walkers: Vec<Walker> = (0..2 * PREFETCH_AHEAD as u64 + 1)
                .map(|i| Walker {
                    step: (i % 2) as u32,
                    // A previous vertex anywhere in the graph, or a
                    // clock early in the temporal graph's 64 ticks.
                    aux: if reads_prev {
                        (i as u32 * 37) % 512
                    } else {
                        i as u32 % 32
                    },
                    ..Walker::new(i, range.start + i as u32 % (range.end - range.start))
                })
                .collect();
            let task = KernelTask {
                reads_prev,
                max_multiplicity: g.max_multiplicity(),
                seed: 5,
                track_visits: true,
                track_paths: true,
                ..task(view, alg, &scratch, 512)
            };
            let mut reference: Summary = Default::default();
            let mut prefixes = vec![reference.clone()];
            for w in &walkers {
                let (steps, finished, moved, visits, paths, lengths) =
                    summary(step_chunk(&task, std::slice::from_ref(w)));
                reference.0 += steps;
                reference.1 += finished;
                reference.2.extend(moved);
                reference.3.extend(visits);
                reference.4.extend(paths);
                reference.5.extend(lengths);
                prefixes.push(reference.clone());
            }
            assert!(reference.0 > 40, "{}: {} steps", alg.name(), reference.0);
            for (n, want) in prefixes.iter().enumerate() {
                let got = summary(step_chunk(&task, &walkers[..n]));
                assert_eq!(&got, want, "{}, {n} walkers", alg.name());
            }
        }
    }

    /// Recycled scratch buffers must not leak state between rounds.
    #[test]
    fn scratch_pool_recycling_is_transparent() {
        let g = erdos_renyi(256, 4096, 7).csr;
        let alg = UniformSampling::new(12);
        let (pool, unused_pool) = (ScratchPool::new(1), ScratchPool::new(1));
        let walkers: Vec<Walker> = (0..150).map(|i| Walker::new(i, (i % 128) as u32)).collect();
        let mk_task = |scratch| KernelTask {
            seed: 5,
            track_visits: true,
            track_paths: true,
            ..task(csr_view(&g, 0..128), &alg, scratch, g.num_vertices())
        };
        let fresh = step_chunk(&mk_task(&unused_pool), &walkers);
        // Dirty the pool with an unrelated round, recycle its buffer, and
        // step the same walkers through the recycled buffer.
        let dirty: Vec<Walker> = (500..700)
            .map(|i| Walker::new(i, (i % 100) as u32))
            .collect();
        let task = mk_task(&pool);
        let o = step_chunk(&task, &dirty);
        pool.put(o);
        let recycled = step_chunk(&task, &walkers);
        assert_eq!(recycled.steps, fresh.steps);
        assert_eq!(recycled.finished, fresh.finished);
        assert_eq!(recycled.moved, fresh.moved);
        assert_eq!(recycled.visits, fresh.visits);
        assert_eq!(recycled.path_events, fresh.path_events);
        assert_eq!(recycled.lengths, fresh.lengths);
    }
}

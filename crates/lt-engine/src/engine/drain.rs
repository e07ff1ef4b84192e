//! Draining a partition (Algorithm 2 lines 10–17): acquire its walk
//! batches in drain order, step each through the host kernel, and
//! reshuffle the movers into their new partitions' frontiers (§III-C),
//! evicting queued batches to the host when the walk pool runs full. The
//! first kernel of a drain steps the partition's other batches beside the
//! acquired one, in one fan-out, and the drain books each in acquire
//! order. The preemptive phase (§III-D) runs the same acquire-free half
//! on batches already cached. Each kernel's merge also feeds the per-tag
//! results and the traffic ledger kept here.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use crate::job::TagDelta;
use crate::kernel::{ChunkOutput, GraphView, KernelTask, LOOKAHEAD_BATCHES};
use lt_gpusim::KernelCost;
use lt_graph::partition::Rows;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-job-tag results (when the algorithm [routes by
/// tag](WalkAlgorithm::routes_by_tag)) and the traffic ledger
/// ([`super::EngineConfig::attribution`]).
pub(super) struct Attribution {
    /// Per-tag results since the last [`LightTraffic::take_tag_deltas`]
    /// drain. A `BTreeMap` so drains observe tags in ascending order —
    /// deterministic for any thread count. Between drains every entry only
    /// grows, which is what lets a recovery roll it back to length marks.
    pub(super) deltas: BTreeMap<u32, TagDelta>,
    /// Per-`(tag, partition, direction)` byte attribution; `None` when
    /// attribution is off. Charged in lock-step with the simulated link
    /// (including failed attempts) and, like the device's traffic
    /// counters, never rolled back by a recovery: moved bytes really
    /// moved, and executed steps really ran.
    pub(super) ledger: Option<TrafficLedger>,
}

impl Attribution {
    /// Fold one kernel's tagged visit and termination events in, chunk by
    /// chunk, and return its steps per tag, ascending by tag. A walker's
    /// steps are consecutive events, so the visits go in one run of equal
    /// tags at a time: one delta lookup per run, and a merge into the
    /// kernel's short row list.
    fn fold(&mut self, outputs: &[ChunkOutput]) -> Vec<(u32, u64)> {
        let mut rows = Vec::new();
        for o in outputs {
            debug_assert_eq!(o.visits.len(), o.visit_tags.len());
            debug_assert_eq!(o.lengths.len(), o.length_tags.len());
            let mut at = 0;
            for run in o.visit_tags.chunk_by(|a, b| a == b) {
                let (t, n) = (run[0], run.len());
                let d = self.deltas.entry(t).or_insert_with(|| TagDelta::new(t));
                d.steps += n as u64;
                d.visits.extend_from_slice(&o.visits[at..at + n]);
                at += n;
                merge_row(&mut rows, t, n as u64);
            }
            for (&l, &t) in o.lengths.iter().zip(&o.length_tags) {
                let d = self.deltas.entry(t).or_insert_with(|| TagDelta::new(t));
                d.finished += 1;
                d.lengths.push(l);
            }
        }
        rows
    }

    /// Each tag's visit and length counts, ascending by tag: the marks
    /// [`Self::roll_back`] returns to.
    pub(super) fn marks(&self) -> Vec<(u32, usize, usize)> {
        let mark = |(&t, d): (&u32, &TagDelta)| (t, d.visits.len(), d.lengths.len());
        self.deltas.iter().map(mark).collect()
    }

    /// Return the per-tag results to `marks`; a tag without a mark had
    /// no results yet.
    pub(super) fn roll_back(&mut self, marks: &[(u32, usize, usize)]) {
        self.deltas.retain(|t, d| {
            let Ok(i) = marks.binary_search_by_key(t, |&(m, _, _)| m) else {
                return false;
            };
            let (_, visits, lengths) = marks[i];
            d.visits.truncate(visits);
            d.lengths.truncate(lengths);
            d.steps = visits as u64;
            d.finished = lengths as u64;
            true
        });
    }
}

/// The chunk outputs of batches a drain stepped ahead of their acquire,
/// in the order stepped. A batch moves whole between the pools until it
/// is acquired, so its outputs stay its outputs wherever it is then.
#[derive(Default)]
struct Ahead {
    held: Vec<Held>,
}

/// One batch's outputs, stepped ahead.
struct Held {
    /// The batch's [serial](WalkBatch::serial).
    serial: u64,
    /// Its chunk outputs, in chunk order.
    outputs: Vec<ChunkOutput>,
}

impl Ahead {
    /// The outputs held for the batch named `serial`, taken out.
    fn take(&mut self, serial: u64) -> Option<Held> {
        let k = self.held.iter().position(|h| h.serial == serial)?;
        Some(self.held.remove(k))
    }

    /// Whether outputs are held for the batch named `serial`.
    fn holds(&self, serial: u64) -> bool {
        self.held.iter().any(|h| h.serial == serial)
    }
}

/// Take the queued batch [`schedule::pick_victim`] picks out of the
/// device pool.
fn evict_victim(pools: &mut Pools, selective: bool, protect: PartitionId) -> WalkBatch {
    let victim = schedule::pick_victim(pools, selective, protect);
    pools
        .device
        .evict_queue_batch(victim)
        .expect("pick_victim names a partition with a queued batch")
}

impl LightTraffic {
    /// Drain the per-tag results accumulated since the previous drain
    /// (kept when the algorithm [routes by
    /// tag](WalkAlgorithm::routes_by_tag)): one [`TagDelta`] per tag that
    /// made progress, in ascending tag order. Events merge in chunk
    /// order, so their order is the same at every `kernel_threads`; each
    /// delta's `visits` are still sorted (by [`crate::radix_sort_u32`])
    /// because a recovery replays work in a different order and a job
    /// spans pumps, so only the visit multiset is canonical. `lengths` are
    /// left in chunk-merge order. Empty for any other algorithm.
    pub fn take_tag_deltas(&mut self) -> Vec<TagDelta> {
        self.drop_snapshot();
        let mut deltas: Vec<TagDelta> = std::mem::take(&mut self.attr.deltas)
            .into_values()
            .collect();
        deltas
            .iter_mut()
            .for_each(|d| crate::radix_sort_u32(&mut d.visits));
        deltas
    }

    /// The traffic ledger accumulated so far, `None` unless
    /// [`super::EngineConfig::attribution`] is on.
    pub fn traffic_ledger(&self) -> Option<&TrafficLedger> {
        self.attr.ledger.as_ref()
    }

    /// Process every walk of partition `i` (Algorithm 2 lines 12–17 plus
    /// the frontier drain). Walks loaded from the host stream through the
    /// pipeline: copy on the load stream, kernel on the compute stream.
    ///
    /// One loop: acquire → [`Self::step_batch`] → [`Self::finish_kernel`].
    /// The first `step_batch` also steps the partition's other batches,
    /// up to the look-ahead bound, in the same fan-out, and later ones
    /// find their outputs held; only the stepping fans out over the pool.
    /// Every walk-pool and metrics mutation stays on this thread, in
    /// acquire order, so every `kernel_threads` runs the same sequence of
    /// acquires and reshuffles (DESIGN.md §11). Outputs still held when an
    /// error ends the drain go back to the scratch pool: stepping moved no
    /// walker, so none is lost.
    pub(super) fn drain_partition(
        &mut self,
        i: PartitionId,
        use_zc: bool,
    ) -> Result<(), EngineError> {
        let mut ahead = Ahead::default();
        let drained = self.drain_batches(i, use_zc, &mut ahead);
        for h in ahead.held {
            debug_assert!(drained.is_err(), "a drain acquires every batch it stepped");
            h.outputs.into_iter().for_each(|o| self.scratch.put(o));
        }
        drained
    }

    /// [`Self::drain_partition`]'s loop.
    fn drain_batches(
        &mut self,
        i: PartitionId,
        use_zc: bool,
        ahead: &mut Ahead,
    ) -> Result<(), EngineError> {
        #[cfg(test)]
        tests::observe(self.metrics.iterations, i, ahead, &self.pools);
        while let Some(batch) = self.acquire_next_batch(i)? {
            let outputs = self.step_batch(i, batch, use_zc, Some(&mut *ahead))?;
            self.finish_kernel(i, use_zc, outputs)?;
            #[cfg(test)]
            tests::observe(self.metrics.iterations, i, ahead, &self.pools);
        }
        debug_assert_eq!(
            self.pools.walks_in(i),
            0,
            "a drained partition must have no walks left"
        );
        Ok(())
    }

    /// §III-D preemptive scheduling: while the load stream is busy, run
    /// kernels for *queued* batches whose graph partition is also cached —
    /// the "ready state" tasks that preempt the sleeping ones. Partial
    /// write frontiers are left in place (they keep filling), exactly as
    /// the paper dispatches batches, so preempted partitions retain walks
    /// and can later be scheduled as graph-pool hits.
    pub(super) fn preemptive_phase(&mut self, current: PartitionId) -> Result<(), EngineError> {
        while self.gpu.busy(self.load_stream) {
            let Some(j) =
                schedule::pick_preemptive_partition(&self.pools, self.cfg.selective, current)
            else {
                break;
            };
            let batch = self
                .pools
                .device
                .pop_queue_batch(j)
                .expect("pick_preemptive_partition picks only partitions with a queued batch");
            let outputs = self.step_batch(j, batch, false, None)?;
            self.finish_kernel(j, false, outputs)?;
            self.gpu.synchronize(self.comp_stream);
            self.metrics.preemptive_batches += 1;
        }
        Ok(())
    }

    /// Pop the next batch of partition `i` in drain order: host batches
    /// first (H2D copy on the load stream, then through the device queue),
    /// then device-resident queued batches, then the frontier remainder.
    /// `Ok(None)` means the partition is drained.
    ///
    /// This is the single sequence point where the walk pool hands
    /// walkers to a kernel, always after the previous batch's reshuffle,
    /// so simulated copies and charges are issued identically for every
    /// `kernel_threads`.
    fn acquire_next_batch(&mut self, i: PartitionId) -> Result<Option<WalkBatch>, EngineError> {
        let Some(mut batch) = self.pools.host.pop_batch(i) else {
            return Ok(self
                .pools
                .device
                .pop_queue_batch(i)
                .or_else(|| self.pools.device.take_frontier(i)));
        };
        if let Err(e) = self.copy_batch(&batch, TrafficDirection::H2d, Category::WalkLoad) {
            // The batch never reached the device: requeue it at the head,
            // walkers intact, before surfacing the error.
            self.pools.host.push_evicted(batch);
            return Err(e);
        }
        self.metrics.walk_batches_loaded += 1;
        // A full pool gives up a queued batch, never one of `i` unless
        // it is the only choice.
        while let Err(b) = self.pools.device.add_loaded_batch(batch) {
            batch = b;
            let victim = evict_victim(&mut self.pools, self.cfg.selective, i);
            if let Err(e) = self.park_evicted([victim]) {
                self.pools.host.push_evicted(batch);
                return Err(e);
            }
        }
        self.gpu.synchronize(self.load_stream);
        let b = self
            .pools
            .device
            .pop_queue_batch(i)
            .expect("the queue holds at least the batch just loaded");
        Ok(Some(b))
    }

    /// Charge the D2H copies of batches already taken out of the device
    /// pool, in order, and park each on the host, counting the copies that
    /// succeed. On a fatal copy fault the remaining batches are parked
    /// before the error surfaces (the host-side walk index shadows
    /// in-flight batches), so no walk is ever lost to a device fault.
    fn park_evicted(
        &mut self,
        evicted: impl IntoIterator<Item = WalkBatch>,
    ) -> Result<(), EngineError> {
        let mut evicted = evicted.into_iter();
        while let Some(batch) = evicted.next() {
            let res = self.copy_batch(&batch, TrafficDirection::D2h, Category::WalkEvict);
            if res.is_ok() {
                self.metrics.walk_batches_evicted += 1;
            }
            self.pools.host.push_evicted(batch);
            if let Err(e) = res {
                for rest in evicted.by_ref() {
                    self.pools.host.push_evicted(rest);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Step one batch to completion on the host — the pure half of the
    /// kernel: every walker runs until it terminates or leaves partition
    /// `part`, and each chunk counting-sorts its movers by target
    /// partition. The batch's reads ([`Self::kernel_reads`]) are gathered
    /// first, in acquire order, whether or not its outputs are already
    /// held in `ahead`.
    ///
    /// Otherwise this is a fan-out. Its units are the batch and — when a
    /// drain passes `ahead`, the engine has more than one thread and the
    /// view is the partition's alone — the partition's other batches not
    /// held yet, in [`Pools::batches`] order, while the batches held
    /// ahead stay within [`LOOKAHEAD_BATCHES`]. A second-order zero-copy view depends on each
    /// batch's previous vertices, so that kernel steps its batch alone.
    /// Each unit splits into [`kernel::plan_chunks`] contiguous chunks
    /// ([`crate::batch::chunk_range`]), and every chunk of every unit is
    /// one index of one [`crate::ExecPool::map`] against one
    /// [`KernelTask`] that borrows the engine's graph view, algorithm and
    /// scratch pool; at most [`kernel::MIN_CHUNK_WALKERS`] walkers in all,
    /// or one chunk, step inline. The units' batches stay where they are:
    /// stepping reads them in place and moves nothing. The batch's
    /// outputs are returned and the others' kept in `ahead` under their
    /// serials. Outputs come back in chunk order, which equals the
    /// sequential iteration order of each batch, so every thread count
    /// merges to bit-identical results (see [`crate::kernel`]).
    ///
    /// Only the kernel counters are booked here; no walk-pool or
    /// simulated-device state is touched, except that a failed store read
    /// puts the batch back on the host pool before the error surfaces.
    fn step_batch(
        &mut self,
        part: PartitionId,
        batch: WalkBatch,
        use_zc: bool,
        ahead: Option<&mut Ahead>,
    ) -> Result<Vec<ChunkOutput>, EngineError> {
        debug_assert_eq!(batch.partition(), part);
        let reads_prev = self.alg.reads_prev_neighbors();
        let (max_multiplicity, parts, fetched) =
            match self.kernel_reads(part, batch.walkers(), use_zc, reads_prev) {
                Ok(reads) => reads,
                Err(e) => {
                    self.pools.host.push_evicted(batch);
                    return Err(e);
                }
            };
        self.metrics.host_kernels += 1;
        let threads = self.kernel_threads;
        let mut ahead = ahead.filter(|_| threads > 1 && !(use_zc && reads_prev));
        if let Some(held) = ahead.as_mut().and_then(|a| a.take(batch.serial())) {
            return Ok(held.outputs);
        }
        let mut units = vec![&batch];
        if let Some(ahead) = ahead.as_deref() {
            let others = self
                .pools
                .batches(part)
                .filter(|b| !ahead.holds(b.serial()));
            units.extend(others.take(LOOKAHEAD_BATCHES - ahead.held.len()));
        }
        let table = self.graph.table();
        let rows = |p| kernel_rows(table, &fetched, &self.pools.graph, p);
        let context = parts.iter().filter(|&&p| p != part).map(|&p| rows(p));
        let task = KernelTask {
            view: GraphView::new(rows(part), context.collect()),
            alg: &*self.alg,
            reads_prev,
            max_multiplicity,
            seed: self.cfg.seed,
            num_vertices: table.num_vertices(),
            lookup: table.lookup(),
            // Tag attribution needs the per-step visit events even when
            // no algorithm-level visit buffer exists.
            track_visits: self.visit_counts.is_some() || self.tagged,
            track_paths: self.paths.is_some(),
            tagged: self.tagged,
            scratch: &self.scratch,
        };
        let wall = Instant::now();
        let mut chunks = Vec::new();
        for b in &units {
            let ws = b.walkers();
            let n = kernel::plan_chunks(ws.len(), threads);
            chunks.extend((0..n).map(|k| &ws[crate::batch::chunk_range(ws.len(), n, k)]));
        }
        let walkers: usize = units.iter().map(|b| b.len()).sum();
        let fanned = chunks.len() > 1 && walkers > kernel::MIN_CHUNK_WALKERS;
        let outputs = if fanned {
            self.exec
                .map(chunks.len(), |k| kernel::step_chunk(&task, chunks[k]))
        } else {
            chunks
                .iter()
                .map(|ws| kernel::step_chunk(&task, ws))
                .collect()
        };
        let threads_used = if fanned { chunks.len().min(threads) } else { 1 };
        let m = &mut self.metrics;
        m.host_kernel_wall_ns += wall.elapsed().as_nanos() as u64;
        m.max_kernel_threads = m.max_kernel_threads.max(threads_used as u64);
        let mut outputs = outputs.into_iter();
        let mut stepped = units.iter().map(|b| Held {
            serial: b.serial(),
            outputs: (outputs.by_ref())
                .take(kernel::plan_chunks(b.len(), threads))
                .collect(),
        });
        let own = stepped
            .next()
            .expect("the acquired batch is the first unit");
        if let Some(ahead) = ahead {
            ahead.held.extend(stepped);
        }
        Ok(own.outputs)
    }

    /// What a kernel on `part` reads, gathered before its task borrows
    /// the engine, since both reads can fail on an out-of-core store: the
    /// graph's [`lt_graph::Csr::max_multiplicity`] when the algorithm reads
    /// second-order context (`reads_prev`), else 1; the partitions its
    /// [`GraphView`] covers, ascending; and, for a zero-copy kernel, the
    /// blocks of those the table cannot lend, fetched through the host
    /// decode cache (a resident kernel reads its pin). A first-order walk
    /// costs one fetch per kernel, like an explicit copy.
    fn kernel_reads(
        &mut self,
        part: PartitionId,
        walkers: &[Walker],
        use_zc: bool,
        reads_prev: bool,
    ) -> Result<KernelReads, EngineError> {
        let table = self.graph.table();
        let max_multiplicity = if reads_prev {
            table.max_multiplicity().map_err(EngineError::Graph)?
        } else {
            1
        };
        let mut parts = vec![part];
        if use_zc && reads_prev {
            // Walkers arrive in runs from one source partition: look one
            // up only when `aux` leaves the last partition found.
            let (nv, mut last) = (table.num_vertices(), table.vertex_range(part));
            for w in walkers {
                if (w.aux as u64) < nv && !last.contains(&w.aux) {
                    parts.push(table.partition_of(w.aux));
                    last = table.vertex_range(parts[parts.len() - 1]);
                }
            }
            parts.sort_unstable();
            parts.dedup();
        }
        let mut fetched = Vec::new();
        if use_zc {
            for &p in &parts {
                if self.graph.table().rows(p).is_none() {
                    fetched.push(self.fetch_partition(p)?);
                }
            }
        }
        Ok((max_multiplicity, parts, fetched))
    }

    /// The stateful half of the kernel: merge the chunk outputs in chunk
    /// order, book the walk metrics, reshuffle leavers into their new
    /// frontiers (charging eviction copies in eviction order), and charge
    /// the kernel's simulated cost. Runs on the scheduler thread only.
    /// `outputs` holds one entry per chunk, in chunk order.
    fn finish_kernel(
        &mut self,
        part: PartitionId,
        use_zc: bool,
        outputs: Vec<ChunkOutput>,
    ) -> Result<(), EngineError> {
        // Deterministic merge: chunk order equals the sequential iteration
        // order of the batch, so visit counts, paths, the length histogram,
        // and the reshuffle input come out exactly as with one thread.
        let mut steps: u64 = 0;
        let mut finished: u64 = 0;
        for o in &outputs {
            steps += o.steps;
            finished += o.finished;
            if let Some(counts) = self.visit_counts.as_mut() {
                for &v in &o.visits {
                    counts[v as usize] += 1;
                }
            }
            if let Some(paths) = self.paths.as_mut() {
                for &(id, v) in &o.path_events {
                    paths.push(id, v);
                }
            }
            for &l in &o.lengths {
                self.metrics.record_length(l);
            }
        }
        // This kernel's steps per job tag, ascending by tag: one row under
        // tag 0 unless the algorithm routes by tag. They credit the ledger
        // and weight a zero-copy charge's split.
        let tag_steps = if self.tagged {
            self.attr.fold(&outputs)
        } else {
            vec![(0, steps)]
        };
        // The kernel side effects are already applied; book them before the
        // reshuffle so a fatal eviction fault below leaves the counters
        // and the ledger consistent with the walkers we park.
        if let Some(l) = self.attr.ledger.as_mut() {
            tag_steps.iter().for_each(|&(t, n)| l.add_steps(t, n));
        }
        self.active -= finished;
        self.metrics.total_steps += steps;
        self.metrics.finished_walks += finished;
        let np = self.graph.table().num_partitions();
        // Reshuffle (DESIGN.md §10): the chunks sorted their movers by
        // target partition inside the kernel; what is left is one bulk
        // insert per chunk run, partitions ascending and chunks in order
        // within a partition, on the scheduler thread, wall-clocked.
        // Every insert and evict decision is a function of the batch and
        // the pool state alone.
        debug_assert!(
            outputs.iter().all(|o| o.movers.run(part).is_empty()),
            "multi-step walking never reinserts locally"
        );
        let rs_wall = Instant::now();
        let evicted = insert_runs(&mut self.pools, &outputs, self.cfg.selective, part);
        self.metrics.host_reshuffle_wall_ns += rs_wall.elapsed().as_nanos() as u64;
        self.metrics.host_reshuffles += 1;
        let n_moved: u64 = outputs.iter().map(|o| o.movers.len() as u64).sum();
        // Merged and inserted: hand the buffers back for the next
        // kernel's chunks.
        for o in outputs {
            self.scratch.put(o);
        }
        // Charge the evictions' D2H copies in eviction order. Every moved
        // walker is already inside the device pool, so even a fatal copy
        // fault here leaves the walk index intact.
        self.park_evicted(evicted)?;
        let two_level = self.cfg.reshuffle == ReshuffleMode::TwoLevel;
        let working_set = self.graph.table().partition_bytes(part);
        let cost = self.gpu.cost();
        let kcost = KernelCost {
            update_ns: cost.step_time_in(steps, working_set),
            reshuffle_ns: cost.reshuffle_time(n_moved, np, two_level),
            other_ns: 0,
            zero_copy_bytes: if use_zc {
                steps * 2 * cost.cacheline_bytes
            } else {
                0
            },
        };
        let cat = if use_zc {
            Category::ZeroCopy
        } else {
            Category::Compute
        };
        let zc_bytes = kcost.zero_copy_bytes;
        self.gpu.kernel_async(kcost, cat, self.comp_stream);
        if use_zc {
            self.metrics.zero_copy_kernels += 1;
        }
        if let Some(l) = self.attr.ledger.as_mut().filter(|_| zc_bytes > 0) {
            // Mirror the device's zero-copy H2D charge. The engine requests
            // a cacheline multiple (`steps * 2 * cacheline`), so the
            // device's cacheline rounding is the identity and this equals
            // the simulated charge bit for bit. The split is exact, and its
            // ties go by position: `tag_steps` is ascending. The
            // counterfactual is the explicit load this kernel avoided: the
            // partition's resident bytes.
            let rows = apportion_exact(zc_bytes, &tag_steps);
            l.charge_rows(part, TrafficDirection::H2d, &rows);
            l.note_zero_copy(zc_bytes, working_set);
        }
        Ok(())
    }
}

/// What [`LightTraffic::kernel_reads`] gathers: the multiplicity bound,
/// the covered partitions and the blocks fetched for them.
type KernelReads = (u32, Vec<PartitionId>, Vec<Arc<PartitionData>>);

/// Partition `p`'s rows for a kernel: lent by the block table, else
/// from the block fetched for the kernel, else the graph pool's pin of a
/// resident partition.
fn kernel_rows<'a>(
    table: &'a PartitionedGraph,
    fetched: &'a [Arc<PartitionData>],
    pool: &'a DeviceGraphPool,
    p: PartitionId,
) -> Rows<'a> {
    table
        .rows(p)
        .or_else(|| fetched.iter().find(|d| d.id == p).map(|d| d.rows()))
        .or_else(|| pool.pinned(p).map(PartitionData::rows))
        .expect("a kernel's partition is lent, fetched for it, or pinned")
}

/// The insert half of the reshuffle: copy every run of the chunks' sorted
/// movers into its frontier — partitions ascending, within a partition
/// chunk by chunk, which is arrival order — evicting a victim whenever a
/// promotion finds no block free. Returns the evicted batches in eviction
/// order; the caller charges their D2H copies afterwards, so the host
/// pool the victim heuristic reads does not change during the phase.
/// Inserting a partition's runs one chunk at a time evicts and promotes
/// exactly where inserting their concatenation would
/// (`walkpool.rs::insert_run_matches_per_walker_inserts`).
///
/// Livelock audit: `insert_run` stops early only when no block is
/// free; the `2P + 1` floor pins exactly `2P` blocks to frontier/reserve
/// pairs, so every remaining block then holds a queued batch and
/// `evict_queue_batch` frees exactly one — even when the only victim is
/// the protected partition itself. The next `insert_run` promotes and
/// takes at least one walker, so the loop evicts at most once per
/// frontier block the run fills.
fn insert_runs(
    pools: &mut Pools,
    chunks: &[ChunkOutput],
    selective: bool,
    protect: PartitionId,
) -> Vec<WalkBatch> {
    let mut evicted = Vec::new();
    for p in 0..pools.device.num_partitions() {
        for o in chunks {
            let mut run = pools.device.insert_run(p, o.movers.run(p));
            while !run.is_empty() {
                evicted.push(evict_victim(pools, selective, protect));
                run = pools.device.insert_run(p, run);
            }
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::super::tests::graph;
    use super::{Ahead, PartitionId, Pools, WalkBatch};
    use crate::algorithm::{PageRank, Ppr, UniformSampling, WalkAlgorithm};
    use crate::kernel::LOOKAHEAD_BATCHES;
    use crate::{EngineConfig, LightTraffic, ReshuffleMode, RunResult, ZeroCopyPolicy};
    use lt_graph::PartitionedGraph;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// What a drain test sees of the look-ahead, from the pools and the
    /// held outputs between one kernel and the next acquire.
    #[derive(Default)]
    struct Probe {
        /// The iteration whose drain the sets below describe.
        iteration: u64,
        /// The draining partition's batches seen queued on the device.
        queued: BTreeSet<u64>,
        /// Those seen on the host since: evicted in the drain.
        evicted: BTreeSet<u64>,
        /// Batches held ahead at the last look.
        held: Vec<u64>,
        /// Held outputs booked for a batch evicted in its own drain.
        reloaded_held: u64,
        /// Most batches held ahead at once.
        max_held: usize,
    }

    thread_local! {
        /// The probe of the test running on this thread; `None` unless
        /// the test arms it.
        static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
    }

    /// Look at the drain of partition `i` in `iteration` before each of
    /// its acquires. Only evictions move a queued batch to the host, and a
    /// held batch leaves `ahead` only when its acquire books it.
    pub(super) fn observe(iteration: u64, i: PartitionId, ahead: &Ahead, pools: &Pools) {
        PROBE.with_borrow_mut(|p| {
            let Some(p) = p else { return };
            if p.iteration != iteration {
                *p = Probe {
                    iteration,
                    reloaded_held: p.reloaded_held,
                    max_held: p.max_held,
                    ..Probe::default()
                };
            }
            p.queued
                .extend(pools.device.queued(i).map(WalkBatch::serial));
            let parked = pools.host.batches(i).map(WalkBatch::serial);
            p.evicted.extend(parked.filter(|s| p.queued.contains(s)));
            let booked = p.held.iter().filter(|&&s| !ahead.holds(s));
            p.reloaded_held += booked.filter(|s| p.evicted.contains(s)).count() as u64;
            p.held = ahead.held.iter().map(|h| h.serial).collect();
            p.max_held = p.max_held.max(p.held.len());
        });
    }

    /// Run `f` with this thread's probe armed, and return the probe.
    fn probed<T>(f: impl FnOnce() -> T) -> (T, Probe) {
        PROBE.set(Some(Probe::default()));
        let out = f();
        (out, PROBE.take().expect("armed above"))
    }

    /// FNV-1a over a run's deterministic fingerprint: stable across
    /// toolchains, unlike `DefaultHasher`.
    fn digest(r: &RunResult) -> u64 {
        r.deterministic_fingerprint()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Run `walks` walks of `alg` under `cfg` at 1 and 4 host threads,
    /// check that both runs give `pinned`, the digest of the same run
    /// recorded before drains stepped ahead (`e34c542`), and return the
    /// 4-thread run's probe.
    fn one_and_four(
        alg: Arc<dyn WalkAlgorithm>,
        cfg: EngineConfig,
        walks: u64,
        pinned: u64,
    ) -> Probe {
        let g = graph();
        let run = |kernel_threads| {
            let cfg = EngineConfig {
                kernel_threads,
                record_paths: true,
                ..cfg.clone()
            };
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).unwrap();
            let (r, probe) = probed(|| e.run(walks).unwrap());
            assert_eq!(r.metrics.finished_walks, walks);
            (digest(&r), probe)
        };
        let (one, probe) = run(1);
        assert_eq!((one, probe.max_held), (pinned, 0), "1 thread");
        let (four, probe) = run(4);
        assert_eq!(four, pinned, "4 threads");
        probe
    }

    /// The `2P + 1` floor with 8-walker batches. A drain's first load
    /// finds no block free and the only queued batch its own partition's,
    /// so it evicts that batch to the host; the fan-out then steps it
    /// there, and its held outputs are booked when it is reloaded. The
    /// eviction always comes before the fan-out: after a kernel's pop one
    /// block is free, and every later eviction has the batch a promotion
    /// just queued, of another partition, to take instead. Pinned to the
    /// digest recorded before drains stepped ahead, so booking held
    /// outputs against the wrong batch fails here even when every thread
    /// count agrees.
    #[test]
    fn an_evicted_batch_keeps_the_outputs_stepped_ahead_for_it() {
        let p = PartitionedGraph::build(graph(), 16 << 10).num_partitions() as usize;
        let cfg = EngineConfig {
            batch_capacity: 8,
            walk_pool_blocks: Some(2 * p + 1),
            ..EngineConfig::light_traffic(16 << 10, 2)
        };
        let alg = Arc::new(UniformSampling::new(8));
        let probe = one_and_four(alg, cfg, 5_000, 3_258_995_031_387_769_566);
        assert_eq!(probe.max_held, LOOKAHEAD_BATCHES);
        assert!(
            probe.reloaded_held > 0,
            "no evicted batch was stepped ahead"
        );
    }

    /// A PPR drain from one source vertex: every walker starts in one
    /// partition, in more batches than the look-ahead holds, so the drain
    /// steps the partition in several fan-outs, each stopped at the bound.
    #[test]
    fn a_one_source_drain_steps_ahead_within_the_bound() {
        let alg = Arc::new(Ppr::from_highest_degree(&graph(), 0.15));
        let cfg = EngineConfig::light_traffic(16 << 10, 2);
        let walks = 48_000;
        assert!(walks > (LOOKAHEAD_BATCHES + 1) * cfg.batch_capacity);
        let probe = one_and_four(alg, cfg, walks as u64, 4_739_997_582_354_460_139);
        assert_eq!(probe.max_held, LOOKAHEAD_BATCHES);
    }

    /// DESIGN.md §10: a steady-state reshuffle allocates nothing. The
    /// scratch pool keeps every buffer a drain returns, up to its cap, and
    /// allocates only when it has none left; so while it stays below the
    /// cap, a second run of the same walks that ends with as many buffers
    /// retained drew each chunk output, its local index included, from
    /// the pool.
    #[test]
    fn a_second_run_allocates_no_chunk_output() {
        let cfg = EngineConfig {
            batch_capacity: 512,
            kernel_threads: 4,
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
        let (_, probe) = probed(|| e.run(20_000).unwrap());
        assert!(probe.max_held > 0, "no drain stepped ahead");
        let (first, cap) = e.scratch.retained();
        assert!(first < cap, "{first} buffers retained fill the cap {cap}");
        e.run(20_000).unwrap();
        assert_eq!(e.scratch.retained().0, first);
    }

    /// Tentpole acceptance: parallel host kernels are *bit-identical* to
    /// sequential ones for every scheduling / reshuffle / zero-copy mode —
    /// data outputs, sampled paths, and the full simulated timeline.
    #[test]
    fn parallel_kernels_match_sequential_exactly() {
        let g = graph();
        let variants: Vec<EngineConfig> = vec![
            EngineConfig {
                batch_capacity: 512,
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 512,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 512,
                zero_copy: ZeroCopyPolicy::Always,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 512,
                preemptive: true,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 512,
                selective: true,
                reshuffle: ReshuffleMode::DirectWrite,
                ..EngineConfig::baseline(16 << 10, 4)
            },
        ];
        for (k, base) in variants.into_iter().enumerate() {
            let run = |threads: usize| {
                let cfg = EngineConfig {
                    kernel_threads: threads,
                    record_paths: true,
                    ..base.clone()
                };
                let mut e =
                    LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
                e.run(3_000).unwrap()
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(par.visit_counts, seq.visit_counts, "variant {k} visits");
            assert_eq!(par.paths, seq.paths, "variant {k} paths");
            assert_eq!(par.metrics.finished_walks, seq.metrics.finished_walks);
            assert_eq!(par.metrics.total_steps, seq.metrics.total_steps);
            assert_eq!(par.metrics.iterations, seq.metrics.iterations);
            assert_eq!(
                par.metrics.makespan_ns, seq.metrics.makespan_ns,
                "variant {k} simulated clock"
            );
            assert_eq!(par.metrics.length_histogram, seq.metrics.length_histogram);
            // The whole simulated breakdown (traffic, busy times, counts)
            // must be thread-count independent.
            assert_eq!(
                serde_json::to_string(&par.gpu).unwrap(),
                serde_json::to_string(&seq.gpu).unwrap(),
                "variant {k} gpu stats"
            );
            assert!(
                par.metrics.max_kernel_threads > 1,
                "variant {k} never fanned out — the parallel path was not exercised"
            );
            assert_eq!(seq.metrics.max_kernel_threads, 1);
            assert_eq!(
                par.deterministic_fingerprint(),
                seq.deterministic_fingerprint(),
                "variant {k} fingerprint"
            );
        }
    }

    /// Regression for the full-pool retry loop of the reshuffle insert:
    /// with the walk pool at its `2P + 1` floor and batches small enough
    /// that every frontier block is occupied, inserts keep failing until
    /// eviction — including when the only evictable victim belongs to the
    /// protected partition. The loop must make progress (evict one block,
    /// insert, repeat), never spin.
    #[test]
    fn full_pool_with_only_protected_victims_makes_progress() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        for selective in [false, true] {
            let cfg = EngineConfig {
                batch_capacity: 8, // many tiny batches: worst-case occupancy
                walk_pool_blocks: Some(2 * p + 1),
                selective,
                ..EngineConfig::light_traffic(16 << 10, 2)
            };
            let mut e =
                LightTraffic::with_partitioned(pg.clone(), Arc::new(UniformSampling::new(8)), cfg)
                    .unwrap();
            let r = e.run(5_000).unwrap();
            assert_eq!(r.metrics.finished_walks, 5_000, "selective={selective}");
            assert!(
                r.metrics.walk_batches_evicted > 0,
                "the full-pool path was not exercised (selective={selective})"
            );
        }
    }

    #[test]
    fn walk_evictions_happen_under_tight_walk_pool() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        let cfg = EngineConfig {
            batch_capacity: 32,
            walk_pool_blocks: Some(2 * p + 1), // minimum legal size
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e =
            LightTraffic::with_partitioned(pg, Arc::new(UniformSampling::new(8)), cfg).unwrap();
        let r = e.run(20_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 20_000);
        assert!(
            r.metrics.walk_batches_evicted > 0,
            "tight pool must trigger evictions"
        );
        assert!(r.gpu.walk_evict.bytes > 0);
    }

    /// Fails with a free list per group of partitions: a pool sized to
    /// hold every walk (Figure 15's largest pool, one block per full batch
    /// on top of the `2P + 1` floor, plus one per partition for the
    /// partial batches the initial injection leaves) never evicts, however
    /// skewed the graph.
    #[test]
    fn a_pool_that_holds_every_walk_never_evicts() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        let (walks, batch) = (20_000, 32);
        let cfg = EngineConfig {
            batch_capacity: batch,
            walk_pool_blocks: Some(walks / batch + 2 * p + 1 + p),
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e =
            LightTraffic::with_partitioned(pg, Arc::new(UniformSampling::new(8)), cfg).unwrap();
        let r = e.run(walks as u64).unwrap();
        assert_eq!(r.metrics.finished_walks, walks as u64);
        assert!(r.metrics.walk_batches_loaded > 0);
        assert_eq!(r.metrics.walk_batches_evicted, 0);
    }
}

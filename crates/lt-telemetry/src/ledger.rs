//! The CPU-GPU traffic ledger: exact byte attribution per
//! `(job tag, partition, direction)`.
//!
//! The paper's scarce resource is link traffic, and after the serving
//! layer multiplexes many tenants over one engine the aggregate
//! `GpuStats` counters can no longer answer *whose* traffic a burst was.
//! The ledger closes that gap: every simulated byte the engine charges on
//! the link — explicit graph loads, walk-batch loads and evictions
//! (including every retried attempt), and zero-copy kernel reads — is
//! also charged here, keyed by the owning job tag, the partition it
//! touched, and the direction it moved. The invariant, enforced by the
//! engine's integration tests, is exact equality:
//!
//! ```text
//! Σ ledger H2D cells    == GpuStats::h2d_bytes()
//! Σ ledger D2H cells    == GpuStats::d2h_bytes()
//! Σ ledger reload cells == GpuStats::reload_bytes()
//! ```
//!
//! Mutation-induced stale-partition refreshes ride the same physical
//! H2D link but are attributed under their own [`TrafficDirection::Reload`]
//! axis so the steady-state H2D equality above survives graph evolution
//! unchanged (DESIGN.md §15).
//!
//! The out-of-core substrate (DESIGN.md §16) extends the same exactness
//! one tier up: bytes decoded from the compressed on-disk graph into host
//! RAM are charged as [`TrafficDirection::HostLoad`] — not link traffic at
//! all, but the host-tier analogue of a graph load, with its own equality
//! (`Σ ledger host-load cells == Metrics::host_decode_bytes`).
//!
//! # Determinism quarantine (DESIGN.md §14)
//!
//! The ledger is *written* on the scheduler thread from simulated-side
//! quantities only (byte counts, tags, partitions — never host wall
//! time), so its contents are bit-identical across `kernel_threads` and
//! retryable-fault plans. It is *read* only
//! pull-side — by `LightTraffic::publish` and the server's per-tenant
//! series — and never feeds a scheduling decision, so enabling
//! attribution cannot perturb any deterministic fingerprint.
//!
//! Bytes with no owning job (graph-partition loads serve whoever walks
//! the partition) are charged to the reserved [`SHARED_TAG`].

use serde::Serialize;
use std::collections::BTreeMap;

/// Pseudo-tag for traffic with no single owning job: explicit graph
/// partition loads are shared infrastructure, charged here and rendered
/// as tenant `"shared"` in labeled exports.
pub const SHARED_TAG: u32 = u32::MAX;

/// Transfer direction over the CPU-GPU link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficDirection {
    /// Host to device (graph loads, walk loads, zero-copy reads).
    H2d,
    /// Device to host (walk evictions).
    D2h,
    /// Host to device refresh of a stale (mutated) partition after an
    /// epoch seal. Physically H2D, accounted separately so steady-state
    /// traffic metrics are undisturbed by graph evolution.
    Reload,
    /// Disk/page-cache to host RAM: a partition decoded from the
    /// out-of-core compressed graph (uncompressed bytes materialized).
    /// The host-memory tier of the traffic story — never part of link
    /// totals.
    HostLoad,
}

/// Number of [`TrafficDirection`] axes (per-partition storage width).
const NUM_DIRECTIONS: usize = 4;

impl TrafficDirection {
    /// Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            TrafficDirection::H2d => "h2d",
            TrafficDirection::D2h => "d2h",
            TrafficDirection::Reload => "reload",
            TrafficDirection::HostLoad => "host_load",
        }
    }
}

/// One attributed cell: bytes moved for `(tag, partition, direction)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TrafficCell {
    /// Owning job tag ([`SHARED_TAG`] for unattributable traffic).
    pub tag: u32,
    /// Partition whose data (graph or walkers) moved.
    pub partition: u32,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Bytes moved refreshing this partition after mutation epochs.
    pub reload_bytes: u64,
    /// Bytes decoded from the out-of-core store into host RAM.
    pub host_load_bytes: u64,
}

/// Per-partition aggregate — the "heat" ranking of [`TrafficReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PartitionHeat {
    /// The partition.
    pub partition: u32,
    /// Bytes moved host→device for this partition.
    pub h2d_bytes: u64,
    /// Bytes moved device→host for this partition.
    pub d2h_bytes: u64,
    /// Stale-partition refresh bytes for this partition.
    pub reload_bytes: u64,
    /// Out-of-core decode bytes for this partition.
    pub host_load_bytes: u64,
}

/// Per-tag aggregate with the bytes-per-step intensity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct TagTraffic {
    /// The job tag ([`SHARED_TAG`] for shared traffic).
    pub tag: u32,
    /// Bytes moved host→device on this tag's behalf.
    pub h2d_bytes: u64,
    /// Bytes moved device→host on this tag's behalf.
    pub d2h_bytes: u64,
    /// Stale-partition refresh bytes on this tag's behalf.
    pub reload_bytes: u64,
    /// Out-of-core decode bytes on this tag's behalf.
    pub host_load_bytes: u64,
    /// Steps executed for this tag (0 for [`SHARED_TAG`]).
    pub steps: u64,
    /// Total bytes per executed step (0 when no steps ran).
    pub bytes_per_step: f64,
}

/// Pull-side summary of a [`TrafficLedger`]: totals, the top-K hottest
/// partitions, zero-copy savings, and per-tag traffic intensity.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TrafficReport {
    /// Total attributed bytes host→device.
    pub h2d_bytes: u64,
    /// Total attributed bytes device→host.
    pub d2h_bytes: u64,
    /// Total attributed stale-partition refresh bytes (mutation epochs).
    pub reload_bytes: u64,
    /// Total attributed out-of-core decode bytes (host tier).
    pub host_load_bytes: u64,
    /// Bytes actually moved by zero-copy kernel reads (cacheline-rounded,
    /// part of `h2d_bytes`).
    pub zero_copy_bytes: u64,
    /// Bytes an explicit partition load would have moved where a
    /// zero-copy kernel ran instead, minus the zero-copy bytes actually
    /// charged (saturating): the traffic the adaptive policy avoided.
    pub zero_copy_saved_bytes: u64,
    /// The hottest partitions by total bytes, descending (ties broken by
    /// ascending partition id), at most the requested K.
    pub hot_partitions: Vec<PartitionHeat>,
    /// Per-tag traffic in ascending tag order ([`SHARED_TAG`] last).
    pub tags: Vec<TagTraffic>,
}

/// The accumulating ledger. Plain `u64` arithmetic behind a `BTreeMap` —
/// writes happen on the engine's scheduler thread only, reads are
/// pull-side snapshots, so no interior mutability is needed.
///
/// Storage is keyed the way the write path charges: one copy touches one
/// `(partition, direction)` and splits across a handful of job tags.
/// Partition ids are small dense integers (the engine numbers them
/// 0..num_partitions), so the partition axis is a directly-indexed Vec
/// — a charge is one bounds check plus merges into a short sorted row
/// vec. The read side re-groups by tag, but reads are rare (reports,
/// scrapes) while writes ride the engine's copy path.
#[derive(Clone, Debug, Default)]
pub struct TrafficLedger {
    /// Indexed by partition: `[h2d rows, d2h rows, reload rows]`, each a
    /// sorted `(tag, bytes)` vec. Grown on first charge to a partition.
    cells: Vec<[Vec<(u32, u64)>; NUM_DIRECTIONS]>,
    /// Steps executed per tag (for bytes-per-step intensity).
    steps: BTreeMap<u32, u64>,
    /// Zero-copy bytes actually charged on the link.
    zero_copy_bytes: u64,
    /// Counterfactual bytes of the explicit loads that zero-copy kernels
    /// replaced.
    zero_copy_counterfactual_bytes: u64,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `bytes` to one cell.
    pub fn charge(&mut self, tag: u32, partition: u32, dir: TrafficDirection, bytes: u64) {
        if bytes == 0 {
            return;
        }
        Self::merge_row(self.cell_mut(partition, dir), tag, bytes);
    }

    /// Charge a pre-apportioned `(tag, bytes)` split against one
    /// partition and direction. An empty or all-zero split charges
    /// nothing.
    pub fn charge_rows(&mut self, partition: u32, dir: TrafficDirection, rows: &[(u32, u64)]) {
        if !rows.iter().any(|&(_, b)| b > 0) {
            return;
        }
        let cell = self.cell_mut(partition, dir);
        for &(tag, bytes) in rows {
            if bytes > 0 {
                Self::merge_row(cell, tag, bytes);
            }
        }
    }

    fn cell_mut(&mut self, partition: u32, dir: TrafficDirection) -> &mut Vec<(u32, u64)> {
        let p = partition as usize;
        if p >= self.cells.len() {
            self.cells.resize_with(p + 1, Default::default);
        }
        &mut self.cells[p][dir as usize]
    }

    fn merge_row(rows: &mut Vec<(u32, u64)>, tag: u32, bytes: u64) {
        match rows.binary_search_by_key(&tag, |&(t, _)| t) {
            Ok(i) => rows[i].1 += bytes,
            Err(i) => rows.insert(i, (tag, bytes)),
        }
    }

    /// Record `steps` executed steps for `tag`.
    pub fn add_steps(&mut self, tag: u32, steps: u64) {
        if steps == 0 {
            return;
        }
        *self.steps.entry(tag).or_insert(0) += steps;
    }

    /// Record one zero-copy kernel: `charged` bytes actually moved over
    /// the link vs the `counterfactual` bytes an explicit partition load
    /// would have cost.
    pub fn note_zero_copy(&mut self, charged: u64, counterfactual: u64) {
        self.zero_copy_bytes += charged;
        self.zero_copy_counterfactual_bytes += counterfactual;
    }

    /// Total attributed bytes host→device. Equals
    /// `GpuStats::h2d_bytes()` exactly when attribution is on.
    pub fn h2d_bytes(&self) -> u64 {
        self.direction_total(TrafficDirection::H2d)
    }

    /// Total attributed bytes device→host. Equals
    /// `GpuStats::d2h_bytes()` exactly when attribution is on.
    pub fn d2h_bytes(&self) -> u64 {
        self.direction_total(TrafficDirection::D2h)
    }

    /// Total attributed stale-partition refresh bytes. Equals
    /// `GpuStats::reload_bytes()` exactly when attribution is on.
    pub fn reload_bytes(&self) -> u64 {
        self.direction_total(TrafficDirection::Reload)
    }

    /// Total attributed out-of-core decode bytes. Equals the engine's
    /// `Metrics::host_decode_bytes` exactly when attribution is on — the
    /// host-tier arm of the exactness invariant.
    pub fn host_load_bytes(&self) -> u64 {
        self.direction_total(TrafficDirection::HostLoad)
    }

    fn direction_total(&self, dir: TrafficDirection) -> u64 {
        self.cells
            .iter()
            .flat_map(|per_dir| per_dir[dir as usize].iter().map(|&(_, b)| b))
            .sum()
    }

    /// Steps recorded for `tag`.
    pub fn steps(&self, tag: u32) -> u64 {
        self.steps.get(&tag).copied().unwrap_or(0)
    }

    /// Every non-empty cell, in `(tag, partition, direction)` order.
    pub fn cells(&self) -> impl Iterator<Item = TrafficCell> + '_ {
        // Re-group storage's (partition, direction) rows by (tag,
        // partition); the BTreeMap re-sort restores the emitted order.
        let mut out: BTreeMap<(u32, u32), TrafficCell> = BTreeMap::new();
        for (partition, per_dir) in self.cells.iter().enumerate() {
            for (di, rows) in per_dir.iter().enumerate() {
                for &(tag, bytes) in rows {
                    let cell = out.entry((tag, partition as u32)).or_insert(TrafficCell {
                        tag,
                        partition: partition as u32,
                        h2d_bytes: 0,
                        d2h_bytes: 0,
                        reload_bytes: 0,
                        host_load_bytes: 0,
                    });
                    match di {
                        d if d == TrafficDirection::H2d as usize => cell.h2d_bytes += bytes,
                        d if d == TrafficDirection::D2h as usize => cell.d2h_bytes += bytes,
                        d if d == TrafficDirection::Reload as usize => cell.reload_bytes += bytes,
                        _ => cell.host_load_bytes += bytes,
                    }
                }
            }
        }
        out.into_values().collect::<Vec<_>>().into_iter()
    }

    /// Summarize into a [`TrafficReport`] with at most `top_k` hot
    /// partitions.
    pub fn report(&self, top_k: usize) -> TrafficReport {
        let mut by_partition: BTreeMap<u32, [u64; NUM_DIRECTIONS]> = BTreeMap::new();
        let mut by_tag: BTreeMap<u32, [u64; NUM_DIRECTIONS]> = BTreeMap::new();
        for (partition, per_dir) in self.cells.iter().enumerate() {
            for (di, rows) in per_dir.iter().enumerate() {
                for &(tag, bytes) in rows {
                    by_partition.entry(partition as u32).or_default()[di] += bytes;
                    by_tag.entry(tag).or_default()[di] += bytes;
                }
            }
        }
        let h2d = TrafficDirection::H2d as usize;
        let d2h = TrafficDirection::D2h as usize;
        let reload = TrafficDirection::Reload as usize;
        let host = TrafficDirection::HostLoad as usize;
        let mut hot: Vec<PartitionHeat> = by_partition
            .into_iter()
            .map(|(partition, b)| PartitionHeat {
                partition,
                h2d_bytes: b[h2d],
                d2h_bytes: b[d2h],
                reload_bytes: b[reload],
                host_load_bytes: b[host],
            })
            .collect();
        // Descending by total bytes; the BTreeMap iteration already
        // ordered equal totals by ascending partition id and the sort is
        // stable, so ties stay deterministic.
        hot.sort_by_key(|h| {
            std::cmp::Reverse(h.h2d_bytes + h.d2h_bytes + h.reload_bytes + h.host_load_bytes)
        });
        hot.truncate(top_k);
        // Tags that executed steps but moved no attributable bytes (pure
        // zero-copy residents) still deserve a row.
        for &tag in self.steps.keys() {
            by_tag.entry(tag).or_default();
        }
        let tags: Vec<TagTraffic> = by_tag
            .into_iter()
            .map(|(tag, b)| {
                let steps = self.steps(tag);
                TagTraffic {
                    tag,
                    h2d_bytes: b[h2d],
                    d2h_bytes: b[d2h],
                    reload_bytes: b[reload],
                    host_load_bytes: b[host],
                    steps,
                    // Intensity stays a steady-state *link* metric: reload
                    // bytes are epoch-driven and host-load bytes never
                    // cross the link, so neither contributes.
                    bytes_per_step: if steps == 0 {
                        0.0
                    } else {
                        (b[h2d] + b[d2h]) as f64 / steps as f64
                    },
                }
            })
            .collect();
        TrafficReport {
            h2d_bytes: self.h2d_bytes(),
            d2h_bytes: self.d2h_bytes(),
            reload_bytes: self.reload_bytes(),
            host_load_bytes: self.host_load_bytes(),
            zero_copy_bytes: self.zero_copy_bytes,
            zero_copy_saved_bytes: self
                .zero_copy_counterfactual_bytes
                .saturating_sub(self.zero_copy_bytes),
            hot_partitions: hot,
            tags,
        }
    }
}

/// Split `total` across `weights` proportionally with the
/// largest-remainder method, so the returned rows sum to `total`
/// *exactly* (the ledger's equality invariant tolerates no rounding
/// drift). Zero-weight entries get zero; an all-zero or empty weight set
/// returns the whole total on the first entry (or an empty vec when
/// there are no entries at all).
pub fn apportion_exact(total: u64, weights: &[(u32, u64)]) -> Vec<(u32, u64)> {
    if weights.is_empty() || total == 0 {
        return weights.iter().map(|&(t, _)| (t, 0)).collect();
    }
    let sum: u64 = weights.iter().map(|&(_, w)| w).sum();
    if sum == 0 {
        let mut rows: Vec<(u32, u64)> = weights.iter().map(|&(t, _)| (t, 0)).collect();
        rows[0].1 = total;
        return rows;
    }
    // Integer floor shares plus the K largest remainders get +1, where K
    // is the undistributed remainder. u128 keeps total*weight exact.
    let mut rows: Vec<(u32, u64)> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut distributed: u64 = 0;
    for (i, &(tag, w)) in weights.iter().enumerate() {
        let exact = total as u128 * w as u128;
        let share = (exact / sum as u128) as u64;
        remainders.push((exact % sum as u128, i));
        rows.push((tag, share));
        distributed += share;
    }
    let mut leftover = total - distributed;
    // Largest remainder first; ties broken by input position for
    // determinism.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter() {
        if leftover == 0 {
            break;
        }
        rows[i].1 += 1;
        leftover -= 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_cell_and_direction() {
        let mut l = TrafficLedger::new();
        l.charge(0, 2, TrafficDirection::H2d, 100);
        l.charge(0, 2, TrafficDirection::H2d, 50);
        l.charge(0, 2, TrafficDirection::D2h, 30);
        l.charge(1, 2, TrafficDirection::H2d, 7);
        l.charge(SHARED_TAG, 0, TrafficDirection::H2d, 1000);
        l.charge(0, 3, TrafficDirection::H2d, 0); // no-op
        assert_eq!(l.h2d_bytes(), 1157);
        assert_eq!(l.d2h_bytes(), 30);
        let cells: Vec<TrafficCell> = l.cells().collect();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].tag, 0);
        assert_eq!(cells[0].h2d_bytes, 150);
        assert_eq!(cells[0].d2h_bytes, 30);
        assert_eq!(cells[2].tag, SHARED_TAG);
    }

    #[test]
    fn report_ranks_partitions_and_computes_intensity() {
        let mut l = TrafficLedger::new();
        l.charge(0, 0, TrafficDirection::H2d, 10);
        l.charge(0, 1, TrafficDirection::H2d, 500);
        l.charge(1, 1, TrafficDirection::D2h, 500);
        l.charge(1, 2, TrafficDirection::H2d, 100);
        l.add_steps(0, 10);
        l.add_steps(1, 50);
        l.add_steps(9, 3); // steps without bytes still get a row
        l.note_zero_copy(64, 4096);
        let r = l.report(2);
        assert_eq!(r.h2d_bytes, 610);
        assert_eq!(r.d2h_bytes, 500);
        assert_eq!(r.zero_copy_bytes, 64);
        assert_eq!(r.zero_copy_saved_bytes, 4032);
        assert_eq!(r.hot_partitions.len(), 2);
        assert_eq!(r.hot_partitions[0].partition, 1);
        assert_eq!(
            r.hot_partitions[0].h2d_bytes + r.hot_partitions[0].d2h_bytes,
            1000
        );
        assert_eq!(r.hot_partitions[1].partition, 2);
        assert_eq!(r.tags.len(), 3);
        assert_eq!(r.tags[0].tag, 0);
        assert!((r.tags[0].bytes_per_step - 51.0).abs() < 1e-12);
        assert_eq!(r.tags[1].steps, 50);
        assert_eq!(r.tags[2].tag, 9);
        assert_eq!(r.tags[2].bytes_per_step, 0.0);
        // Report totals always equal the ledger's direction sums.
        let cell_sum: u64 = l.cells().map(|c| c.h2d_bytes + c.d2h_bytes).sum();
        assert_eq!(cell_sum, r.h2d_bytes + r.d2h_bytes);
    }

    #[test]
    fn reload_direction_is_a_separate_axis() {
        let mut l = TrafficLedger::new();
        l.charge(SHARED_TAG, 1, TrafficDirection::H2d, 100);
        l.charge(SHARED_TAG, 1, TrafficDirection::Reload, 40);
        l.charge(SHARED_TAG, 2, TrafficDirection::Reload, 60);
        // Reload bytes never leak into the steady-state direction totals.
        assert_eq!(l.h2d_bytes(), 100);
        assert_eq!(l.d2h_bytes(), 0);
        assert_eq!(l.reload_bytes(), 100);
        let cells: Vec<TrafficCell> = l.cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].reload_bytes, 40);
        assert_eq!(cells[0].h2d_bytes, 100);
        assert_eq!(cells[1].reload_bytes, 60);
        let r = l.report(4);
        assert_eq!(r.reload_bytes, 100);
        assert_eq!(r.h2d_bytes, 100);
        let p1 = r.hot_partitions.iter().find(|h| h.partition == 1).unwrap();
        assert_eq!((p1.h2d_bytes, p1.reload_bytes), (100, 40));
        assert_eq!(r.tags[0].reload_bytes, 100);
        assert_eq!(TrafficDirection::Reload.label(), "reload");
    }

    #[test]
    fn host_load_direction_is_a_host_tier_axis() {
        let mut l = TrafficLedger::new();
        l.charge(SHARED_TAG, 0, TrafficDirection::H2d, 100);
        l.charge(SHARED_TAG, 0, TrafficDirection::HostLoad, 400);
        l.charge(SHARED_TAG, 3, TrafficDirection::HostLoad, 50);
        // Host-tier decode bytes never leak into link totals.
        assert_eq!(l.h2d_bytes(), 100);
        assert_eq!(l.d2h_bytes(), 0);
        assert_eq!(l.reload_bytes(), 0);
        assert_eq!(l.host_load_bytes(), 450);
        let cells: Vec<TrafficCell> = l.cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].host_load_bytes, 400);
        assert_eq!(cells[0].h2d_bytes, 100);
        assert_eq!(cells[1].host_load_bytes, 50);
        let r = l.report(4);
        assert_eq!(r.host_load_bytes, 450);
        assert_eq!(r.h2d_bytes, 100);
        // Hot ranking counts the host tier (partition 0 = 500 total).
        assert_eq!(r.hot_partitions[0].partition, 0);
        assert_eq!(r.hot_partitions[0].host_load_bytes, 400);
        l.add_steps(SHARED_TAG, 10);
        let r = l.report(4);
        // bytes_per_step is link-only: 100 / 10, host-load excluded.
        assert!((r.tags[0].bytes_per_step - 10.0).abs() < 1e-12);
        assert_eq!(TrafficDirection::HostLoad.label(), "host_load");
    }

    #[test]
    fn apportion_is_exact_for_awkward_splits() {
        // 100 bytes over weights 1:1:1 — 34/33/33, sum exact.
        let rows = apportion_exact(100, &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 100);
        assert_eq!(rows[0].1, 34);
        // Huge totals don't overflow.
        let rows = apportion_exact(u64::MAX / 2, &[(0, 3), (1, 7)]);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), u64::MAX / 2);
        // Zero weights take nothing while others split everything.
        let rows = apportion_exact(10, &[(0, 0), (1, 5)]);
        assert_eq!(rows, vec![(0, 0), (1, 10)]);
        // All-zero weights: first entry absorbs the total.
        let rows = apportion_exact(10, &[(4, 0), (5, 0)]);
        assert_eq!(rows, vec![(4, 10), (5, 0)]);
        // Empty weights stay empty; zero totals charge nothing.
        assert!(apportion_exact(10, &[]).is_empty());
        assert_eq!(apportion_exact(0, &[(1, 5)]), vec![(1, 0)]);
    }

    #[test]
    fn apportion_tracks_proportions() {
        let rows = apportion_exact(1000, &[(0, 900), (1, 100)]);
        assert_eq!(rows, vec![(0, 900), (1, 100)]);
        let rows = apportion_exact(7, &[(0, 2), (1, 1)]);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 7);
        assert!(rows[0].1 >= rows[1].1);
    }
}

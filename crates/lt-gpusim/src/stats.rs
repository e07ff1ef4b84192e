//! Categorized accounting of simulated time and traffic.
//!
//! Figures 15 and 17 of the paper break total running time into graph
//! loading, walk loading, zero copy, walk eviction, and walk computing
//! (itself split into updating and reshuffling); Table I breaks a baseline
//! into computation / transmission / subgraph creation. Every simulated op
//! carries a [`Category`] so those breakdowns fall out of the stats
//! directly.

use crate::cost::Nanos;
use serde::{Deserialize, Serialize};

/// What an op was doing, for time breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Explicit copy of a graph partition into the graph pool.
    GraphLoad,
    /// Refresh copy of a stale (mutated) partition already resident in
    /// the graph pool — the mutation-induced reload traffic an evolving
    /// graph adds on top of steady-state loads (DESIGN.md §15).
    GraphReload,
    /// Explicit copy of a walk batch into the walk pool.
    WalkLoad,
    /// Eviction copy of a walk batch back to host memory.
    WalkEvict,
    /// Kernel execution on resident data.
    Compute,
    /// Kernel execution reading the graph via zero copy.
    ZeroCopy,
    /// Host-side work charged with [`crate::Gpu::host_advance`]
    /// (e.g. active-subgraph generation in the Subway-like baseline).
    HostWork,
    /// Anything else.
    Other,
}

impl Category {
    /// Short label for traces, events, and metric label values.
    pub fn name(self) -> &'static str {
        match self {
            Category::GraphLoad => "graph load",
            Category::GraphReload => "graph reload",
            Category::WalkLoad => "walk load",
            Category::WalkEvict => "walk evict",
            Category::Compute => "compute",
            Category::ZeroCopy => "zero copy",
            Category::HostWork => "host work",
            Category::Other => "other",
        }
    }

    /// Every category, in declaration order.
    pub const ALL: [Category; 8] = [
        Category::GraphLoad,
        Category::GraphReload,
        Category::WalkLoad,
        Category::WalkEvict,
        Category::Compute,
        Category::ZeroCopy,
        Category::HostWork,
        Category::Other,
    ];

    /// `name()` with underscores, for Prometheus label values.
    pub fn label(self) -> &'static str {
        match self {
            Category::GraphLoad => "graph_load",
            Category::GraphReload => "graph_reload",
            Category::WalkLoad => "walk_load",
            Category::WalkEvict => "walk_evict",
            Category::Compute => "compute",
            Category::ZeroCopy => "zero_copy",
            Category::HostWork => "host_work",
            Category::Other => "other",
        }
    }
}

/// Per-category accumulators.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CategoryStats {
    /// Sum of op durations (busy time, not wall time — ops in different
    /// categories overlap under the pipeline).
    pub busy_ns: Nanos,
    /// Bytes moved over the link by ops in this category.
    pub bytes: u64,
    /// Number of ops.
    pub count: u64,
}

/// Aggregated simulation statistics, readable at any point via
/// [`crate::Gpu::stats`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GpuStats {
    /// Graph partition loads.
    pub graph_load: CategoryStats,
    /// Stale-partition refresh copies after mutation epochs. `default`
    /// keeps snapshots serialized before evolving graphs deserializable.
    #[serde(default)]
    pub graph_reload: CategoryStats,
    /// Walk batch loads.
    pub walk_load: CategoryStats,
    /// Walk batch evictions.
    pub walk_evict: CategoryStats,
    /// Resident-data kernels.
    pub compute: CategoryStats,
    /// Zero-copy kernels (bytes = cacheline-rounded link traffic).
    pub zero_copy: CategoryStats,
    /// Host-side charged work.
    pub host_work: CategoryStats,
    /// Uncategorized ops.
    pub other: CategoryStats,
    /// Device time spent updating walks (across all kernels).
    pub kernel_update_ns: Nanos,
    /// Device time spent reshuffling walks (across all kernels).
    pub kernel_reshuffle_ns: Nanos,
    /// Device time spent on kernel overheads.
    pub kernel_other_ns: Nanos,
    /// Busy time of the host→device copy engine (includes zero-copy link
    /// reservations).
    pub h2d_busy_ns: Nanos,
    /// Busy time of the device→host copy engine.
    pub d2h_busy_ns: Nanos,
    /// Busy time of the compute engine.
    pub compute_busy_ns: Nanos,
    /// Completion time of the latest op so far (the makespan once the run
    /// drains).
    pub makespan_ns: Nanos,
    /// Faults injected by the configured [`crate::FaultPlan`] (copy
    /// failures, corrupted blocks, and straggler spikes all count).
    pub faults_injected: u64,
}

impl GpuStats {
    /// Accumulator for `cat`.
    pub fn category_mut(&mut self, cat: Category) -> &mut CategoryStats {
        match cat {
            Category::GraphLoad => &mut self.graph_load,
            Category::GraphReload => &mut self.graph_reload,
            Category::WalkLoad => &mut self.walk_load,
            Category::WalkEvict => &mut self.walk_evict,
            Category::Compute => &mut self.compute,
            Category::ZeroCopy => &mut self.zero_copy,
            Category::HostWork => &mut self.host_work,
            Category::Other => &mut self.other,
        }
    }

    /// Accumulator for `cat` (read-only).
    pub fn category(&self, cat: Category) -> &CategoryStats {
        match cat {
            Category::GraphLoad => &self.graph_load,
            Category::GraphReload => &self.graph_reload,
            Category::WalkLoad => &self.walk_load,
            Category::WalkEvict => &self.walk_evict,
            Category::Compute => &self.compute,
            Category::ZeroCopy => &self.zero_copy,
            Category::HostWork => &self.host_work,
            Category::Other => &self.other,
        }
    }

    /// Total bytes moved host→device (explicit graph + walk loads plus
    /// zero-copy traffic). Mutation-induced reload bytes are deliberately
    /// **not** folded in: this is the paper's steady-state traffic metric,
    /// and every downstream exactness check (ledger, wire scrape) sums
    /// these three categories. Reloads are broken out by
    /// [`GpuStats::reload_bytes`].
    pub fn h2d_bytes(&self) -> u64 {
        self.graph_load.bytes + self.walk_load.bytes + self.zero_copy.bytes
    }

    /// Total bytes moved device→host.
    pub fn d2h_bytes(&self) -> u64 {
        self.walk_evict.bytes
    }

    /// Bytes spent refreshing stale partitions after mutation epochs.
    pub fn reload_bytes(&self) -> u64 {
        self.graph_reload.bytes
    }

    /// Total transmission busy time (both directions + zero copy).
    pub fn transmission_ns(&self) -> Nanos {
        self.graph_load.busy_ns
            + self.graph_reload.busy_ns
            + self.walk_load.busy_ns
            + self.walk_evict.busy_ns
    }

    /// Total kernel busy time (resident + zero-copy kernels).
    pub fn computing_ns(&self) -> Nanos {
        self.compute.busy_ns + self.zero_copy.busy_ns
    }

    /// Publish this snapshot into a metric registry under `lt_gpu_*`
    /// names: per-category busy/bytes/ops series plus engine busy times,
    /// makespan, and injected-fault count. Values are `set`, not added —
    /// re-publishing a newer snapshot overwrites the older one.
    pub fn publish(&self, registry: &mut lt_telemetry::MetricRegistry) {
        for cat in Category::ALL {
            let s = self.category(cat);
            let labels = [("category", cat.label())];
            registry
                .counter(
                    "lt_gpu_busy_ns_total",
                    "Busy simulated time per op category",
                    &labels,
                )
                .set(s.busy_ns);
            registry
                .counter(
                    "lt_gpu_bytes_total",
                    "Bytes moved over the link per op category",
                    &labels,
                )
                .set(s.bytes);
            registry
                .counter("lt_gpu_ops_total", "Ops per category", &labels)
                .set(s.count);
        }
        for (name, ns) in [
            ("h2d", self.h2d_busy_ns),
            ("d2h", self.d2h_busy_ns),
            ("compute", self.compute_busy_ns),
        ] {
            registry
                .counter(
                    "lt_gpu_engine_busy_ns_total",
                    "Busy simulated time per engine",
                    &[("engine", name)],
                )
                .set(ns);
        }
        registry
            .counter(
                "lt_gpu_makespan_ns",
                "Completion time of the latest simulated op",
                &[],
            )
            .set(self.makespan_ns);
        registry
            .counter(
                "lt_gpu_faults_injected_total",
                "Faults injected by the configured plan",
                &[],
            )
            .set(self.faults_injected);
    }
}

//! Evolving-graph benchmark: reload traffic vs mutation rate and
//! mutation locality (DESIGN.md §15). Writes `results/BENCH_dynamic.json`.
//!
//! Three sections:
//!
//! 1. **Mutation-rate sweep** — per-epoch reload traffic under the
//!    `DirtyOnly` policy against a `FullRefresh` of the resident set,
//!    across mutation rates (fraction of |E| mutated per epoch). The
//!    evolving layer's whole point is that localized mutations re-copy
//!    only stale partitions; at low rates dirty reloads must move a small
//!    fraction of a full refresh, converging toward it as the rate grows.
//! 2. **Policy equivalence** — walk trajectories are asserted identical
//!    between the two reload policies at every rate: the policy may only
//!    change traffic, never results.
//! 3. **Mutation-locality sweep** — the same comparison at a fixed rate
//!    with the update stream's locality window swept from uniform down
//!    to 1/256 of the vertex space.
//!
//! Accepts `--scale N` (extra shrink shift), `--seed N`, and `--smoke`
//! (CI gate: at a 1% mutation rate, dirty-partition reloads must move
//! strictly fewer bytes than whole-resident-set refreshes; exits non-zero
//! otherwise, writes no JSON).

use lt_engine::algorithm::UniformSampling;
use lt_engine::{EngineConfig, LightTraffic, ReloadPolicy, RunStatus, Session};
use lt_graph::gen::{locality_mutations, rmat, RmatParams};
use lt_graph::Csr;
use serde_json::json;
use std::sync::Arc;

const EPOCHS: usize = 6;

/// The locality used everywhere a sweep is *not* varying it: a per-epoch
/// window of 1/16 of the vertex space (see
/// [`lt_graph::gen::locality_mutations`]) — update streams cluster
/// spatially, and that locality is exactly what dirty-partition
/// invalidation converts into saved traffic.
const DEFAULT_LOCALITY: f64 = 1.0 / 16.0;

fn config(partition_bytes: u64, seed: u64, policy: ReloadPolicy) -> EngineConfig {
    EngineConfig {
        seed,
        reload_policy: policy,
        ..EngineConfig::light_traffic(partition_bytes, 4)
    }
}

fn drain(s: &mut Session) {
    match s.step(u64::MAX).expect("wave completes") {
        RunStatus::Completed(_) => {}
        other => unreachable!("unbounded step cannot pause: {other:?}"),
    }
}

struct EpochRun {
    reload_bytes: u64,
    reloaded_partitions: u64,
    dirty_partitions: u64,
    /// Total steps after all waves — the walk-output fingerprint (the
    /// full trajectory check lives in the differential battery; a bench
    /// only needs a cheap invariant).
    total_steps: u64,
}

/// Run `EPOCHS` waves of walks, sealing `per_epoch` mutations between
/// waves, and accumulate reload traffic.
fn run_epochs(
    g: &Arc<Csr>,
    cfg: EngineConfig,
    walks: u64,
    per_epoch: u64,
    locality: f64,
    seed: u64,
) -> EpochRun {
    let mut s = LightTraffic::session(g.clone(), Arc::new(UniformSampling::new(8)), cfg)
        .expect("pools fit");
    let mut state = seed | 1;
    let mut out = EpochRun {
        reload_bytes: 0,
        reloaded_partitions: 0,
        dirty_partitions: 0,
        total_steps: 0,
    };
    for _ in 0..EPOCHS {
        s.inject_walks(walks);
        drain(&mut s);
        s.mutate(locality_mutations(g, per_epoch, locality, &mut state))
            .expect("schedule is valid");
        let summary = s.seal_epoch().expect("seal succeeds");
        out.reload_bytes += summary.reload_bytes;
        out.reloaded_partitions += summary.reloaded_partitions;
        out.dirty_partitions += summary.dirty_partitions;
    }
    out.total_steps = s.engine().metrics().total_steps;
    out
}

fn main() {
    let (shift, seed, flags) = lt_bench::parse_args_with_flags(&["--smoke"]);
    let smoke = flags[0];
    let scale = if smoke {
        10u32
    } else {
        12u32.saturating_sub(shift)
    };
    let g = Arc::new(
        rmat(RmatParams {
            scale,
            edge_factor: 12,
            seed,
            ..RmatParams::default()
        })
        .csr,
    );
    let partition_bytes = (g.csr_bytes() / 12).next_multiple_of(4096).max(4096);
    let walks = g.num_vertices() / 2;
    println!(
        "bench_dynamic: rmat scale {scale} (|V| = {}, |E| = {}), {walks} walks/wave, {EPOCHS} epochs",
        g.num_vertices(),
        g.num_edges()
    );

    if smoke {
        let per_epoch = (g.num_edges() / 100).max(1); // 1% of edges per epoch
        let dirty = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::DirtyOnly),
            walks,
            per_epoch,
            DEFAULT_LOCALITY,
            seed,
        );
        let full = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::FullRefresh),
            walks,
            per_epoch,
            DEFAULT_LOCALITY,
            seed,
        );
        assert_eq!(
            dirty.total_steps, full.total_steps,
            "reload policy changed walk output"
        );
        println!(
            "smoke (1% mutations/epoch): dirty {} B vs full {} B over {EPOCHS} epochs",
            dirty.reload_bytes, full.reload_bytes
        );
        if dirty.reload_bytes >= full.reload_bytes {
            eprintln!(
                "FAIL: dirty-partition reloads ({} B) do not undercut whole-set refreshes ({} B) \
                 at a 1% mutation rate",
                dirty.reload_bytes, full.reload_bytes
            );
            std::process::exit(1);
        }
        return;
    }

    // --- Section 1: mutation-rate sweep ---------------------------------
    println!(
        "{:>12} {:>10} {:>14} {:>14} {:>8}",
        "rate", "upd/epoch", "dirty (B)", "full (B)", "ratio"
    );
    let mut rate_rows = Vec::new();
    for &rate in &[0.0001f64, 0.001, 0.01, 0.05, 0.2] {
        let per_epoch = ((g.num_edges() as f64 * rate) as u64).max(1);
        let dirty = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::DirtyOnly),
            walks,
            per_epoch,
            DEFAULT_LOCALITY,
            seed,
        );
        let full = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::FullRefresh),
            walks,
            per_epoch,
            DEFAULT_LOCALITY,
            seed,
        );
        // Section 2 inline: the policy may only change traffic.
        assert_eq!(
            dirty.total_steps, full.total_steps,
            "reload policy changed walk output at rate {rate}"
        );
        let ratio = dirty.reload_bytes as f64 / full.reload_bytes.max(1) as f64;
        println!(
            "{rate:>12} {per_epoch:>10} {:>14} {:>14} {ratio:>8.3}",
            dirty.reload_bytes, full.reload_bytes
        );
        if rate <= 0.01 {
            assert!(
                dirty.reload_bytes < full.reload_bytes,
                "dirty reloads must undercut full refreshes at rate {rate}"
            );
        }
        rate_rows.push(json!({
            "mutation_rate": rate,
            "updates_per_epoch": per_epoch,
            "epochs": EPOCHS,
            "dirty_reload_bytes": dirty.reload_bytes,
            "dirty_reloaded_partitions": dirty.reloaded_partitions,
            "dirty_partitions": dirty.dirty_partitions,
            "full_reload_bytes": full.reload_bytes,
            "full_reloaded_partitions": full.reloaded_partitions,
            "dirty_to_full_ratio": ratio,
        }));
    }

    // --- Section 3: mutation-locality sweep -----------------------------
    // Fixed 1% mutation rate, locality window swept from fully uniform
    // (frac 1.0) down to 1/256 of the vertex space. Tighter windows dirty
    // fewer partitions, so `DirtyOnly` reload traffic must shrink —
    // this is the axis that quantifies *how much* update-stream locality
    // the dirty-partition machinery converts into saved link bytes.
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>8}",
        "locality", "dirty parts", "dirty (B)", "full (B)", "ratio"
    );
    let mut locality_rows = Vec::new();
    let per_epoch = (g.num_edges() / 100).max(1);
    let mut uniform_dirty_bytes = None;
    for &frac in &[1.0f64, 0.25, 1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0] {
        let dirty = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::DirtyOnly),
            walks,
            per_epoch,
            frac,
            seed,
        );
        let full = run_epochs(
            &g,
            config(partition_bytes, seed, ReloadPolicy::FullRefresh),
            walks,
            per_epoch,
            frac,
            seed,
        );
        assert_eq!(
            dirty.total_steps, full.total_steps,
            "reload policy changed walk output at locality {frac}"
        );
        if frac >= 1.0 {
            uniform_dirty_bytes = Some(dirty.reload_bytes);
        }
        let ratio = dirty.reload_bytes as f64 / full.reload_bytes.max(1) as f64;
        println!(
            "{frac:>12.4} {:>12} {:>14} {:>14} {ratio:>8.3}",
            dirty.dirty_partitions, dirty.reload_bytes, full.reload_bytes
        );
        locality_rows.push(json!({
            "locality_window_frac": frac,
            "updates_per_epoch": per_epoch,
            "dirty_partitions": dirty.dirty_partitions,
            "dirty_reload_bytes": dirty.reload_bytes,
            "full_reload_bytes": full.reload_bytes,
            "dirty_to_full_ratio": ratio,
        }));
    }
    let tightest = locality_rows
        .last()
        .and_then(|r| r["dirty_reload_bytes"].as_u64())
        .expect("sweep ran");
    assert!(
        tightest < uniform_dirty_bytes.expect("uniform point ran"),
        "a 1/256 locality window must reload fewer bytes than a uniform stream"
    );

    lt_bench::save_json(
        "BENCH_dynamic",
        &json!({
            "graph": { "scale": scale, "vertices": g.num_vertices(), "edges": g.num_edges() },
            "walks_per_wave": walks,
            "epochs": EPOCHS,
            "mutation_rate_sweep": rate_rows,
            "mutation_locality_sweep": locality_rows,
        }),
    );
}

//! The result schema: what a child process reports for one workload,
//! and the stamped set the parent writes to `benchmark/results/`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One correctness check and its outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one workload run produced. Children print this as one JSON
/// line; the parent fills `prepare_s` and appends its own checks.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    /// Per-layer spans and counters were recorded.
    pub traced: bool,
    /// Operations attempted: walks injected, or jobs submitted.
    pub attempted: u64,
    pub failed: u64,
    /// Complete inject-to-finish rounds (library) or jobs (serve_tcp).
    pub rounds: u64,
    /// Host wall of the measured phase, all rounds.
    pub run_wall_s: f64,
    /// The percentile `job_p95_ms` actually reports: 95 only when at
    /// least ten latency samples lie beyond it.
    pub tail_percentile: f64,
    /// Untimed input generation for this workload (parent side).
    pub prepare_s: f64,
    pub end_to_end: BTreeMap<String, f64>,
    /// Empty on the untraced pass.
    pub per_layer: BTreeMap<String, f64>,
    /// Counters that repeat to the last digit for a given seed: every
    /// deterministic `Metrics` field and every `GpuStats` field.
    pub deterministic: BTreeMap<String, u64>,
    pub checks: Vec<Check>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// First key on which two counter maps differ, as a message; keys in
/// `skip` are not compared.
pub fn first_difference(
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
    skip: &[&str],
) -> Option<String> {
    a.keys()
        .chain(b.keys())
        .filter(|k| !skip.contains(&k.as_str()))
        .find(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
}

/// Where and how a result set was measured.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EnvStamp {
    pub git_commit: String,
    pub rustc: String,
    pub host_cpus: u64,
    /// What `kernel_threads: 0` resolves to on this machine.
    pub kernel_threads: u64,
    pub cpufreq_governor: String,
    pub seed: u64,
    pub seconds: f64,
    pub harness_version: u32,
    pub page_cache: String,
}

/// One harness invocation: a stamp and one result per workload.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// `run` or `trace`.
    pub mode: String,
    pub smoke: bool,
    /// False when the numbers must not be used as a baseline (one CPU,
    /// or smoke sizes).
    pub counts: bool,
    pub stamp: EnvStamp,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ResultSet {
        let mut w = WorkloadResult {
            workload: "deepwalk_ram".into(),
            traced: true,
            attempted: 695_824,
            failed: 0,
            rounds: 2,
            run_wall_s: 16.512_345_678,
            tail_percentile: 50.0,
            prepare_s: 1.9,
            ..Default::default()
        };
        w.end_to_end
            .insert("steps_per_s".into(), 6_711_473.123_456_789);
        w.end_to_end.insert("failed_frac".into(), 0.0);
        w.per_layer.insert("engine.unattributed_s".into(), -0.012_5);
        w.deterministic
            .insert("gpusim.makespan_ns".into(), u64::MAX - 7);
        w.checks
            .push(Check::new("walks_finished", true, "695824 of 695824"));
        ResultSet {
            mode: "trace".into(),
            smoke: false,
            counts: true,
            stamp: EnvStamp {
                git_commit: "7cbdf27".into(),
                rustc: "rustc 1.80.0".into(),
                host_cpus: 2,
                kernel_threads: 2,
                cpufreq_governor: "unreadable".into(),
                seed: 42,
                seconds: 10.0,
                harness_version: 1,
                page_cache: "warm".into(),
            },
            workloads: vec![w],
        }
    }

    #[test]
    fn result_schema_round_trips_exactly() {
        let set = sample_set();
        for text in [
            serde_json::to_string(&set).unwrap(),
            serde_json::to_string_pretty(&set).unwrap(),
        ] {
            let back: ResultSet = serde_json::from_str(&text).unwrap();
            // Floats print in shortest round-trip form and u64 counters
            // stay integers, so equality is bit-for-bit.
            assert_eq!(back, set);
        }
        assert!(set.workloads[0].correct());
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_result_incorrect() {
        let mut w = sample_set().workloads.remove(0);
        w.checks
            .push(Check::new("ooc_matches_ram", false, "makespan differs"));
        assert!(!w.correct());
        w.checks.pop();
        w.failed = 1;
        assert!(!w.correct());
    }
}

//! `compare A.json B.json`: is result set B no worse than A, metric by
//! metric, within the bounds `spec.rs` fixes? Also how "two sets of runs
//! of the same commit agree" is shown.

use crate::result::{first_difference, ResultSet};
use crate::spec::{workload, Better, Exact, END_TO_END};
use std::fmt::Write;

/// The report text and whether every row passed.
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    if a.stamp.harness_version != b.stamp.harness_version || a.smoke != b.smoke {
        let _ = writeln!(
            out,
            "REFUSED: harness version {} (smoke {}) vs {} (smoke {}): metric definitions differ",
            a.stamp.harness_version, a.smoke, b.stamp.harness_version, b.smoke
        );
        return (out, false);
    }
    // Exact metrics are functions of the seed: only equal seeds can match.
    let same_seed = a.stamp.seed == b.stamp.seed;
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            let _ = writeln!(out, "{:<18} missing from B", wa.workload);
            ok = false;
            continue;
        };
        let library = workload(&wa.workload).is_some_and(|w| w.kind.is_library());
        for m in &END_TO_END {
            let (Some(&va), Some(&vb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                let _ = writeln!(out, "{:<18} {:<20} missing", wa.workload, m.name);
                ok = false;
                continue;
            };
            let worse = match m.better {
                Better::Higher => va - vb,
                Better::Lower => vb - va,
            };
            let rel = if va != 0.0 { worse / va.abs() } else { worse };
            let exact = m.exact == Exact::Always || (m.exact == Exact::Library && library);
            let (bound, verdict) = if exact {
                let verdict = match (same_seed, va.to_bits() == vb.to_bits()) {
                    (false, _) => "skipped (seeds differ)",
                    (true, true) => "ok (exact)",
                    (true, false) => "BREACH (must match to the last digit)",
                };
                ("exact".to_string(), verdict)
            } else if m.exact == Exact::Library {
                (
                    "none".to_string(),
                    "reported (tenant interleaving decides it)",
                )
            } else {
                let allowed = m.bound * va.abs() + m.abs_slack;
                (
                    format!("{:.0}%", m.bound * 100.0),
                    if worse > allowed { "BREACH" } else { "ok" },
                )
            };
            ok &= !verdict.starts_with("BREACH");
            let _ = writeln!(
                out,
                "{:<18} {:<20} {:>16.6} {:>16.6} {:>8.2}% {:>8}  {verdict}",
                wa.workload,
                m.name,
                va,
                vb,
                rel * 100.0,
                bound
            );
        }
        if same_seed && !wa.deterministic.is_empty() && !wb.deterministic.is_empty() {
            match first_difference(&wa.deterministic, &wb.deterministic, &[]) {
                None => {
                    let _ = writeln!(
                        out,
                        "{:<18} {} gpusim.* and engine.* counters identical",
                        wa.workload,
                        wa.deterministic.len()
                    );
                }
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "{:<18} BREACH deterministic counter differs: {d}",
                        wa.workload
                    );
                    ok = false;
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if ok {
            "AGREE: every metric within its bound"
        } else {
            "DISAGREE"
        }
    );
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{EnvStamp, WorkloadResult};

    fn set(steps_per_s: f64, sim: f64, setup_s: f64) -> ResultSet {
        let mut w = WorkloadResult {
            workload: "deepwalk_ram".into(),
            ..Default::default()
        };
        for m in &END_TO_END {
            w.end_to_end.insert(m.name.into(), 1.0);
        }
        w.end_to_end.insert("steps_per_s".into(), steps_per_s);
        w.end_to_end.insert("sim_steps_per_s".into(), sim);
        w.end_to_end.insert("setup_s".into(), setup_s);
        w.end_to_end.insert("failed_frac".into(), 0.0);
        w.deterministic.insert("gpusim.makespan_ns".into(), 99);
        ResultSet {
            stamp: EnvStamp {
                harness_version: 1,
                seed: 42,
                ..Default::default()
            },
            workloads: vec![w],
            ..Default::default()
        }
    }

    #[test]
    fn within_bound_agrees_and_a_regression_breaches() {
        let a = set(1000.0, 5e8, 0.080);
        // 5 % slower and 40 ms more set-up (inside "25 % or 50 ms").
        assert!(compare(&a, &set(950.0, 5e8, 0.120)).1);
        // Faster is never a breach.
        assert!(compare(&a, &set(2000.0, 5e8, 0.010)).1);
        // 30 % slower is.
        let (text, ok) = compare(&a, &set(700.0, 5e8, 0.080));
        assert!(!ok && text.contains("BREACH"), "{text}");
        // Set-up beyond bound and slack is.
        assert!(!compare(&a, &set(1000.0, 5e8, 0.200)).1);
    }

    #[test]
    fn exact_metrics_must_match_to_the_last_digit() {
        let a = set(1000.0, 247_789_765.123_456_7, 0.08);
        assert!(compare(&a, &a.clone()).1);
        let (text, ok) = compare(&a, &set(1000.0, 247_789_765.123_456_8, 0.08));
        assert!(!ok && text.contains("last digit"), "{text}");
        // With different seeds exactness is not expected.
        let mut other = set(1000.0, 1.0, 0.08);
        other.stamp.seed = 43;
        assert!(compare(&a, &other).1);
    }

    #[test]
    fn simulated_metrics_are_only_reported_on_serve_tcp() {
        let served = |sim: f64, failed_frac: f64| {
            let mut s = set(1000.0, sim, 0.08);
            s.workloads[0].workload = "serve_tcp".into();
            s.workloads[0]
                .end_to_end
                .insert("failed_frac".into(), failed_frac);
            s
        };
        let (text, ok) = compare(&served(5.9e6, 0.0), &served(5.3e6, 0.0));
        assert!(ok && text.contains("reported"), "{text}");
        // A count stays exact on every workload.
        assert!(!compare(&served(5.9e6, 0.0), &served(5.9e6, 0.01)).1);
    }

    #[test]
    fn deterministic_counters_and_definitions_are_checked() {
        let a = set(1000.0, 5e8, 0.08);
        let mut b = a.clone();
        b.workloads[0]
            .deterministic
            .insert("gpusim.makespan_ns".into(), 100);
        assert!(!compare(&a, &b).1);
        let mut v2 = a.clone();
        v2.stamp.harness_version = 2;
        assert!(!compare(&a, &v2).1);
        let mut missing = a.clone();
        missing.workloads.clear();
        assert!(!compare(&a, &missing).1);
    }
}

//! Per-job phase spans and the bounded flight recorder.
//!
//! Every job served by the multi-tenant scheduler gets a [`JobTrace`]: a
//! deterministic trace id plus a causally-ordered sequence of
//! [`SpanRecord`] phase transitions (submitted → queued → admitted →
//! running → blocked → resumed → done/evicted). Each record carries
//! *three* clocks:
//!
//! - `step_clock` — the job's own logical clock (cumulative steps
//!   executed for the job at the transition). Schedule-invariant: the
//!   serving layer's determinism contract makes a job's step totals
//!   independent of what other tenants run.
//! - `sim_ns` — the engine's simulated clock at the transition. From the
//!   job's perspective this is a wall clock: other tenants advance it, so
//!   it is *masked* in the canonical form alongside `host_ns`.
//! - `host_ns` — host wall time, for real-world latency breakdowns.
//!
//! The canonical form ([`JobTrace::canonical_jsonl`]) keeps
//! `seq`/`phase`/`step_clock`/`detail` only; the serving proptests assert
//! it is bit-identical for a job run multiplexed vs alone.
//!
//! The trace doubles as the **flight recorder**: a bounded ring of the
//! most recent spans (older records drop, counted in `dropped`), dumped
//! as JSONL ([`JobTrace::flight_record_jsonl`]) when a job faults, is
//! evicted, or parks on budget exhaustion — `lightwalk inspect` renders
//! the dump as a latency/traffic breakdown table.

use serde_json::json;
use std::collections::VecDeque;

/// A job lifecycle phase (the span taxonomy of DESIGN.md §14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted by the scheduler.
    Submitted,
    /// Waiting for first admission.
    Queued,
    /// First walkers handed to the engine.
    Admitted,
    /// Executing (or eligible to execute) inside the engine.
    Running,
    /// Parked: budget exhaustion, explicit suspend, or engine fault.
    Blocked,
    /// Un-parked after a block.
    Resumed,
    /// Every walk retired; the result is final.
    Done,
    /// Cancelled or expelled; partial results remain.
    Evicted,
}

impl JobPhase {
    /// Stable lowercase name used in events, JSONL, and Chrome tracks.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Submitted => "submitted",
            JobPhase::Queued => "queued",
            JobPhase::Admitted => "admitted",
            JobPhase::Running => "running",
            JobPhase::Blocked => "blocked",
            JobPhase::Resumed => "resumed",
            JobPhase::Done => "done",
            JobPhase::Evicted => "evicted",
        }
    }

    /// Parse the stable name back (for `lightwalk inspect`).
    pub fn parse(s: &str) -> Option<JobPhase> {
        Some(match s {
            "submitted" => JobPhase::Submitted,
            "queued" => JobPhase::Queued,
            "admitted" => JobPhase::Admitted,
            "running" => JobPhase::Running,
            "blocked" => JobPhase::Blocked,
            "resumed" => JobPhase::Resumed,
            "done" => JobPhase::Done,
            "evicted" => JobPhase::Evicted,
            _ => return None,
        })
    }
}

/// One phase transition of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Per-job sequence number, assigned at record time (monotonic even
    /// across ring drops).
    pub seq: u64,
    /// The phase entered.
    pub phase: JobPhase,
    /// Cumulative steps executed for the job at this transition
    /// (schedule-invariant logical clock).
    pub step_clock: u64,
    /// Engine simulated clock at the transition (wall-like for the job:
    /// masked in the canonical form).
    pub sim_ns: u64,
    /// Host wall clock at the transition (masked in the canonical form).
    pub host_ns: u64,
    /// Free-form payload: block reason, finished count, etc.
    pub detail: String,
}

/// Per-job span store: identity, a bounded ring of recent spans, and the
/// serializers for the canonical / flight-record forms.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// Job id (the scheduler's slot index).
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Deterministic trace id (a pure function of engine seed and job
    /// tag, so multiplexed and isolated runs agree).
    pub trace_id: u64,
    capacity: usize,
    spans: VecDeque<SpanRecord>,
    dropped: u64,
    next_seq: u64,
}

impl JobTrace {
    /// A fresh trace retaining at most `capacity` recent spans
    /// (minimum 1).
    pub fn new(job: u64, tenant: &str, trace_id: u64, capacity: usize) -> Self {
        JobTrace {
            job,
            tenant: tenant.to_string(),
            trace_id,
            capacity: capacity.max(1),
            spans: VecDeque::new(),
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Record a phase transition. Oldest spans fall out of the ring once
    /// `capacity` is exceeded; `seq` keeps counting so drops are visible.
    pub fn record(
        &mut self,
        phase: JobPhase,
        step_clock: u64,
        sim_ns: u64,
        host_ns: u64,
        detail: impl Into<String>,
    ) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanRecord {
            seq: self.next_seq,
            phase,
            step_clock,
            sim_ns,
            host_ns,
            detail: detail.into(),
        });
        self.next_seq += 1;
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// The most recent span.
    pub fn last(&self) -> Option<&SpanRecord> {
        self.spans.back()
    }

    /// Spans dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total transitions recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The canonical, fully deterministic serialization: both wall-like
    /// clocks (`host_ns` *and* the engine `sim_ns`) are masked, leaving
    /// `seq`/`phase`/`step_clock`/`detail`. Bit-identical for a job run
    /// multiplexed with other tenants vs alone (given equal budgets) —
    /// the telemetry extension of the serving determinism contract.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(
                &json!({
                    "seq": s.seq,
                    "phase": s.phase.as_str(),
                    "step_clock": s.step_clock,
                    "detail": s.detail,
                })
                .to_string(),
            );
            out.push('\n');
        }
        out
    }

    /// The flight-record dump: one `meta` line, one `span` line per
    /// retained record (all clocks included), and one `traffic` line per
    /// attributed `(partition, direction, bytes)` row for this job.
    pub fn flight_record_jsonl(&self, reason: &str, traffic: &[(u32, &str, u64)]) -> String {
        let mut out = String::new();
        out.push_str(
            &json!({
                "kind": "meta",
                "job": self.job,
                "tenant": self.tenant,
                "trace_id": format!("{:016x}", self.trace_id),
                "reason": reason,
                "spans": self.spans.len(),
                "dropped": self.dropped,
            })
            .to_string(),
        );
        out.push('\n');
        for s in &self.spans {
            out.push_str(
                &json!({
                    "kind": "span",
                    "seq": s.seq,
                    "phase": s.phase.as_str(),
                    "step_clock": s.step_clock,
                    "sim_ns": s.sim_ns,
                    "host_ns": s.host_ns,
                    "detail": s.detail,
                })
                .to_string(),
            );
            out.push('\n');
        }
        for &(partition, direction, bytes) in traffic {
            out.push_str(
                &json!({
                    "kind": "traffic",
                    "partition": partition,
                    "direction": direction,
                    "bytes": bytes,
                })
                .to_string(),
            );
            out.push('\n');
        }
        out
    }
}

/// The deterministic trace-id derivation: splitmix64 over the engine
/// seed and the job tag. A pure function of `(seed, tag)`, so the same
/// submission order yields the same ids in every run, multiplexed or
/// isolated.
pub fn derive_trace_id(engine_seed: u64, tag: u32) -> u64 {
    let mut z = engine_seed
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add((tag as u64).wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_keeps_sequence() {
        let mut t = JobTrace::new(3, "acme", 0xabcd, 2);
        t.record(JobPhase::Submitted, 0, 10, 99, "");
        t.record(JobPhase::Queued, 0, 10, 100, "");
        t.record(JobPhase::Running, 5, 20, 120, "");
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.recorded(), 3);
        let seqs: Vec<u64> = t.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2], "oldest record fell out, seq continues");
        assert_eq!(t.last().unwrap().phase, JobPhase::Running);
    }

    #[test]
    fn canonical_form_masks_both_wall_clocks() {
        let mut a = JobTrace::new(0, "t", 1, 16);
        let mut b = JobTrace::new(0, "t", 1, 16);
        // Same logical history, wildly different sim/host clocks.
        a.record(JobPhase::Submitted, 0, 100, 5_000, "");
        b.record(JobPhase::Submitted, 0, 777_777, 9_999_999, "");
        a.record(JobPhase::Done, 42, 200, 6_000, "finished=7");
        b.record(JobPhase::Done, 42, 888_888, 10_000_000, "finished=7");
        assert_eq!(a.canonical_jsonl(), b.canonical_jsonl());
        assert!(a.canonical_jsonl().contains("\"phase\":\"done\""));
        assert!(!a.canonical_jsonl().contains("sim_ns"));
        assert!(!a.canonical_jsonl().contains("host_ns"));
    }

    #[test]
    fn flight_record_round_trips_as_jsonl() {
        let mut t = JobTrace::new(7, "acme", 0xdead, 8);
        t.record(JobPhase::Submitted, 0, 1, 2, "");
        t.record(
            JobPhase::Blocked,
            30,
            500,
            700,
            "tenant acme budget exhausted",
        );
        let dump = t.flight_record_jsonl("budget", &[(0, "h2d", 4096), (2, "d2h", 128)]);
        let lines: Vec<serde_json::Value> = dump
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0]["kind"], "meta");
        assert_eq!(lines[0]["job"].as_u64(), Some(7));
        assert_eq!(lines[0]["reason"], "budget");
        assert_eq!(lines[1]["kind"], "span");
        assert_eq!(lines[2]["phase"], "blocked");
        assert_eq!(lines[2]["sim_ns"].as_u64(), Some(500));
        assert_eq!(lines[3]["kind"], "traffic");
        assert_eq!(lines[3]["bytes"].as_u64(), Some(4096));
        assert_eq!(lines[4]["direction"], "d2h");
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(derive_trace_id(42, 0), derive_trace_id(42, 0));
        assert_ne!(derive_trace_id(42, 0), derive_trace_id(42, 1));
        assert_ne!(derive_trace_id(42, 0), derive_trace_id(43, 0));
    }

    #[test]
    fn phase_names_round_trip() {
        for p in [
            JobPhase::Submitted,
            JobPhase::Queued,
            JobPhase::Admitted,
            JobPhase::Running,
            JobPhase::Blocked,
            JobPhase::Resumed,
            JobPhase::Done,
            JobPhase::Evicted,
        ] {
            assert_eq!(JobPhase::parse(p.as_str()), Some(p));
        }
        assert_eq!(JobPhase::parse("nope"), None);
    }
}

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
//! With both wall-like clocks masked, a job's spans (`seq`, `phase`,
//! `step_clock`, `detail`) are its canonical form: the serving proptests
//! assert it is identical for a job run multiplexed vs alone.
//!
//! The trace doubles as the **flight recorder**: a bounded ring of the
//! most recent spans (older records drop, counted in `dropped`), dumped as
//! a [`FlightRecord`] when a job faults, is evicted, or parks on budget
//! exhaustion. This module alone knows the dump's JSONL format: it writes
//! it and reads it back into typed records for `lightwalk inspect`.

use crate::ledger::TrafficDirection;
use serde_json::{json, Value};
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

    /// Parse the stable name back; the flight-record reader
    /// ([`FlightRecord::parse_jsonl`]) reads phases with it.
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

/// Per-job span store: identity and a bounded ring of recent spans.
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

    /// The flight record of this trace: its retained spans plus the
    /// traffic rows the ledger attributes to the job, dumped for `reason`.
    pub fn flight_record(&self, reason: &str, traffic: Vec<TrafficRow>) -> FlightRecord {
        FlightRecord {
            job: self.job,
            tenant: self.tenant.clone(),
            trace_id: self.trace_id,
            reason: reason.to_string(),
            dropped: self.dropped,
            spans: self.spans.iter().cloned().collect(),
            traffic,
        }
    }
}

/// Link bytes the ledger attributed to one job on one partition in one
/// direction: one `traffic` line of a flight record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficRow {
    /// Partition whose data moved.
    pub partition: u32,
    /// Link direction.
    pub direction: TrafficDirection,
    /// Bytes moved.
    pub bytes: u64,
}

/// A job's flight record: who the job is, why it was dumped, its
/// retained spans and its attributed traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecord {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Deterministic trace id.
    pub trace_id: u64,
    /// Why the record was dumped (`evicted`, `budget`, `fault`, ...).
    pub reason: String,
    /// Spans that fell out of the ring before the dump.
    pub dropped: u64,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Traffic attributed to the job.
    pub traffic: Vec<TrafficRow>,
}

impl FlightRecord {
    /// The JSONL dump, keys sorted: one `meta` line, one `span` line per
    /// retained record (all clocks included), one `traffic` line per row.
    pub fn to_jsonl(&self) -> String {
        let meta = json!({
            "kind": "meta",
            "job": self.job,
            "tenant": self.tenant,
            "trace_id": format!("{:016x}", self.trace_id),
            "reason": self.reason,
            "spans": self.spans.len(),
            "dropped": self.dropped,
        });
        let spans = self.spans.iter().map(|s| {
            json!({
                "kind": "span",
                "seq": s.seq,
                "phase": s.phase.as_str(),
                "step_clock": s.step_clock,
                "sim_ns": s.sim_ns,
                "host_ns": s.host_ns,
                "detail": s.detail,
            })
        });
        let traffic = self.traffic.iter().map(|t| {
            json!({
                "kind": "traffic",
                "partition": t.partition,
                "direction": t.direction.label(),
                "bytes": t.bytes,
            })
        });
        std::iter::once(meta)
            .chain(spans)
            .chain(traffic)
            .map(|line| format!("{line}\n"))
            .collect()
    }

    /// Read back every record in `text` (dumps may be concatenated; blank
    /// lines are skipped). The error starts `line N: `, naming the first
    /// line that is not JSON, lacks a field, names an unknown kind, phase
    /// or direction, or precedes any `meta` line, or the `meta` line of a
    /// record whose span lines do not number what it counts.
    pub fn parse_jsonl(text: &str) -> Result<Vec<FlightRecord>, String> {
        let mut records: Vec<FlightRecord> = Vec::new();
        // Each record's `meta` line number and the spans it counts.
        let mut promised: Vec<(usize, u64)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let n = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let err = |message: String| format!("line {n}: {message}");
            let v: Value = serde_json::from_str(line).map_err(|e| err(format!("bad json: {e}")))?;
            let field = |key: &str| v.get(key).ok_or_else(|| err(format!("no {key}")));
            let num = |key: &str| {
                let x = field(key)?;
                x.as_u64()
                    .ok_or_else(|| err(format!("{key} {x} is not a count")))
            };
            let string = |key: &str| {
                let x = field(key)?;
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| err(format!("{key} {x} is not a string")))
            };
            let kind = string("kind")?;
            if kind == "meta" {
                let trace_id = string("trace_id")?;
                promised.push((n, num("spans")?));
                records.push(FlightRecord {
                    job: num("job")?,
                    tenant: string("tenant")?,
                    trace_id: u64::from_str_radix(&trace_id, 16)
                        .map_err(|_| err(format!("trace_id {trace_id:?} is not hex")))?,
                    reason: string("reason")?,
                    dropped: num("dropped")?,
                    spans: Vec::new(),
                    traffic: Vec::new(),
                });
                continue;
            }
            let Some(r) = records.last_mut() else {
                return Err(err("record before any meta line".into()));
            };
            match kind.as_str() {
                "span" => {
                    let phase = string("phase")?;
                    r.spans.push(SpanRecord {
                        seq: num("seq")?,
                        phase: JobPhase::parse(&phase)
                            .ok_or_else(|| err(format!("unknown phase {phase:?}")))?,
                        step_clock: num("step_clock")?,
                        sim_ns: num("sim_ns")?,
                        host_ns: num("host_ns")?,
                        detail: string("detail")?,
                    });
                }
                "traffic" => {
                    let direction = string("direction")?;
                    let partition = num("partition")?;
                    r.traffic.push(TrafficRow {
                        partition: u32::try_from(partition)
                            .map_err(|_| err(format!("partition {partition} is out of range")))?,
                        direction: [TrafficDirection::H2d, TrafficDirection::D2h]
                            .into_iter()
                            .find(|d| d.label() == direction)
                            .ok_or_else(|| err(format!("unknown direction {direction:?}")))?,
                        bytes: num("bytes")?,
                    });
                }
                other => return Err(err(format!("unknown kind {other:?}"))),
            }
        }
        for (r, &(line, want)) in records.iter().zip(&promised) {
            if r.spans.len() as u64 != want {
                let got = r.spans.len();
                return Err(format!(
                    "line {line}: meta counts {want} spans, {got} follow"
                ));
            }
        }
        Ok(records)
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
        assert_eq!(t.flight_record("ring", Vec::new()).dropped, 1);
        let seqs: Vec<u64> = t.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2], "oldest record fell out, seq continues");
        let phases: Vec<JobPhase> = t.spans().map(|s| s.phase).collect();
        assert_eq!(phases, vec![JobPhase::Queued, JobPhase::Running]);
    }

    fn budget_record() -> FlightRecord {
        let mut t = JobTrace::new(7, "acme", 0xdead, 8);
        t.record(JobPhase::Submitted, 0, 1, 2, "");
        t.record(
            JobPhase::Blocked,
            30,
            500,
            700,
            "tenant acme budget exhausted",
        );
        let row = |partition, direction, bytes| TrafficRow {
            partition,
            direction,
            bytes,
        };
        t.flight_record(
            "budget",
            vec![
                row(0, TrafficDirection::H2d, 4096),
                row(2, TrafficDirection::D2h, 128),
            ],
        )
    }

    /// The dump's bytes are pinned: sorted keys, no whitespace, one line
    /// per meta, span and traffic row.
    #[test]
    fn flight_record_writes_sorted_key_jsonl() {
        let want = concat!(
            r#"{"dropped":0,"job":7,"kind":"meta","reason":"budget","spans":2,"tenant":"acme","trace_id":"000000000000dead"}"#,
            "\n",
            r#"{"detail":"","host_ns":2,"kind":"span","phase":"submitted","seq":0,"sim_ns":1,"step_clock":0}"#,
            "\n",
            r#"{"detail":"tenant acme budget exhausted","host_ns":700,"kind":"span","phase":"blocked","seq":1,"sim_ns":500,"step_clock":30}"#,
            "\n",
            r#"{"bytes":4096,"direction":"h2d","kind":"traffic","partition":0}"#,
            "\n",
            r#"{"bytes":128,"direction":"d2h","kind":"traffic","partition":2}"#,
            "\n",
        );
        assert_eq!(budget_record().to_jsonl(), want);
    }

    #[test]
    fn flight_records_read_back_typed() {
        let r = budget_record();
        assert_eq!(
            FlightRecord::parse_jsonl(&r.to_jsonl()),
            Ok(vec![r.clone()])
        );
        // Dumps concatenate; blank lines between them are skipped.
        let two = format!("{}\n{}", r.to_jsonl(), r.to_jsonl());
        assert_eq!(FlightRecord::parse_jsonl(&two), Ok(vec![r.clone(), r]));
        assert_eq!(FlightRecord::parse_jsonl(""), Ok(vec![]));
    }

    /// Every malformed dump is an error naming its line: a line cut
    /// short, a dropped span line, a bad field, a line before any meta.
    #[test]
    fn malformed_flight_records_name_the_line() {
        let dump = budget_record().to_jsonl();
        let line_of = |text: &str| {
            let err = FlightRecord::parse_jsonl(text).unwrap_err();
            let n = err.strip_prefix("line ").and_then(|e| e.split(':').next());
            n.and_then(|n| n.parse::<usize>().ok()).unwrap()
        };
        assert_eq!(line_of(&dump[..dump.len() - 10]), 5, "cut mid-line");
        let lines: Vec<&str> = dump.lines().collect();
        let without = |k: usize| {
            let mut l = lines.clone();
            l.remove(k);
            l.join("\n")
        };
        assert_eq!(line_of(&without(2)), 1, "a span line went missing");
        assert_eq!(line_of(&without(0)), 1, "no meta line");
        for (from, to, line) in [
            ("\"blocked\"", "\"stalled\"", 3),
            ("\"d2h\"", "\"sideways\"", 5),
            ("\"kind\":\"traffic\"", "\"kind\":\"noise\"", 4),
            ("\"seq\":1", "\"seq\":-1", 3),
            ("\"tenant\"", "\"owner\"", 1),
            ("000000000000dead", "not-hex", 1),
        ] {
            assert_eq!(line_of(&dump.replacen(from, to, 1)), line, "{to}");
        }
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

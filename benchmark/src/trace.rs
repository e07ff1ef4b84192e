//! Harness-side tracing: spans around the public calls into each layer,
//! and a delta accumulator for the counters the program already keeps.
//!
//! Both live outside the program under test (choosing-metrics §4: the
//! change that defines the benchmark records spans from the benchmark's
//! own files). Spans stay in memory and are dumped once, at the end.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span on the host clock.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Position in the trace; parents refer to it.
    pub id: u64,
    /// `layer.call` label, e.g. `engine.step`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u64>,
}

/// Span recorder for one workload. A disabled tracer (the untraced
/// pass) records nothing: `enter`/`exit` reduce to one branch each.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u64;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span list, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    /// Spans with this name.
    pub count: u64,
    /// Σ (end − start).
    pub total_s: f64,
    /// Σ (end − start − time covered by direct children).
    pub self_s: f64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the durations of its direct children (children of one parent
/// never overlap: the tracer is a stack).
pub fn span_totals(spans: &[Span]) -> BTreeMap<String, SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, SpanTotal> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += dur as f64 / 1e9;
        t.self_s += dur.saturating_sub(child_ns[s.id as usize]) as f64 / 1e9;
    }
    out
}

/// Accumulates a set of monotone counters across slices and engines, in
/// the shape of zisk's `StatsCosts::add_delta` (SNIPPETS.md Snippet 2):
/// fixed slots, each `add_delta` folds `current − reference` into the
/// totals and moves the reference forward. `rebase` starts a new
/// reference without counting anything — used when a fresh engine's
/// counters restart from zero.
#[derive(Clone, Debug)]
pub struct DeltaAcc<const N: usize> {
    reference: [u64; N],
    totals: [u64; N],
}

impl<const N: usize> Default for DeltaAcc<N> {
    fn default() -> Self {
        DeltaAcc {
            reference: [0; N],
            totals: [0; N],
        }
    }
}

impl<const N: usize> DeltaAcc<N> {
    /// Forget the reference: the next `add_delta` measures from `current`.
    pub fn rebase(&mut self, current: [u64; N]) {
        self.reference = current;
    }

    /// Fold the growth since the last call into the totals; returns that
    /// growth so callers can keep per-slice samples.
    pub fn add_delta(&mut self, current: [u64; N]) -> [u64; N] {
        let mut delta = [0u64; N];
        for i in 0..N {
            delta[i] = current[i]
                .checked_sub(self.reference[i])
                .expect("counters are monotone between rebases");
            self.totals[i] += delta[i];
        }
        self.reference = current;
        delta
    }

    pub fn totals(&self) -> &[u64; N] {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // run [0,100] ⊃ step [10,40] ⊃ seal [20,30]; step [50,90].
        let spans = [
            span(0, "run", 0, 100, None),
            span(1, "step", 10, 40, Some(0)),
            span(2, "seal", 20, 30, Some(1)),
            span(3, "step", 50, 90, Some(0)),
        ];
        let t = span_totals(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(t["run"].total_s), 100);
        assert_eq!(ns(t["run"].self_s), 100 - 30 - 40);
        assert_eq!(t["step"].count, 2);
        assert_eq!(ns(t["step"].total_s), 70);
        // Only the direct child (seal) is subtracted from step.
        assert_eq!(ns(t["step"].self_s), 60);
        assert_eq!(ns(t["seal"].self_s), 10);
        // Self times partition the root: nothing is counted twice.
        let all: f64 = t.values().map(|x| x.self_s).sum();
        assert_eq!(ns(all), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let script = |t: &mut Tracer| {
            t.enter("outer");
            for _ in 0..2 {
                t.enter("inner");
                t.exit();
            }
            t.exit();
        };
        let mut t = Tracer::new(true);
        script(&mut t);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        script(&mut off);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn delta_accumulator_sums_growth_across_rebases() {
        let mut acc = DeltaAcc::<2>::default();
        assert_eq!(acc.add_delta([5, 100]), [5, 100]);
        assert_eq!(acc.add_delta([8, 100]), [3, 0]);
        // A fresh engine restarts its counters: rebase, then keep adding.
        acc.rebase([0, 0]);
        assert_eq!(acc.add_delta([4, 10]), [4, 10]);
        assert_eq!(acc.totals(), &[12, 110]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn delta_accumulator_refuses_a_counter_that_went_backwards() {
        let mut acc = DeltaAcc::<1>::default();
        acc.add_delta([9]);
        acc.add_delta([3]);
    }
}

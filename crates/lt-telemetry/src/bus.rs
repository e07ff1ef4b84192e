//! The event bus and its sinks.

use crate::event::{Event, FieldValue, Level};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Receives events from an [`EventBus`]. Sinks run under the bus lock, in
/// sequence order — keep `record` cheap (buffered writers, ring pushes).
pub trait EventSink: Send {
    /// Observe one event.
    fn record(&mut self, event: &Event);
    /// Flush any buffered output.
    fn flush(&mut self) {}
}

struct BusState {
    seq: u64,
    sinks: Vec<Box<dyn EventSink>>,
}

struct BusInner {
    epoch: Instant,
    min_level: Level,
    state: Mutex<BusState>,
}

/// A shared, cheaply clonable event bus.
///
/// The default bus is *disabled*: a `None` handle whose
/// [`EventBus::enabled`] check is the entire cost of an instrumentation
/// site. An enabled bus stamps each event with a dense sequence number and
/// the host wall clock, then fans it out to every attached sink.
///
/// Sequence numbers are assigned under one lock in emission order; all
/// emitters in this workspace run on the driver thread (or under the
/// simulated device's mutex), so the stream order — and everything in it
/// except `host_ns` — is deterministic.
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<BusInner>>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "EventBus(disabled)"),
            Some(i) => write!(f, "EventBus(min_level: {})", i.min_level.name()),
        }
    }
}

impl EventBus {
    /// The disabled bus (same as `EventBus::default()`).
    pub fn disabled() -> Self {
        EventBus { inner: None }
    }

    /// An enabled bus accepting events at `min_level` and above, with no
    /// sinks attached yet.
    pub fn new(min_level: Level) -> Self {
        EventBus {
            inner: Some(Arc::new(BusInner {
                epoch: Instant::now(),
                min_level,
                state: Mutex::new(BusState {
                    seq: 0,
                    sinks: Vec::new(),
                }),
            })),
        }
    }

    /// Whether any sink could ever see an event. Check this before
    /// building field vectors at instrumentation sites.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events at `level` pass the bus filter.
    #[inline]
    pub fn level_enabled(&self, level: Level) -> bool {
        matches!(&self.inner, Some(i) if level >= i.min_level)
    }

    /// Attach a sink. No-op on a disabled bus.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(i) = &self.inner {
            i.state.lock().sinks.push(sink);
        }
    }

    /// Attach a bounded in-memory ring sink and return its read handle.
    /// Returns `None` on a disabled bus.
    pub fn ring(&self, capacity: usize) -> Option<RingHandle> {
        self.inner.as_ref()?;
        let handle = RingHandle::new(capacity);
        self.add_sink(Box::new(handle.clone()));
        Some(handle)
    }

    /// Emit one event. No-op when the bus is disabled or `level` is below
    /// the bus filter.
    pub fn emit(
        &self,
        level: Level,
        sim_ns: u64,
        scope: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        if level < inner.min_level {
            return;
        }
        let host_ns = inner.epoch.elapsed().as_nanos() as u64;
        let mut st = inner.state.lock();
        let seq = st.seq;
        st.seq += 1;
        let event = Event {
            seq,
            sim_ns,
            host_ns,
            level,
            scope,
            name,
            fields,
        };
        for s in st.sinks.iter_mut() {
            s.record(&event);
        }
    }

    /// Events emitted so far (0 on a disabled bus).
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().seq)
    }

    /// Flush every sink.
    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            for s in i.state.lock().sinks.iter_mut() {
                s.flush();
            }
        }
    }
}

struct RingBuf {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

/// Read handle over a bounded in-memory event ring. The handle doubles as
/// the sink (attach a clone via [`EventBus::add_sink`] or use
/// [`EventBus::ring`]); when full, the oldest events drop.
#[derive(Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<RingBuf>>,
}

impl RingHandle {
    /// A standalone ring of at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingHandle {
            buf: Arc::new(Mutex::new(RingBuf {
                capacity: capacity.max(1),
                events: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    /// Copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.lock().events.iter().cloned().collect()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.buf.lock().events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().dropped
    }

    /// Drop all buffered events (the drop counter keeps its value).
    pub fn clear(&self) {
        self.buf.lock().events.clear();
    }
}

impl EventSink for RingHandle {
    fn record(&mut self, event: &Event) {
        let mut b = self.buf.lock();
        if b.events.len() == b.capacity {
            b.events.pop_front();
            b.dropped += 1;
        }
        b.events.push_back(event.clone());
    }
}

/// Writes one JSON object per event to any `Write` target.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
    min_level: Level,
    include_host: bool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing events at `min_level`+ to `writer`. With
    /// `include_host = false` the output is the deterministic form
    /// (host-wall field omitted) — byte-comparable across runs.
    pub fn new(writer: W, min_level: Level, include_host: bool) -> Self {
        JsonlSink {
            writer,
            min_level,
            include_host,
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if event.level < self.min_level {
            return;
        }
        let _ = writeln!(self.writer, "{}", event.to_jsonl(self.include_host));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::deterministic_jsonl;

    fn emit_n(bus: &EventBus, n: u64) {
        for i in 0..n {
            bus.emit(
                Level::Info,
                i * 10,
                "test",
                "tick",
                vec![("i", FieldValue::U64(i))],
            );
        }
    }

    #[test]
    fn disabled_bus_is_inert() {
        let bus = EventBus::default();
        assert!(!bus.enabled());
        assert!(!bus.level_enabled(Level::Error));
        assert!(bus.ring(16).is_none());
        emit_n(&bus, 100);
        assert_eq!(bus.emitted(), 0);
        bus.flush(); // must not panic
    }

    #[test]
    fn ring_buffers_and_drops_oldest() {
        let bus = EventBus::new(Level::Debug);
        let ring = bus.ring(4).unwrap();
        emit_n(&bus, 10);
        assert_eq!(bus.emitted(), 10);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest events drop first");
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn level_filter_applies_at_the_bus() {
        let bus = EventBus::new(Level::Warn);
        let ring = bus.ring(16).unwrap();
        bus.emit(Level::Debug, 0, "test", "quiet", vec![]);
        bus.emit(Level::Info, 0, "test", "quiet", vec![]);
        bus.emit(Level::Warn, 1, "test", "loud", vec![]);
        bus.emit(Level::Error, 2, "test", "loud", vec![]);
        assert!(bus.level_enabled(Level::Warn));
        assert!(!bus.level_enabled(Level::Info));
        assert_eq!(ring.len(), 2);
        // Filtered-out events do not consume sequence numbers: the stream
        // stays dense whatever the filter.
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn clones_share_one_stream() {
        let bus = EventBus::new(Level::Debug);
        let ring = bus.ring(16).unwrap();
        let clone = bus.clone();
        emit_n(&bus, 2);
        emit_n(&clone, 2);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn jsonl_sink_writes_filtered_lines() {
        let bus = EventBus::new(Level::Debug);
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        bus.add_sink(Box::new(JsonlSink::new(
            Shared(buf.clone()),
            Level::Warn,
            false,
        )));
        bus.emit(Level::Debug, 5, "test", "noise", vec![]);
        bus.emit(Level::Error, 7, "test", "boom", vec![("code", 3u64.into())]);
        bus.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug line must be filtered: {text}");
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["name"].as_str(), Some("boom"));
        assert_eq!(v["fields"]["code"].as_u64(), Some(3));
        assert!(v["host_ns"].is_null(), "deterministic form masks host_ns");
    }

    #[test]
    fn deterministic_jsonl_ignores_host_wall() {
        let run = |host_offset: u64| {
            let bus = EventBus::new(Level::Debug);
            let ring = bus.ring(64).unwrap();
            emit_n(&bus, 5);
            let mut evs = ring.snapshot();
            for e in &mut evs {
                e.host_ns += host_offset; // simulate a different wall clock
            }
            deterministic_jsonl(&evs)
        };
        assert_eq!(run(0), run(1_000_000));
    }
}

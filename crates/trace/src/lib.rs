//! `hlstb-trace` — the workbench's structured-observability facade.
//!
//! A zero-dependency, in-tree crate (in the style of the offline
//! `rand`/`proptest`/`criterion` subsets) that every synthesis crate
//! links against. It provides:
//!
//! * **RAII spans** ([`span`]): scoped wall-time measurements of the
//!   synthesis phases (scheduling, binding, expansion, scan selection,
//!   BIST planning, ATPG, fault grading, …);
//! * **counters** ([`counter`]) and **gauges** ([`gauge`]): merged
//!   monotonically — counters add, gauges keep the maximum — so
//!   concurrent workers never need coordination beyond the collector
//!   lock;
//! * **per-phase histograms**: every span feeds a log₂-bucketed
//!   duration histogram keyed by span name;
//! * **exporters** (via [`snapshot`]): a Chrome trace-event JSON file
//!   loadable in Perfetto / `chrome://tracing`, a flat metrics JSON,
//!   and a human-readable text summary.
//!
//! # Overhead guarantee
//!
//! Tracing is **off by default**. When disabled, every entry point is a
//! single relaxed atomic load followed by an immediate return: no
//! allocation, no lock, no syscall. The hot fault-simulation loop can
//! therefore stay instrumented unconditionally (enforced by the
//! `zero_alloc` integration test).
//!
//! # Determinism
//!
//! The collector only *observes*: no instrumented algorithm branches on
//! [`enabled`], and no trace call touches an RNG or reorders work.
//! Enabling tracing changes wall time, never results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envhook;
pub mod events;
pub mod json;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Histogram buckets: bucket `i` counts durations in `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also holds sub-microsecond spans).
pub const HIST_BUCKETS: usize = 32;

/// Hard cap on retained span events; past it the histograms and phase
/// totals keep aggregating but individual events are counted as
/// dropped instead of stored (bounds memory on pathological runs).
const MAX_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static COLLECTOR: Mutex<Collector> = Mutex::new(Collector::new());

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Pins the trace epoch (timestamp zero) if not already pinned, so the
/// span collector and the event journal share one time base.
pub(crate) fn pin_epoch() {
    EPOCH.get_or_init(Instant::now);
}

/// Microseconds elapsed since the trace epoch (pinning it on first use).
pub(crate) fn epoch_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Small dense id of the calling thread (assigned on first traced use).
pub(crate) fn thread_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

fn lock_collector() -> std::sync::MutexGuard<'static, Collector> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// One completed span occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanEvent {
    name: &'static str,
    tid: u32,
    start_us: u64,
    dur_us: u64,
}

/// Aggregated wall-time statistics of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhaseStat {
    count: u64,
    total: Duration,
    min: Duration,
    max: Duration,
    buckets: [u64; HIST_BUCKETS],
}

impl PhaseStat {
    fn new() -> Self {
        PhaseStat {
            count: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
            max: Duration::ZERO,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        let us = d.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

struct Collector {
    events: Vec<SpanEvent>,
    dropped_events: u64,
    phases: BTreeMap<&'static str, PhaseStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

impl Collector {
    const fn new() -> Self {
        Collector {
            events: Vec::new(),
            dropped_events: 0,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.dropped_events = 0;
        self.phases.clear();
        self.counters.clear();
        self.gauges.clear();
    }
}

/// Turns the global collector on or off. Enabling also pins the trace
/// epoch (timestamp zero) on first use. Disabling leaves collected data
/// in place so it can still be exported.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the collector is currently recording. A single relaxed
/// atomic load — cheap enough for the innermost loops.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discards all collected events, histograms, counters and gauges.
/// The enabled flag and epoch are unchanged.
pub fn reset() {
    lock_collector().clear();
}

/// An RAII span guard: measures wall time from construction to drop and
/// records one event under its name. When tracing is disabled at
/// construction the guard is inert (no allocation, no lock on drop).
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    /// Whether to record into the aggregate collector on drop.
    collect: bool,
    /// Seq of the journal's `span.open` record, when the event journal
    /// is on (see [`events`]).
    journal_open: Option<u64>,
}

/// Opens a span named `name`. Close it by dropping the guard (or
/// explicitly via [`Span::end`]). Records into the aggregate collector
/// when tracing is enabled and additionally journals open/close
/// records (with parent attribution) when the [`events`] journal is
/// enabled; inert when both are off.
#[inline]
pub fn span(name: &'static str) -> Span {
    let collect = enabled();
    let journal = events::enabled();
    if !collect && !journal {
        return Span { inner: None };
    }
    let journal_open = if journal {
        Some(events::span_open(name))
    } else {
        None
    };
    Span {
        inner: Some(ActiveSpan {
            name,
            start: Instant::now(),
            collect,
            journal_open,
        }),
    }
}

impl Span {
    /// Ends the span now (sugar for dropping the guard).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let dur = s.start.elapsed();
            if let Some(open_seq) = s.journal_open {
                events::span_close(s.name, open_seq, dur.as_micros() as u64);
            }
            if !s.collect {
                return;
            }
            let epoch = *EPOCH.get_or_init(Instant::now);
            let start_us = s.start.saturating_duration_since(epoch).as_micros() as u64;
            let event = SpanEvent {
                name: s.name,
                tid: thread_tid(),
                start_us,
                dur_us: dur.as_micros() as u64,
            };
            let mut c = lock_collector();
            c.phases
                .entry(s.name)
                .or_insert_with(PhaseStat::new)
                .record(dur);
            if c.events.len() < MAX_EVENTS {
                c.events.push(event);
            } else {
                c.dropped_events += 1;
            }
        }
    }
}

/// Adds `delta` to the counter `name` (created at zero). Also journals
/// a volatile `counter` record when the [`events`] journal is on.
/// No-op when both are disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if events::enabled() {
        events::counter_event(name, delta);
    }
    if !enabled() {
        return;
    }
    let mut c = lock_collector();
    let slot = c.counters.entry(name).or_insert(0);
    *slot = slot.saturating_add(delta);
}

/// Merges `value` into the gauge `name`, keeping the maximum observed —
/// the monotone merge that needs no coordination between concurrent
/// reporters. No-op when tracing is disabled.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut c = lock_collector();
    let slot = c.gauges.entry(name).or_insert(0);
    *slot = (*slot).max(value);
}

/// One exported span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name.
    pub name: &'static str,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Span name.
    pub name: &'static str,
    /// Occurrences.
    pub count: u64,
    /// Summed wall time.
    pub total: Duration,
    /// Shortest occurrence.
    pub min: Duration,
    /// Longest occurrence.
    pub max: Duration,
    /// log₂(µs) duration histogram (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

/// A point-in-time copy of everything the collector holds, with the
/// exporters. Snapshots are plain data: taking one does not stop or
/// clear collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Completed span events, sorted by `(start_us, dur_us, tid,
    /// name)` — a deterministic order regardless of which worker's
    /// span happened to reach the collector first.
    pub events: Vec<Event>,
    /// Events discarded past the retention cap.
    pub dropped_events: u64,
    /// Per-span-name aggregates, name-sorted.
    pub phases: Vec<PhaseSummary>,
    /// Counters, name-sorted.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(&'static str, u64)>,
}

/// Copies the collector's current contents. Span events are re-sorted
/// into a completion-order-independent order so the exporters emit the
/// same bytes no matter how concurrent workers raced to the collector
/// (timestamps still vary run to run, of course; the point is that a
/// single run's snapshot renders one way).
pub fn snapshot() -> Snapshot {
    let c = lock_collector();
    let mut events: Vec<Event> = c
        .events
        .iter()
        .map(|e| Event {
            name: e.name,
            tid: e.tid,
            start_us: e.start_us,
            dur_us: e.dur_us,
        })
        .collect();
    events.sort_by_key(|e| (e.start_us, e.dur_us, e.tid, e.name));
    Snapshot {
        events,
        dropped_events: c.dropped_events,
        phases: c
            .phases
            .iter()
            .map(|(&name, p)| PhaseSummary {
                name,
                count: p.count,
                total: p.total,
                min: p.min,
                max: p.max,
                buckets: p.buckets,
            })
            .collect(),
        counters: c.counters.iter().map(|(&k, &v)| (k, v)).collect(),
        gauges: c.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
    }
}

impl Snapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Total wall time of the span `name`, if it occurred.
    pub fn phase_total(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.total)
    }

    /// Current value of counter `name`, if it was touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Renders the snapshot as a Chrome trace-event JSON document
    /// (the `chrome://tracing` / Perfetto "JSON array format" with
    /// complete `ph: "X"` events; counters become `ph: "C"` samples).
    pub fn chrome_trace_json(&self) -> String {
        let mut events = json::Arr::new();
        let mut meta = json::Obj::new();
        meta.string("name", "process_name");
        meta.string("ph", "M");
        meta.number_u64("pid", 1);
        let mut args = json::Obj::new();
        args.string("name", "hlstb");
        meta.raw("args", &args.finish());
        events.raw(&meta.finish());
        let mut end_us = 0u64;
        for e in &self.events {
            end_us = end_us.max(e.start_us + e.dur_us);
            let mut o = json::Obj::new();
            o.string("name", e.name);
            o.string("cat", "hlstb");
            o.string("ph", "X");
            o.number_u64("ts", e.start_us);
            o.number_u64("dur", e.dur_us);
            o.number_u64("pid", 1);
            o.number_u64("tid", e.tid as u64);
            events.raw(&o.finish());
        }
        for &(name, value) in &self.counters {
            let mut o = json::Obj::new();
            o.string("name", name);
            o.string("cat", "hlstb");
            o.string("ph", "C");
            o.number_u64("ts", end_us);
            o.number_u64("pid", 1);
            let mut args = json::Obj::new();
            args.number_u64("value", value);
            o.raw("args", &args.finish());
            events.raw(&o.finish());
        }
        let mut doc = json::Obj::new();
        doc.string("displayTimeUnit", "ms");
        doc.number_u64("droppedEvents", self.dropped_events);
        doc.raw("traceEvents", &events.finish());
        doc.finish()
    }

    /// Renders the snapshot as one flat metrics JSON object: per-phase
    /// aggregates (count / total / min / max / histogram), counters,
    /// and gauges.
    pub fn metrics_json(&self) -> String {
        let ms = |d: Duration| json::number_f64(d.as_secs_f64() * 1e3);
        let mut phases = json::Obj::new();
        for p in &self.phases {
            let mut o = json::Obj::new();
            o.number_u64("count", p.count);
            o.raw("total_ms", &ms(p.total));
            o.raw("min_ms", &ms(p.min));
            o.raw("max_ms", &ms(p.max));
            let last = p.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            let mut hist = json::Arr::new();
            for &b in &p.buckets[..last] {
                hist.raw(&b.to_string());
            }
            o.raw("hist_log2_us", &hist.finish());
            phases.raw(p.name, &o.finish());
        }
        let mut counters = json::Obj::new();
        for &(k, v) in &self.counters {
            counters.number_u64(k, v);
        }
        let mut gauges = json::Obj::new();
        for &(k, v) in &self.gauges {
            gauges.number_u64(k, v);
        }
        let mut doc = json::Obj::new();
        doc.number_u64("events", self.events.len() as u64);
        doc.number_u64("dropped_events", self.dropped_events);
        doc.raw("phases", &phases.finish());
        doc.raw("counters", &counters.finish());
        doc.raw("gauges", &gauges.finish());
        doc.finish()
    }

    /// Renders a human-readable per-phase breakdown (wall-time-sorted)
    /// plus the counters and gauges.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>12}\n",
            "phase", "count", "total ms", "min ms", "max ms"
        ));
        let mut phases: Vec<&PhaseSummary> = self.phases.iter().collect();
        phases.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(b.name)));
        for p in phases {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12.3} {:>12.3} {:>12.3}\n",
                p.name,
                p.count,
                p.total.as_secs_f64() * 1e3,
                p.min.as_secs_f64() * 1e3,
                p.max.as_secs_f64() * 1e3,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for &(k, v) in &self.counters {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for &(k, v) in &self.gauges {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "({} events dropped past the retention cap)\n",
                self.dropped_events
            ));
        }
        out
    }
}

/// The span collector and the event journal are both process-global,
/// and the journal's tests toggle and clear the collector too, so every
/// test in the crate that touches either serializes on this one lock
/// (`cargo test` runs the modules' tests on parallel threads).
#[cfg(test)]
pub(crate) fn test_exclusive() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_exclusive as exclusive;

    #[test]
    fn disabled_collector_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        {
            let _s = span("phase");
            counter("work", 3);
            gauge("peak", 9);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_counters_and_gauges_are_collected_and_merged() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _s = span("alpha");
            std::thread::sleep(Duration::from_millis(1));
        }
        span("alpha").end();
        counter("work", 2);
        counter("work", 3);
        gauge("peak", 4);
        gauge("peak", 2);
        set_enabled(false);
        let snap = snapshot();
        let alpha = snap.phases.iter().find(|p| p.name == "alpha").unwrap();
        assert_eq!(alpha.count, 2);
        assert!(alpha.total >= Duration::from_millis(1));
        assert!(alpha.min <= alpha.max);
        assert_eq!(alpha.buckets.iter().sum::<u64>(), 2);
        assert_eq!(snap.counter("work"), Some(5));
        assert_eq!(snap.gauges, vec![("peak", 4)]);
        assert_eq!(snap.events.len(), 2);
        assert!(snap.phase_total("alpha").unwrap() >= Duration::from_millis(1));
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_from_worker_threads_get_distinct_tids() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| span("worker").end());
            }
        });
        span("main").end();
        set_enabled(false);
        let snap = snapshot();
        let mut tids: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "{:?}", snap.events);
        reset();
    }

    #[test]
    fn exporters_render_name_sorted_regardless_of_insertion_order() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        // Insert counters and spans in reverse-alphabetical order; the
        // exporters must still render them name-sorted.
        counter("zeta", 1);
        counter("alpha", 1);
        span("zz_last").end();
        span("aa_first").end();
        set_enabled(false);
        let snap = snapshot();
        reset();
        let names: Vec<&str> = snap.counters.iter().map(|&(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        let phases: Vec<&str> = snap.phases.iter().map(|p| p.name).collect();
        assert_eq!(phases, vec!["aa_first", "zz_last"]);
        let metrics = snap.metrics_json();
        assert!(
            metrics.find("\"alpha\"").unwrap() < metrics.find("\"zeta\"").unwrap(),
            "{metrics}"
        );
        assert!(
            metrics.find("\"aa_first\"").unwrap() < metrics.find("\"zz_last\"").unwrap(),
            "{metrics}"
        );
        // Event order in exporters follows the deterministic sort key,
        // not collector insertion order.
        let starts: Vec<u64> = snap.events.iter().map(|e| e.start_us).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn exporters_produce_parseable_json() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        span("sched").end();
        counter("fsim.fault_evals", 7);
        gauge("threads", 2);
        set_enabled(false);
        let snap = snapshot();
        reset();

        let chrome = json::parse(&snap.chrome_trace_json()).expect("chrome JSON parses");
        let events = chrome
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        // Metadata + 1 span + 1 counter sample.
        assert_eq!(events.len(), 3);
        assert!(events.iter().any(|e| {
            e.get("name").and_then(json::Value::as_str) == Some("sched")
                && e.get("ph").and_then(json::Value::as_str) == Some("X")
        }));

        let metrics = json::parse(&snap.metrics_json()).expect("metrics JSON parses");
        let sched = metrics.get("phases").and_then(|p| p.get("sched")).unwrap();
        assert_eq!(sched.get("count").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("fsim.fault_evals"))
                .and_then(json::Value::as_f64),
            Some(7.0)
        );

        let text = snap.text_summary();
        assert!(text.contains("sched"));
        assert!(text.contains("fsim.fault_evals"));
    }
}

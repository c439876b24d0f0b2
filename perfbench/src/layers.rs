//! Per-layer metrics: the roll-up of the engine's existing journal
//! events, and the metric vocabulary every traced run prints.
//!
//! The traced sweep passes turn on the event journal that
//! `hlstb_dse::engine` already writes (`point.stage`, `point.grading`,
//! `point.completed`, plus the `span.close` records of the existing
//! `fsim.good` / `fsim.fault` spans) and add nothing inside the
//! program. Every per-layer metric is printed on every workload; a
//! layer a workload never reaches reads 0, which is the "no change
//! expected" prediction for it.

use std::collections::BTreeMap;
use std::time::Duration;

use hlstb_dse::CacheStats;
use hlstb_trace::events::{FieldValue, Journal, Record};

use crate::stats::{self, Metrics};

/// The pipeline stages the engine journals, in pipeline order.
pub const STAGES: [&str; 5] = ["front", "facts", "dft", "netlist", "grading"];

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.points", "count"),
    ("engine.point_p50_ms", "ms"),
    ("engine.point_p95_ms", "ms"),
    ("engine.wall_ms", "ms"),
    ("engine.point_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.retries", "count"),
    ("engine.timeouts", "count"),
    ("front.calls", "count"),
    ("front.ms", "ms"),
    ("facts.calls", "count"),
    ("facts.ms", "ms"),
    ("dft.calls", "count"),
    ("dft.ms", "ms"),
    ("netlist.calls", "count"),
    ("netlist.ms", "ms"),
    ("netlist.gates", "count"),
    ("grading.calls", "count"),
    ("grading.ms", "ms"),
    ("grading.good_ms", "ms"),
    ("grading.fault_ms", "ms"),
    ("grading.faults", "count"),
    ("grading.fault_evals", "count"),
    ("grading.dropped", "count"),
    ("atpg.calls", "count"),
    ("atpg.ms", "ms"),
    ("atpg.targeted", "count"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.aborted", "count"),
    ("atpg.detected_share", "share"),
    ("report.calls", "count"),
    ("report.ms", "ms"),
    ("cache.front.hits", "count"),
    ("cache.front.misses", "count"),
    ("cache.front.coalesced", "count"),
    ("cache.facts.hits", "count"),
    ("cache.facts.misses", "count"),
    ("cache.facts.coalesced", "count"),
    ("cache.dft.hits", "count"),
    ("cache.dft.misses", "count"),
    ("cache.dft.coalesced", "count"),
    ("cache.netlist.hits", "count"),
    ("cache.netlist.misses", "count"),
    ("cache.netlist.coalesced", "count"),
    ("cache.grading.hits", "count"),
    ("cache.grading.misses", "count"),
    ("cache.grading.coalesced", "count"),
    ("cache.hit_share", "share"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("cache.evictions", "count"),
    ("serve.requests", "count"),
    ("serve.shed", "count"),
    ("serve.admit_p95_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.run_p95_ms", "ms"),
    ("serve.stale_grading_points", "count"),
    ("serve.journal_bytes", "bytes"),
    ("serve.journal_load_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("counts.unstable", "count"),
];

/// A metrics set holding every per-layer metric at 0, for a workload
/// to fill in the layers it reaches.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.put(name, 0.0, unit);
    }
    m
}

fn field<'a>(r: &'a Record, name: &str) -> Option<&'a FieldValue> {
    r.fields.iter().find(|f| f.name == name).map(|f| &f.value)
}

fn field_u64(r: &Record, name: &str) -> u64 {
    match field(r, name) {
        Some(FieldValue::U64(v)) => *v,
        _ => 0,
    }
}

fn field_str<'a>(r: &'a Record, name: &str) -> &'a str {
    match field(r, name) {
        Some(FieldValue::Str(s)) => s,
        _ => "",
    }
}

/// What one traced pass's journal adds up to.
#[derive(Debug, Default, Clone)]
pub struct Rollup {
    /// Journaled stage time per stage (hits included), in ms.
    pub stage_ms: BTreeMap<&'static str, f64>,
    /// Stage executions that computed (cache miss, or cache off).
    pub stage_calls: BTreeMap<&'static str, u64>,
    /// Per-point wall times, in ms.
    pub point_samples: Vec<f64>,
    /// Retry records.
    pub retries: u64,
    /// Grading work counters summed over the computed grading runs.
    pub grading_faults: u64,
    /// Faulty-machine evaluations.
    pub fault_evals: u64,
    /// Faults dropped on detection.
    pub dropped: u64,
    /// Good-machine simulation time, from the `fsim.good` spans.
    pub good_ms: f64,
    /// Faulty-machine simulation time, from the `fsim.fault` spans.
    pub fault_ms: f64,
    /// Points whose netlist stage computed an expansion.
    pub netlist_points: Vec<u64>,
    /// Records the journal had to drop past its cap.
    pub dropped_records: u64,
}

impl Rollup {
    /// Rolls up a drained journal.
    pub fn of(journal: &Journal) -> Rollup {
        let mut r = Rollup {
            dropped_records: journal.dropped,
            ..Rollup::default()
        };
        for rec in &journal.records {
            match rec.kind {
                "point.stage" => {
                    let Some(stage) = STAGES.iter().find(|s| **s == field_str(rec, "stage")) else {
                        continue;
                    };
                    *r.stage_ms.entry(stage).or_default() += field_u64(rec, "wall_us") as f64 / 1e3;
                    if matches!(field_str(rec, "cache"), "miss" | "off") {
                        *r.stage_calls.entry(stage).or_default() += 1;
                        if *stage == "netlist" {
                            r.netlist_points.extend(rec.point);
                        }
                    }
                }
                "point.completed" | "point.failed" => {
                    r.point_samples.push(field_u64(rec, "wall_us") as f64 / 1e3);
                }
                "point.retry" => r.retries += 1,
                "point.grading" => {
                    r.grading_faults += field_u64(rec, "faults");
                    r.fault_evals += field_u64(rec, "fault_evals");
                    r.dropped += field_u64(rec, "dropped");
                }
                "span.close" => match field_str(rec, "name") {
                    "fsim.good" => r.good_ms += field_u64(rec, "dur_us") as f64 / 1e3,
                    "fsim.fault" => r.fault_ms += field_u64(rec, "dur_us") as f64 / 1e3,
                    _ => {}
                },
                _ => {}
            }
        }
        r
    }

    /// Summed point time, in ms.
    pub fn point_ms(&self) -> f64 {
        self.point_samples.iter().sum()
    }

    /// Summed stage time, in ms.
    pub fn stage_sum_ms(&self) -> f64 {
        self.stage_ms.values().sum()
    }

    /// Writes the stage and engine metrics of this pass. `threads` is
    /// the pool size the points ran on, `wall_ms` the pass wall, and
    /// `netlist_gates` the gates of the expansions the pass computed.
    pub fn put_layers(&self, m: &mut Metrics, wall_ms: f64, threads: usize, netlist_gates: u64) {
        let point_ms = self.point_ms();
        let per_thread = point_ms / threads.max(1) as f64;
        m.count("engine.points", self.point_samples.len() as u64);
        m.put(
            "engine.point_p50_ms",
            stats::median(&self.point_samples),
            "ms",
        );
        m.put(
            "engine.point_p95_ms",
            stats::percentile(&self.point_samples, 95.0),
            "ms",
        );
        m.put("engine.wall_ms", wall_ms, "ms");
        m.put("engine.point_ms", point_ms, "ms");
        m.put("engine.overhead_ms", wall_ms - per_thread, "ms");
        m.put(
            "engine.unattributed_ms",
            point_ms - self.stage_sum_ms(),
            "ms",
        );
        m.count("engine.retries", self.retries);
        for stage in STAGES {
            m.count(
                &format!("{stage}.calls"),
                self.stage_calls.get(stage).copied().unwrap_or(0),
            );
            m.put(
                &format!("{stage}.ms"),
                self.stage_ms.get(stage).copied().unwrap_or(0.0),
                "ms",
            );
        }
        m.count("netlist.gates", netlist_gates);
        m.put("grading.good_ms", self.good_ms, "ms");
        m.put("grading.fault_ms", self.fault_ms, "ms");
        m.count("grading.faults", self.grading_faults);
        m.count("grading.fault_evals", self.fault_evals);
        m.count("grading.dropped", self.dropped);
        let stage_line: Vec<String> = STAGES
            .iter()
            .map(|s| format!("{s} {:.1}", self.stage_ms.get(s).copied().unwrap_or(0.0)))
            .collect();
        eprintln!(
            "perfbench: accounting: stages [{}] = {:.1} ms + unattributed {:.1} ms = point time {:.1} ms; \
             point time / {} thread(s) {:.1} ms + overhead {:.1} ms = wall {:.1} ms",
            stage_line.join(", "),
            self.stage_sum_ms(),
            point_ms - self.stage_sum_ms(),
            point_ms,
            threads.max(1),
            per_thread,
            wall_ms - per_thread,
            wall_ms
        );
        if self.dropped_records > 0 {
            eprintln!(
                "perfbench: warning: the journal dropped {} records past its cap; the roll-up is partial",
                self.dropped_records
            );
        }
    }
}

/// Writes `trace.overhead_share` from the pass walls of both phases.
pub fn put_overhead(m: &mut Metrics, traced: &[Duration], untraced: &[Duration]) {
    let secs = |ws: &[Duration]| ws.iter().map(|w| stats::secs(*w)).collect::<Vec<_>>();
    m.put(
        "trace.overhead_share",
        stats::median(&secs(traced)) / stats::median(&secs(untraced)) - 1.0,
        "share",
    );
}

/// Writes the cache lookup counters and the hit share.
pub fn put_cache_stats(m: &mut Metrics, stats: &CacheStats) {
    for (stage, c) in [
        ("front", stats.front),
        ("facts", stats.facts),
        ("dft", stats.dft),
        ("netlist", stats.netlist),
        ("grading", stats.grading),
    ] {
        m.count(&format!("cache.{stage}.hits"), c.hits);
        m.count(&format!("cache.{stage}.misses"), c.misses);
        m.count(&format!("cache.{stage}.coalesced"), c.coalesced);
    }
    let lookups = stats.hits() + stats.misses() + stats.coalesced();
    m.put(
        "cache.hit_share",
        stats.hits() as f64 / lookups.max(1) as f64,
        "share",
    );
}

/// The cache counters as `(name, value)` counts that must repeat.
pub fn cache_counts(stats: &CacheStats) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (stage, c) in [
        ("front", stats.front),
        ("facts", stats.facts),
        ("dft", stats.dft),
        ("netlist", stats.netlist),
        ("grading", stats.grading),
    ] {
        out.push((format!("cache.{stage}.hits"), c.hits));
        out.push((format!("cache.{stage}.misses"), c.misses));
        out.push((format!("cache.{stage}.coalesced"), c.coalesced));
    }
    out
}

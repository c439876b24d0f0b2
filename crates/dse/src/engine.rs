//! The sweep executor: a work-stealing pool over the point list with
//! optional artifact memoization, panic isolation, per-point deadlines,
//! bounded retries, and checkpoint/resume.
//!
//! # One pipeline
//!
//! Every point runs front → facts → dft → netlist → grading → report
//! through one function whatever the cache setting. Each stage goes
//! through one memo step: with a store it is a single-flight lookup
//! under a content key (built only when a cache exists), and with the
//! cache off it is a pass-through that computes the artifact and wraps
//! it in an `Arc`.
//! So cache on and off differ only in that step and cannot drift
//! apart.
//!
//! # Determinism
//!
//! Every pipeline stage is a pure function of its inputs (grading is
//! fixed-seeded), results land in per-point slots indexed by the
//! spec's enumeration order, and the cache changes only *where* an
//! artifact is computed, never *what* it is:
//!
//! * a cached grading run is evaluated once at the sweep's deepest
//!   pattern budget and shallower budgets read a curve prefix — the
//!   batch loop of `random_pattern_run_opts` draws frames and drops
//!   faults identically whether or not later batches follow, so the
//!   prefix equals a pass-through run at the shallow budget;
//! * every other stage returns the same artifact for the same key by
//!   construction (content-derived keys over deterministic stages).
//!
//! Hence [`run_sweep`] produces the same
//! [`SweepReport::canonical_json`] bytes for any thread count and
//! either cache setting — property-tested in
//! `tests/sweep_determinism.rs` and smoke-checked in CI.
//!
//! # Fault tolerance
//!
//! A panicking point is caught ([`std::panic::catch_unwind`]) and
//! recorded as a typed [`PointError::Panic`]; the injector is a plain
//! atomic and the cache computes outside its locks, so neither can be
//! poisoned and the remaining points complete. Injected failures
//! ([`FailPlan`]) are deterministic, so reports with failures stay
//! byte-identical across thread counts and cache settings.
//!
//! # Deadlines
//!
//! [`SweepOptions::point_budget`] arms a cooperative
//! [`Deadline`](hlstb::netlist::deadline::Deadline) that the netlist
//! grading loops poll: a point that overruns reports *partial* coverage
//! flagged `timed_out` rather than hanging the pool. Note that real
//! (non-injected) timeouts depend on wall-clock behavior and therefore
//! trade away byte-determinism — a cached deep grading run truncated
//! under one point's budget serves its prefix to sibling points. A
//! zero budget is deterministic (every poll fires on first check) and
//! is what the tests pin down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlstb::flow::{DftStrategy, SynthesisFlow, SynthesizedDesign};
use hlstb::netlist::deadline::Deadline;
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::fsim::ParallelOptions;
use hlstb::netlist::random::{random_pattern_run_opts, CoveragePoint, RandomRun};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{ArtifactCache, DftOutput, Store};
use crate::checkpoint::{self, Checkpoint, RestoredSet};
use crate::error::PointError;
use crate::failpoint::{FailMode, FailPlan};
use crate::key;
use crate::report::{PointMetrics, PointRecord, SweepReport};
use crate::spec::{self, Point, SweepSpec};

/// The fixed grading seed — the same one `SynthesisFlow::grade_random`
/// uses, so sweep coverage matches a standalone graded run.
pub const SWEEP_SEED: u64 = 0xDAC_1996;

/// Reads a coverage curve at a pattern budget: the curve point of the
/// budget's last 64-pattern batch, clamped to where the run saturated
/// (a run that detects everything stops early; its final point is the
/// value every deeper budget would report).
pub fn coverage_at(curve: &[CoveragePoint], patterns: usize) -> f64 {
    let batches = patterns.div_ceil(64).max(1);
    let idx = batches.min(curve.len()).saturating_sub(1);
    curve.get(idx).map_or(0.0, |c| c.coverage_percent)
}

/// Whether a grading run's deadline truncation actually short-changed
/// a point's own budget (a curve cut past the point's budget still
/// serves a complete prefix).
fn grading_truncated(run: &RandomRun, budget: usize) -> bool {
    run.timed_out && run.curve.last().is_none_or(|c| c.patterns < budget)
}

/// How a sweep executes (never *what* it computes — except that a
/// nonzero `point_budget` may truncate grading, see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads (1 = run inline on the caller's thread).
    pub threads: usize,
    /// Memoize stage artifacts across points.
    pub cache: bool,
    /// Keep every point's full [`SynthesizedDesign`] in the outcome
    /// (memory-heavy; for post-processing passes like sequential ATPG).
    pub keep_designs: bool,
    /// Wall-clock budget per point. `None` (the default) never times
    /// out; `Some` arms the cooperative deadline the grading loops
    /// poll, and each bounded retry halves the remaining budget.
    pub point_budget: Option<Duration>,
    /// How many times a transiently failing point (panic, timeout) is
    /// retried before its typed error lands in the report. Flow errors
    /// are deterministic verdicts and are never retried.
    pub retries: u32,
    /// Print a live one-line progress meter to stderr (done/total,
    /// throughput, ETA, cache hit rate, retries/timeouts). Purely
    /// cosmetic: results and reports are unaffected.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            cache: true,
            keep_designs: false,
            point_budget: None,
            retries: 1,
            progress: false,
        }
    }
}

/// Live progress shared by the workers: one `\r`-rewritten stderr line
/// per finished point.
pub(crate) struct ProgressMeter {
    total: usize,
    t0: Instant,
    done: AtomicUsize,
    failures: AtomicUsize,
    timeouts: AtomicUsize,
}

impl ProgressMeter {
    pub(crate) fn new(total: usize, t0: Instant) -> Self {
        ProgressMeter {
            total,
            t0,
            done: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
        }
    }

    pub(crate) fn tick(
        &self,
        record: &PointRecord,
        retries: u64,
        reissued: u64,
        cache: Option<&ArtifactCache>,
    ) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        match &record.outcome {
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
            Ok(m) if m.timed_out => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
        }
        let elapsed = self.t0.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        // Restored/spliced points can push `done` past `total` (e.g. a
        // checkpoint holding duplicates of every point), so saturate
        // instead of underflowing the unsigned subtraction.
        let eta = self.total.saturating_sub(done) as f64 / rate.max(1e-9);
        let mut line = format!(
            "\rsweep: {done}/{} pts  {rate:.1} pts/s  eta {eta:.0}s",
            self.total
        );
        if let Some(c) = cache {
            line.push_str(&format!("  cache {:.0}% hit", c.stats().hit_rate_percent()));
        }
        let failures = self.failures.load(Ordering::Relaxed);
        let timeouts = self.timeouts.load(Ordering::Relaxed);
        if retries + reissued + failures as u64 + timeouts as u64 > 0 {
            line.push_str(&format!(
                "  retries {retries}  failures {failures}  timeouts {timeouts}"
            ));
            if reissued > 0 {
                line.push_str(&format!("  reissued {reissued}"));
            }
        }
        eprint!("{line}");
    }

    /// Terminates the `\r` line so the next stderr write starts clean.
    pub(crate) fn finish(&self) {
        if self.done.load(Ordering::Relaxed) > 0 {
            eprintln!();
        }
    }
}

/// Fault-tolerance inputs that don't fit in `Copy` options: the
/// injected fail plan (tests/CI) and the checkpoint configuration.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Deterministic injected failures (see [`FailPlan`]).
    pub fail_plan: Option<FailPlan>,
    /// Stream each completed point to this JSONL file.
    pub checkpoint: Option<PathBuf>,
    /// Serve points already present in `checkpoint` instead of
    /// re-evaluating them. Restored points carry no
    /// [`SynthesizedDesign`] even under
    /// [`SweepOptions::keep_designs`].
    pub resume: bool,
}

/// What [`run_sweep`] returns: the report, plus the synthesized
/// designs (point-indexed) when [`SweepOptions::keep_designs`] asked
/// for them.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The deterministic per-point report.
    pub report: SweepReport,
    /// One entry per point: `Some` when the point succeeded and
    /// `keep_designs` was set, `None` otherwise. Boxed, so a sweep that
    /// keeps no designs spends a pointer per point here, not a design.
    pub designs: Vec<Option<Box<SynthesizedDesign>>>,
    /// Checkpoint lines that failed to write (the sweep itself keeps
    /// going; nonzero means the checkpoint is incomplete).
    pub checkpoint_write_errors: usize,
}

/// The content key identifying one point across sweep runs: the
/// design's content plus every axis coordinate. Spec edits between an
/// interrupted run and its resume change the key, so stale checkpoint
/// entries miss and the point is recomputed.
pub fn point_key(spec: &SweepSpec, design_keys: &[u64], p: Point) -> u64 {
    key::combine(&[
        design_keys[p.design],
        key::hash_debug(&p.scheduler),
        key::hash_debug(&p.policy),
        key::hash_debug(&p.strategy),
        u64::from(p.width),
        p.patterns as u64,
        u64::from(spec.reset_controller),
    ])
}

/// The shared per-point evaluator: the spec's enumerated points, their
/// content keys, the stage cache, and the panic-isolated retry loop,
/// bundled so the in-process pool ([`run_sweep_with`]) and the
/// process-worker loop ([`crate::worker::worker_loop`]) evaluate
/// points through literally the same code — which is what makes the
/// multi-process splice byte-identical to a serial run by
/// construction.
pub struct PointRunner<'a> {
    spec: &'a SweepSpec,
    opts: SweepOptions,
    fail_plan: Option<FailPlan>,
    design_keys: Vec<u64>,
    points: Vec<Point>,
    point_keys: Vec<u64>,
    cache: Option<Arc<ArtifactCache>>,
    max_patterns: usize,
    retry_count: AtomicU64,
}

impl<'a> PointRunner<'a> {
    /// Builds a runner for `spec`: enumerates the points, derives the
    /// content keys, and allocates the stage cache when
    /// [`SweepOptions::cache`] asks for one. `progress` and `threads`
    /// are the caller's business — the runner only evaluates.
    pub fn new(spec: &'a SweepSpec, opts: &SweepOptions, fail_plan: Option<FailPlan>) -> Self {
        let cache = opts.cache.then(|| Arc::new(ArtifactCache::new()));
        PointRunner::build(spec, opts, fail_plan, cache)
    }

    /// Like [`PointRunner::new`], but sharing an externally owned
    /// cache — the serve daemon injects one bounded, daemon-lifetime
    /// cache here so artifacts coalesce across requests. The shared
    /// cache wins over [`SweepOptions::cache`].
    pub fn with_cache(
        spec: &'a SweepSpec,
        opts: &SweepOptions,
        fail_plan: Option<FailPlan>,
        cache: Arc<ArtifactCache>,
    ) -> Self {
        PointRunner::build(spec, opts, fail_plan, Some(cache))
    }

    fn build(
        spec: &'a SweepSpec,
        opts: &SweepOptions,
        fail_plan: Option<FailPlan>,
        cache: Option<Arc<ArtifactCache>>,
    ) -> Self {
        let points = spec.points();
        let design_keys: Vec<u64> = spec.designs.iter().map(key::hash_debug).collect();
        let point_keys: Vec<u64> = points
            .iter()
            .map(|p| point_key(spec, &design_keys, *p))
            .collect();
        PointRunner {
            spec,
            opts: *opts,
            fail_plan,
            design_keys,
            points,
            point_keys,
            cache,
            max_patterns: spec.max_patterns(),
            retry_count: AtomicU64::new(0),
        }
    }

    /// Number of points in the sweep.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the spec enumerates no points at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The content key of point `i` (checkpoint/wire identity).
    pub fn key(&self, i: usize) -> u64 {
        self.point_keys[i]
    }

    /// The stage cache, when enabled.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_deref()
    }

    /// Retry attempts so far across all evaluated points.
    pub fn retries(&self) -> u64 {
        self.retry_count.load(Ordering::Relaxed)
    }

    /// Journals point `i` entering the pipeline. Callers emit this
    /// before deciding whether the point restores from a checkpoint or
    /// evaluates, so the canonical journal shape is the same either
    /// way.
    pub fn scheduled(&self, i: usize) {
        let p = self.points[i];
        hlstb_trace::events::emit("point.scheduled", Some(p.index as u64), |e| {
            e.str("design", self.spec.designs[p.design].name())
                .str("strategy", &spec::strategy_name(p.strategy));
        });
    }

    /// Appends point `i`'s canonical record to the checkpoint — the one
    /// append of every sweep mode (in-process pool, worker splice,
    /// inline fallback). The `io:` fail-point targets the append
    /// itself: the point evaluated fine, only its write "fails" —
    /// exactly what a real ENOSPC looks like. A failed write counts in
    /// `errors` and latches the checkpoint into its degraded no-op.
    pub(crate) fn checkpoint(
        &self,
        ck: &Checkpoint,
        i: usize,
        canonical: &str,
        errors: &AtomicUsize,
    ) {
        let index = self.points[i].index;
        let injected = self.fail_plan.as_ref().and_then(|fp| fp.mode(index)) == Some(FailMode::Io)
            && !ck.degraded();
        let written = if injected {
            Err(PointError::Io {
                message: format!("checkpoint write: injected io fail-point at point {index}"),
            })
        } else {
            ck.record(self.point_keys[i], index, canonical)
        };
        if let Err(e) = written {
            errors.fetch_add(1, Ordering::Relaxed);
            ck.degrade(&e.to_string());
        }
    }

    /// Evaluates point `i` — panic-isolated, deadline-armed, retried —
    /// and journals its completion or typed failure.
    pub fn eval(&self, i: usize) -> (PointRecord, Option<SynthesizedDesign>) {
        let p = self.points[i];
        let idx = p.index as u64;
        let point_span = hlstb_trace::span("dse.point");
        let t = Instant::now();
        let (outcome, design) = eval_with_retry(
            self.spec,
            &self.design_keys,
            p,
            self.cache.as_deref(),
            self.max_patterns,
            &self.opts,
            self.fail_plan.as_ref(),
            &self.retry_count,
        );
        point_span.end();
        let record = make_record(self.spec, p, outcome, t.elapsed());
        match &record.outcome {
            Ok(m) => hlstb_trace::events::emit("point.completed", Some(idx), |e| {
                if let Some(cov) = m.coverage_percent {
                    e.f64("coverage_percent", cov);
                }
                e.bool("timed_out", m.timed_out)
                    .volatile_u64("wall_us", record.wall.as_micros() as u64);
            }),
            Err(err) => hlstb_trace::events::emit("point.failed", Some(idx), |e| {
                e.str("error", err.kind())
                    .volatile_str("message", err.message())
                    .volatile_u64("wall_us", record.wall.as_micros() as u64);
            }),
        }
        (record, design)
    }
}

/// Runs every point of `spec` and collects a [`SweepReport`] ordered
/// by point index regardless of completion order.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepOutcome {
    run_sweep_with(spec, opts, &Recovery::default())
        .expect("a sweep without checkpoint I/O cannot fail to start")
}

/// [`run_sweep`] with fault-tolerance inputs: fail-point injection and
/// checkpoint/resume.
///
/// # Errors
///
/// Returns [`PointError::Io`] when the checkpoint cannot be opened or
/// the resume file cannot be read. Per-point failures never fail the
/// sweep — they land as typed errors in the report.
pub fn run_sweep_with(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
) -> Result<SweepOutcome, PointError> {
    let sweep_span = hlstb_trace::span("dse.sweep");
    let t0 = Instant::now();
    let runner = PointRunner::new(spec, opts, recovery.fail_plan.clone());
    let points = &runner.points;
    let restored_set = match (&recovery.checkpoint, recovery.resume) {
        (Some(path), true) => Some(RestoredSet::load(path)?),
        (None, true) => {
            return Err(PointError::Io {
                message: "resume requested without a checkpoint path".into(),
            })
        }
        _ => None,
    };
    let writer = match &recovery.checkpoint {
        Some(path) => Some(Checkpoint::open_append(path)?),
        None => None,
    };
    type Slot = Mutex<Option<(PointRecord, Option<Box<SynthesizedDesign>>)>>;
    let slots: Vec<Slot> = points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let restored_count = AtomicUsize::new(0);
    let checkpoint_errors = AtomicUsize::new(0);
    let meter = opts.progress.then(|| ProgressMeter::new(points.len(), t0));
    hlstb_trace::events::emit("sweep.begin", None, |e| {
        e.u64("points", points.len() as u64)
            .volatile_u64("threads", opts.threads as u64)
            .volatile_bool("cache", opts.cache);
    });
    // Work stealing via a shared injector: each worker claims the next
    // unclaimed index until the list is drained, so a slow point never
    // stalls the remaining work. The injector is a plain atomic and
    // each slot lock is only held for the final store, so a panicking
    // point (caught below) can poison neither.
    let worker = |lane: u32| {
        hlstb_trace::events::set_worker(lane);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= points.len() {
                break;
            }
            let p = points[i];
            runner.scheduled(i);
            if let Some(set) = &restored_set {
                let hit = set
                    .lookup(runner.key(i), p.index)
                    .and_then(checkpoint::record_from_canonical);
                if let Some(record) = hit {
                    restored_count.fetch_add(1, Ordering::Relaxed);
                    hlstb_trace::events::emit("point.restored", Some(p.index as u64), |_| {});
                    if let Some(m) = &meter {
                        m.tick(&record, runner.retries(), 0, runner.cache());
                    }
                    *slots[i].lock().expect("slot lock") = Some((record, None));
                    continue;
                }
            }
            let (record, design) = runner.eval(i);
            if let Some(m) = &meter {
                m.tick(&record, runner.retries(), 0, runner.cache());
            }
            if let Some(ck) = &writer {
                runner.checkpoint(ck, i, &record.canonical_point_json(), &checkpoint_errors);
            }
            *slots[i].lock().expect("slot lock") = Some((record, design.map(Box::new)));
        }
    };
    let threads = opts.threads.max(1).min(points.len().max(1));
    if threads <= 1 {
        worker(0);
    } else {
        // `&worker` is Copy, so every spawn can share the one closure;
        // each thread gets a lane id for the journal's worker column.
        let worker = &worker;
        std::thread::scope(|s| {
            for lane in 0..threads {
                s.spawn(move || worker(lane as u32));
            }
        });
    }
    if let Some(m) = &meter {
        m.finish();
    }
    let mut records = Vec::with_capacity(points.len());
    let mut designs = Vec::with_capacity(points.len());
    let mut cpu = Duration::ZERO;
    for slot in slots {
        let (record, design) = slot
            .into_inner()
            .expect("slot lock")
            .expect("every point evaluated");
        cpu += record.wall;
        records.push(record);
        designs.push(design);
    }
    hlstb_trace::counter("dse.points", records.len() as u64);
    hlstb_trace::events::emit("sweep.end", None, |e| {
        e.u64("points", records.len() as u64)
            .u64(
                "failures",
                records.iter().filter(|r| r.outcome.is_err()).count() as u64,
            )
            .volatile_u64("wall_ms", t0.elapsed().as_millis() as u64)
            .volatile_u64("retries", runner.retries());
    });
    sweep_span.end();
    Ok(SweepOutcome {
        report: SweepReport {
            points: records,
            threads,
            workers: 0,
            cache: runner.cache().map(ArtifactCache::stats),
            wall: t0.elapsed(),
            cpu,
            restored: restored_count.into_inner(),
            retries: runner.retries(),
            reissued: 0,
            checkpoint_degraded: writer.as_ref().is_some_and(Checkpoint::degraded),
        },
        designs,
        checkpoint_write_errors: checkpoint_errors.into_inner(),
    })
}

fn make_record(
    spec: &SweepSpec,
    p: Point,
    outcome: Result<PointMetrics, PointError>,
    wall: Duration,
) -> PointRecord {
    PointRecord {
        index: p.index,
        design: spec.designs[p.design].name().to_string(),
        scheduler: spec::scheduler_name(p.scheduler),
        policy: spec::policy_name(p.policy).to_string(),
        strategy: spec::strategy_name(p.strategy),
        width: p.width,
        patterns: p.patterns,
        outcome,
        wall,
        restored: None,
    }
}

/// Renders a caught panic payload (the two shapes `panic!` produces,
/// plus a fallback for exotic payloads).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Panic-isolated, deadline-armed, bounded-retry evaluation of one
/// point. Panics and timeouts retry up to `opts.retries` times with a
/// halved budget each attempt; flow errors are final on first sight.
#[allow(clippy::too_many_arguments)]
fn eval_with_retry(
    spec: &SweepSpec,
    design_keys: &[u64],
    p: Point,
    cache: Option<&ArtifactCache>,
    max_patterns: usize,
    opts: &SweepOptions,
    fail_plan: Option<&FailPlan>,
    retry_count: &AtomicU64,
) -> (Result<PointMetrics, PointError>, Option<SynthesizedDesign>) {
    let injected = fail_plan.and_then(|f| f.mode(p.index));
    let mut attempt: u32 = 0;
    loop {
        let deadline = match opts.point_budget {
            Some(b) => Deadline::after(b / 2u32.saturating_pow(attempt.min(20))),
            None => Deadline::none(),
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            eval_point(
                spec,
                design_keys,
                p,
                cache,
                max_patterns,
                opts.keep_designs,
                deadline,
                injected,
                attempt,
            )
        }));
        let error = match caught {
            Ok(Ok((metrics, design))) => return (Ok(metrics), design),
            Ok(Err(e)) => e,
            Err(payload) => PointError::Panic {
                message: panic_message(payload),
            },
        };
        if error.retryable() && attempt < opts.retries {
            attempt += 1;
            retry_count.fetch_add(1, Ordering::Relaxed);
            hlstb_trace::events::emit("point.retry", Some(p.index as u64), |e| {
                e.u64("attempt", u64::from(attempt))
                    .str("error", error.kind());
            });
            continue;
        }
        return (Err(error), None);
    }
}

type PointOutput = (PointMetrics, Option<SynthesizedDesign>);

/// One attempt at point `p`: the injected failure, if any, then the
/// point pipeline front → facts → dft → netlist → grading → report,
/// each stage through [`stage`]'s memo step, so both cache settings
/// run literally the same composition. Stage keys, in dependency
/// order, are built only when a cache asks for them:
///
/// * front end — design content + scheduler + policy (the integrated
///   loop-avoidance strategy replaces the scheduler/policy pair, so it
///   keys on the design + a marker instead);
/// * S-graph facts — same key as the front end (strategy-independent);
/// * DFT output — front-end key + strategy;
/// * netlist — *content* of the marked data path + width (+ reset
///   flag), so every strategy that leaves identical marks (all four
///   no-scan strategies: none, both BISTs, k-level points) shares one
///   expansion;
/// * grading run — the netlist key + the sweep's deepest budget, at
///   which a cached run is evaluated once and read as a prefix for
///   shallower ones. The depth is part of the key because a cache
///   shared across sweeps (the serve daemon's) must not serve a
///   shallower run to a deeper sweep. Uncached, a point grades at its
///   own budget; [`coverage_at`] reads both curves identically.
#[allow(clippy::too_many_arguments)]
fn eval_point(
    spec: &SweepSpec,
    design_keys: &[u64],
    p: Point,
    cache: Option<&ArtifactCache>,
    max_patterns: usize,
    keep: bool,
    deadline: Deadline,
    injected: Option<FailMode>,
    attempt: u32,
) -> Result<PointOutput, PointError> {
    match injected {
        Some(FailMode::Panic) => panic!("injected panic at point {}", p.index),
        Some(FailMode::Flaky) if attempt == 0 => {
            panic!("injected flaky panic at point {} (attempt 0)", p.index)
        }
        Some(FailMode::Stall) => {
            // A stall burns its whole budget (really sleeping it off
            // when one is set) and yields nothing — the deterministic
            // stand-in for a pathological runaway point.
            if let Some(remaining) = deadline.remaining() {
                std::thread::sleep(remaining);
            }
            return Err(PointError::Timeout {
                message: format!("injected stall at point {}: budget exhausted", p.index),
            });
        }
        _ => {}
    }
    let design = &spec.designs[p.design];
    let flow = SynthesisFlow::new(design.clone())
        .scheduler(p.scheduler)
        .register_policy(p.policy)
        .strategy(p.strategy)
        .width(p.width)
        .reset_controller(spec.reset_controller);
    let front_key = cache.map(|c| {
        let k = if p.strategy == DftStrategy::SimultaneousLoopAvoidance {
            key::combine(&[design_keys[p.design], key::hash_debug("simsched")])
        } else {
            key::combine(&[
                design_keys[p.design],
                key::hash_debug(&p.scheduler),
                key::hash_debug(&p.policy),
            ])
        };
        (c, k)
    });
    let fe = stage(p, "front", front_key.map(|(c, k)| (&c.front, k)), || {
        flow.front_end().map_err(PointError::from)
    })?;
    let facts = stage(p, "facts", front_key.map(|(c, k)| (&c.facts, k)), || {
        Ok(SynthesisFlow::sgraph_facts(&fe.datapath))
    })?;
    // The DFT stage consumes the front end: an unshared (uncached) one
    // is marked in place, a cached one is cloned first.
    let kept = keep.then(|| (fe.schedule.clone(), fe.binding.clone()));
    let dft_key =
        front_key.map(|(c, k)| (&c.dft, key::combine(&[k, key::hash_debug(&p.strategy)])));
    let dft = stage(p, "dft", dft_key, || {
        let mut fe = Arc::unwrap_or_clone(fe);
        let plans = flow.apply_dft(&mut fe);
        Ok(DftOutput {
            datapath: fe.datapath,
            plans,
        })
    })?;
    let nl_key = cache.map(|c| {
        let k = key::combine(&[
            key::hash_debug(&dft.datapath),
            u64::from(p.width),
            u64::from(spec.reset_controller),
        ]);
        (c, k)
    });
    let expanded = stage(p, "netlist", nl_key.map(|(c, k)| (&c.netlist, k)), || {
        flow.expand_netlist(&dft.datapath).map_err(PointError::from)
    })?;
    let (coverage_percent, timed_out) = if p.patterns > 0 {
        let budget = if cache.is_some() {
            max_patterns
        } else {
            p.patterns
        };
        let grading_key =
            nl_key.map(|(c, k)| (&c.grading, key::combine(&[k, max_patterns as u64])));
        let run = stage(p, "grading", grading_key, || {
            let faults = collapsed_faults(&expanded.netlist);
            let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
            let (run, gstats) = random_pattern_run_opts(
                &expanded.netlist,
                &faults,
                budget,
                &mut rng,
                &grade_opts(deadline),
            );
            grading_event(p, &gstats);
            Ok(run)
        })?;
        (
            Some(coverage_at(&run.curve, p.patterns)),
            grading_truncated(&run, p.patterns),
        )
    } else {
        (None, false)
    };
    let t = Instant::now();
    let report = flow.build_report(&dft.datapath, &expanded, dft.plans.bist.as_ref(), &facts);
    stage_event(p, "report", cache.is_none().then_some("off"), t.elapsed());
    let design_out = kept.map(|(schedule, binding)| {
        let dft = Arc::unwrap_or_clone(dft);
        SynthesizedDesign {
            cdfg: design.clone(),
            schedule,
            binding,
            datapath: dft.datapath,
            expanded: Arc::unwrap_or_clone(expanded),
            report: report.clone(),
            bist_plan: dft.plans.bist,
            kcontrol_plan: dft.plans.kcontrol,
        }
    });
    Ok((
        PointMetrics {
            report,
            coverage_percent,
            timed_out,
        },
        design_out,
    ))
}

fn grade_opts(deadline: Deadline) -> ParallelOptions {
    ParallelOptions {
        deadline,
        ..ParallelOptions::default()
    }
}

/// Journals one pipeline-stage completion for a point. The stage name
/// is a stable coordinate; the cache label and wall time ride volatile
/// (racing workers flip hit/miss/coalesced, and the canonical
/// projection must stay byte-identical across cache settings). A stage
/// with no store in a cached sweep (the report) carries no label.
fn stage_event(p: Point, stage: &'static str, cache: Option<&'static str>, wall: Duration) {
    hlstb_trace::events::emit("point.stage", Some(p.index as u64), |e| {
        e.str("stage", stage);
        if let Some(label) = cache {
            e.volatile_str("cache", label);
        }
        e.volatile_u64("wall_us", wall.as_micros() as u64);
    });
}

/// One pipeline stage through its memo step, timed and journaled. With
/// a store and its key, the artifact is a single-flight lookup; with
/// none, `compute` runs and its result is wrapped in an `Arc` as a
/// pass-through, labelled `off`.
fn stage<T>(
    p: Point,
    name: &'static str,
    memo: Option<(&Store<T>, u64)>,
    compute: impl FnOnce() -> Result<T, PointError>,
) -> Result<Arc<T>, PointError> {
    let t = Instant::now();
    let (value, label) = match memo {
        Some((store, key)) => {
            let (v, outcome) = store.get_or_try(key, compute)?;
            (v, outcome.label())
        }
        None => (Arc::new(compute()?), "off"),
    };
    stage_event(p, name, Some(label), t.elapsed());
    Ok(value)
}

/// Journals a grading run's work counters against the point whose
/// compute produced them. Entirely volatile: under a warm cache only
/// the one point that computed the shared run emits this, and which
/// point that is races under threading.
fn grading_event(p: Point, stats: &hlstb::netlist::stats::GradeStats) {
    hlstb_trace::events::emit_volatile("point.grading", Some(p.index as u64), |e| {
        e.volatile_u64("faults", stats.faults as u64)
            .volatile_u64("frames", stats.frames as u64)
            .volatile_u64("fault_evals", stats.fault_evals)
            .volatile_u64("screened", stats.screened)
            .volatile_u64("dropped", stats.dropped)
            .volatile_u64("unobservable", stats.unobservable)
            .volatile_u64("stem_memo_hits", stats.stem_memo_hits)
            .volatile_u64("stem_memo_misses", stats.stem_memo_misses)
            .volatile_u64("flip_events", stats.flip_events)
            .volatile_u64("early_exits", stats.early_exits);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb::cdfg::benchmarks;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::BistShared,
        ];
        spec.patterns = vec![64, 128];
        spec
    }

    #[test]
    fn coverage_at_reads_prefixes_and_clamps() {
        let curve = vec![
            CoveragePoint {
                patterns: 64,
                coverage_percent: 40.0,
            },
            CoveragePoint {
                patterns: 128,
                coverage_percent: 70.0,
            },
            CoveragePoint {
                patterns: 192,
                coverage_percent: 100.0,
            },
        ];
        assert_eq!(coverage_at(&curve, 0), 40.0);
        assert_eq!(coverage_at(&curve, 64), 40.0);
        assert_eq!(coverage_at(&curve, 100), 70.0);
        assert_eq!(coverage_at(&curve, 128), 70.0);
        assert_eq!(coverage_at(&curve, 192), 100.0);
        // Budgets past saturation clamp to the final point.
        assert_eq!(coverage_at(&curve, 10_000), 100.0);
        assert_eq!(coverage_at(&[], 64), 0.0);
    }

    #[test]
    fn cache_hits_never_change_a_points_report() {
        let spec = tiny_spec();
        let cached = run_sweep(
            &spec,
            &SweepOptions {
                cache: true,
                ..SweepOptions::default()
            },
        );
        let direct = run_sweep(
            &spec,
            &SweepOptions {
                cache: false,
                ..SweepOptions::default()
            },
        );
        let stats = cached.report.cache.expect("cache enabled");
        assert!(stats.hits() > 0, "{stats:?}");
        assert!(direct.report.cache.is_none());
        assert_eq!(
            cached.report.canonical_json(),
            direct.report.canonical_json()
        );
    }

    #[test]
    fn threaded_sweep_is_byte_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_sweep(
            &spec,
            &SweepOptions {
                threads: 1,
                cache: false,
                ..SweepOptions::default()
            },
        );
        let threaded = run_sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                cache: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(
            serial.report.canonical_json(),
            threaded.report.canonical_json()
        );
        assert!(threaded.report.threads > 1);
    }

    #[test]
    fn sweep_coverage_matches_a_standalone_graded_flow() {
        // The cached prefix read must agree with SynthesisFlow's own
        // grading (same seed, same engine) at the same budget.
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::FullScan];
        spec.patterns = vec![128, 256];
        let out = run_sweep(&spec, &SweepOptions::default());
        let standalone = SynthesisFlow::new(benchmarks::figure1())
            .strategy(DftStrategy::FullScan)
            .grade_random(128)
            .run()
            .unwrap();
        let got = out.report.points[0]
            .outcome
            .as_ref()
            .unwrap()
            .coverage_percent
            .unwrap();
        assert_eq!(
            got,
            standalone.report.grading.as_ref().unwrap().coverage_percent
        );
    }

    #[test]
    fn keep_designs_returns_point_indexed_designs() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
        let out = run_sweep(
            &spec,
            &SweepOptions {
                keep_designs: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(out.designs.len(), 2);
        let none = out.designs[0].as_ref().expect("kept");
        let full = out.designs[1].as_ref().expect("kept");
        assert_eq!(none.report.scan_registers, 0);
        assert_eq!(full.report.scan_registers, full.report.registers);
        // Dropping the request drops the payloads.
        let without = run_sweep(&spec, &SweepOptions::default());
        assert!(without.designs.iter().all(Option::is_none));
    }

    #[test]
    fn kept_designs_agree_across_cache_settings() {
        let mut spec = tiny_spec();
        spec.strategies.push(DftStrategy::BehavioralPartialScan);
        let keep = |cache: bool| {
            run_sweep(
                &spec,
                &SweepOptions {
                    cache,
                    keep_designs: true,
                    ..SweepOptions::default()
                },
            )
            .designs
        };
        let cached = keep(true);
        let uncached = keep(false);
        assert_eq!(cached.len(), spec.points().len());
        assert!(cached.iter().all(Option::is_some));
        assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
    }

    #[test]
    fn shared_cache_never_serves_a_shallower_grading_run() {
        // A daemon-lifetime cache sees a 64-pattern sweep and then a
        // 1024-pattern sweep of the same netlists; the deeper sweep
        // must report what it would have computed on its own.
        let mut shallow = SweepSpec::new(vec![benchmarks::diffeq(), benchmarks::ewf()]);
        shallow.strategies = vec![DftStrategy::FullScan];
        shallow.widths = vec![8];
        shallow.patterns = vec![64];
        let mut deep = shallow.clone();
        deep.patterns = vec![1024];
        let opts = SweepOptions::default();
        let cache = Arc::new(ArtifactCache::new());
        let eval_all = |spec: &SweepSpec| {
            let runner = PointRunner::with_cache(spec, &opts, None, Arc::clone(&cache));
            (0..runner.len())
                .map(|i| runner.eval(i).0.outcome.expect("point ok"))
                .collect::<Vec<_>>()
        };
        let first = eval_all(&shallow);
        let got = eval_all(&deep);
        let fresh = run_sweep(&deep, &opts);
        for (i, (g, f)) in got.iter().zip(&fresh.report.points).enumerate() {
            let f = f.outcome.as_ref().expect("point ok");
            assert_eq!(g, f, "point {i}");
            // Guard: the two depths really differ, or the check is moot.
            assert_ne!(first[i].coverage_percent, f.coverage_percent, "point {i}");
        }
    }

    #[test]
    fn no_scan_strategies_share_one_netlist_and_grading_run() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![
            DftStrategy::None,
            DftStrategy::BistNaive,
            DftStrategy::BistShared,
            DftStrategy::KLevelTestPoints(2),
        ];
        spec.patterns = vec![128];
        let out = run_sweep(&spec, &SweepOptions::default());
        let stats = out.report.cache.unwrap();
        // One expansion and one grading run serve all four strategies.
        assert_eq!(stats.netlist.misses, 1, "{stats:?}");
        assert_eq!(stats.netlist.hits, 3, "{stats:?}");
        assert_eq!(stats.grading.misses, 1, "{stats:?}");
        assert_eq!(stats.grading.hits, 3, "{stats:?}");
        // ... and one front end serves everything.
        assert_eq!(stats.front.misses, 1, "{stats:?}");
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(1, FailMode::Panic);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let out = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert_eq!(out.report.points.len(), 6);
        assert_eq!(out.report.errors().len(), 1);
        let (idx, err) = out.report.errors()[0];
        assert_eq!(idx, 1);
        assert_eq!(err.kind(), "panic");
        assert!(err.message().contains("injected panic at point 1"));
        // The cache survived the panic and kept serving other points.
        assert!(out.report.cache.unwrap().hits() > 0);
        // The default policy retried the panic once before giving up.
        assert_eq!(out.report.retries, 1);
    }

    #[test]
    fn flaky_point_succeeds_via_retry_and_fails_without() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(2, FailMode::Flaky);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let with_retry = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert!(with_retry.report.errors().is_empty());
        assert_eq!(with_retry.report.retries, 1);
        let no_retry = run_sweep_with(
            &spec,
            &SweepOptions {
                retries: 0,
                ..SweepOptions::default()
            },
            &recovery,
        )
        .unwrap();
        assert_eq!(no_retry.report.errors().len(), 1);
        assert_eq!(no_retry.report.errors()[0].1.kind(), "panic");
    }

    #[test]
    fn injected_stall_reports_a_timeout() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(0, FailMode::Stall);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let out = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert_eq!(out.report.errors().len(), 1);
        assert_eq!(out.report.errors()[0].1.kind(), "timeout");
        assert_eq!(out.report.timeouts(), 1);
        // Stalls are transient by taxonomy, so the policy retried once.
        assert_eq!(out.report.retries, 1);
    }

    #[test]
    fn zero_point_budget_truncates_grading_deterministically() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::FullScan];
        spec.patterns = vec![256];
        let opts = SweepOptions {
            point_budget: Some(Duration::ZERO),
            ..SweepOptions::default()
        };
        let a = run_sweep(&spec, &opts);
        let m = a.report.points[0].outcome.as_ref().unwrap();
        assert!(m.timed_out, "zero budget must truncate a 256-pattern run");
        assert!(m.coverage_percent.is_some(), "partial coverage reported");
        assert_eq!(a.report.timeouts(), 1);
        // Expired-from-the-start deadlines are deterministic: cache and
        // thread settings still agree byte-for-byte.
        let b = run_sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                cache: false,
                ..opts
            },
        );
        assert_eq!(a.report.canonical_json(), b.report.canonical_json());
        // Without a budget the same point grades the full 256 patterns.
        let full = run_sweep(&spec, &SweepOptions::default());
        let fm = full.report.points[0].outcome.as_ref().unwrap();
        assert!(!fm.timed_out);
        assert!(fm.coverage_percent.unwrap() >= m.coverage_percent.unwrap());
    }

    /// Regression: ticking the meter past `total` (restored/spliced
    /// points can outnumber the planned set) must saturate the ETA
    /// subtraction, not underflow and panic in debug builds.
    #[test]
    fn progress_meter_ticking_past_total_does_not_underflow() {
        let meter = ProgressMeter::new(1, Instant::now());
        let record = PointRecord {
            index: 0,
            design: "figure1".to_string(),
            scheduler: "list".to_string(),
            policy: "left_edge".to_string(),
            strategy: "none".to_string(),
            width: 8,
            patterns: 0,
            outcome: Err(PointError::Io {
                message: "injected".into(),
            }),
            wall: Duration::ZERO,
            restored: None,
        };
        meter.tick(&record, 0, 0, None);
        meter.tick(&record, 1, 2, None); // done=2 > total=1
        meter.finish();
    }

    #[test]
    fn resume_without_checkpoint_path_is_an_io_error() {
        let spec = tiny_spec();
        let recovery = Recovery {
            resume: true,
            ..Recovery::default()
        };
        let err = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}

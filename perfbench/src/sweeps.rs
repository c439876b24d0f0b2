//! The `scoreboard` and `structural` workloads: whole sweeps through
//! `hlstb_dse::run_sweep`.
//!
//! * `scoreboard` — the 297-point scoreboard (9 built-in designs × 11
//!   strategies × budgets {128, 512, 1024}), one thread, cache on: the
//!   spec and configuration of `exp_dse`'s `serial-cache` run, so
//!   grading dominates. Nothing in it is generated; the seed only picks
//!   the points the output check re-runs.
//! * `structural` — no grading, cache off, two threads, over the
//!   built-in designs plus seeded random behaviors × 4 schedulers × 6
//!   register policies × 11 strategies × widths {4, 8}: every HLS, DFT
//!   and expansion stage runs for every point on the uncached path.

use std::time::{Duration, Instant};

use hlstb::cdfg::benchmarks::{self, random_cdfg, RandomCdfgParams};
use hlstb::cdfg::Cdfg;
use hlstb::flow::{RegisterPolicy, Scheduler};
use hlstb_dse::engine::PointRunner;
use hlstb_dse::{run_sweep, CacheStats, Point, SweepOptions, SweepOutcome, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self, Rollup};
use crate::stats::{self, Metrics};
use crate::{assert_untraced, checks, counts, Ctx, Outcome};

/// Fewest measured passes per phase, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Designs with at most this many operations form the small class of
/// `small_op_p90_ms`.
pub const SMALL_OPS: usize = 10;
/// Seeded random behaviors added to the structural sweep.
const STRUCTURAL_RANDOM_DESIGNS: usize = 3;
/// Shape of those behaviors; only their wiring and operator mix vary
/// with the seed.
const STRUCTURAL_RANDOM: RandomCdfgParams = RandomCdfgParams {
    ops: 10,
    inputs: 3,
    states: 2,
    mul_percent: 20,
};

#[derive(Clone, Copy)]
enum Kind {
    Scoreboard,
    Structural,
}

/// Seeded random behaviors for the workloads that take generated
/// designs. Each design draws from its own stream of the seed.
pub fn random_designs(seed: u64, n: usize, params: RandomCdfgParams) -> Vec<Cdfg> {
    (0..n)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
            random_cdfg(params, &mut rng)
        })
        .collect()
}

struct Setup {
    spec: SweepSpec,
    opts: SweepOptions,
    points: Vec<Point>,
}

fn setup(kind: Kind, seed: u64) -> Setup {
    let (spec, opts) = match kind {
        Kind::Scoreboard => {
            let mut spec = SweepSpec::all_benchmarks();
            spec.patterns = vec![128, 512, 1024];
            (spec, SweepOptions::default())
        }
        Kind::Structural => {
            let mut designs = benchmarks::all();
            designs.extend(random_designs(
                seed,
                STRUCTURAL_RANDOM_DESIGNS,
                STRUCTURAL_RANDOM,
            ));
            let mut spec = SweepSpec::new(designs);
            spec.schedulers = vec![
                Scheduler::List,
                Scheduler::IoAware,
                Scheduler::Asap,
                Scheduler::ForceDirected(1),
            ];
            spec.policies = vec![
                RegisterPolicy::LeftEdge,
                RegisterPolicy::Dsatur,
                RegisterPolicy::IoMax,
                RegisterPolicy::Boundary,
                RegisterPolicy::LoopAvoiding,
                RegisterPolicy::Avra,
            ];
            spec.widths = vec![4, 8];
            let opts = SweepOptions {
                threads: 2,
                cache: false,
                ..SweepOptions::default()
            };
            (spec, opts)
        }
    };
    let points = spec.points();
    Setup { spec, opts, points }
}

/// What one measured pass leaves behind. The first pass's whole
/// outcome is kept apart for the output checks; later passes keep only
/// their numbers, so memory does not grow with the pass count.
struct Pass {
    wall: Duration,
    point_ms: Vec<f64>,
    failed: u64,
    timeouts: u64,
    threads: usize,
    cache: Option<CacheStats>,
    rollup: Option<Rollup>,
    /// Gates of the expansions this pass computed (traced passes).
    netlist_gates: u64,
}

/// The first pass's outcome and canonical report; every later pass is
/// compared with it.
struct First {
    outcome: SweepOutcome,
    canonical: String,
    mismatches: usize,
}

fn pass(s: &Setup, traced: bool, first: &mut Option<First>) -> Pass {
    if traced {
        hlstb_trace::events::reset();
        hlstb_trace::events::set_enabled(true);
    } else {
        assert_untraced();
    }
    let t = Instant::now();
    let outcome = run_sweep(&s.spec, &s.opts);
    let wall = t.elapsed();
    let rollup = if traced {
        hlstb_trace::events::set_enabled(false);
        Some(Rollup::of(&hlstb_trace::events::drain()))
    } else {
        assert_untraced();
        None
    };
    let report = &outcome.report;
    let gates = |i: &u64| {
        report
            .points
            .get(*i as usize)
            .and_then(|r| r.outcome.as_ref().ok())
            .map_or(0, |m| m.report.gates as u64)
    };
    let done = Pass {
        wall,
        point_ms: report.points.iter().map(|r| stats::ms(r.wall)).collect(),
        failed: report
            .points
            .iter()
            .filter(|r| r.outcome.as_ref().map_or(true, |m| m.timed_out))
            .count() as u64,
        timeouts: report.timeouts() as u64,
        threads: report.threads,
        cache: report.cache,
        netlist_gates: rollup
            .as_ref()
            .map_or(0, |r| r.netlist_points.iter().map(gates).sum()),
        rollup,
    };
    let canonical = report.canonical_json();
    match first {
        Some(f) => f.mismatches += usize::from(canonical != f.canonical),
        None => {
            *first = Some(First {
                outcome,
                canonical,
                mismatches: 0,
            })
        }
    }
    done
}

/// The counts of one pass that must repeat for a seed.
fn pass_counts(p: &Pass) -> Vec<(String, u64)> {
    let mut out = p
        .cache
        .as_ref()
        .map(layers::cache_counts)
        .unwrap_or_default();
    if let Some(r) = &p.rollup {
        out.push(("grading.fault_evals".into(), r.fault_evals));
        out.push(("netlist.gates".into(), p.netlist_gates));
    }
    out
}

/// The `scoreboard` workload.
pub fn scoreboard(ctx: &Ctx) -> Outcome {
    run(ctx, Kind::Scoreboard, 12)
}

/// The `structural` workload.
pub fn structural(ctx: &Ctx) -> Outcome {
    run(ctx, Kind::Structural, 24)
}

fn run(ctx: &Ctx, kind: Kind, check_points: usize) -> Outcome {
    let (s, setup_times) = ctx.setup(|| setup(kind, ctx.seed));
    let mut first = None;
    let phases = ctx.passes(MIN_PASSES, |traced| pass(&s, traced, &mut first));
    let (untraced, traced) = (&phases.untraced, &phases.traced);

    // Output checks, outside every timed region.
    let first = first.expect("at least one pass ran");
    let mut correct = first.mismatches == 0;
    if !correct {
        eprintln!(
            "perfbench: {} passes produced a canonical report different from the first",
            first.mismatches
        );
    }
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5EED_C4EC);
    for i in checks::sample_indices(s.points.len(), check_points, &mut rng) {
        if let Err(e) = checks::sweep_point(
            &s.spec,
            s.points[i],
            &first.outcome.report.points[i],
            &mut rng,
        ) {
            eprintln!("perfbench: check failed: {e}");
            correct = false;
        }
    }

    let attempted = (s.points.len() * untraced.len()) as u64;
    let failed: u64 = untraced.iter().map(|p| p.failed).sum();
    let untraced_counts: Vec<_> = untraced.iter().map(pass_counts).collect();
    let traced_counts: Vec<_> = traced.iter().map(pass_counts).collect();
    let mut unstable_counts = counts::unstable_between_passes(&untraced_counts);
    unstable_counts.extend(counts::unstable_between_passes(&traced_counts));
    let counts = traced_counts.first().unwrap_or(&untraced_counts[0]).clone();

    let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall).collect::<Vec<_>>();
    let metrics = if ctx.trace {
        let mut m = layers::zeroed();
        let mid = &traced[stats::median_index(&walls(traced))];
        let rollup = mid.rollup.as_ref().expect("traced pass has a roll-up");
        rollup.put_layers(&mut m, stats::ms(mid.wall), mid.threads, mid.netlist_gates);
        m.count("engine.timeouts", mid.timeouts);
        if let Some(c) = &mid.cache {
            layers::put_cache_stats(&mut m, c);
            let occupancy = cache_occupancy(&s);
            m.count("cache.entries", occupancy.entries());
            m.put("cache.bytes", occupancy.bytes() as f64, "bytes");
            m.count("cache.evictions", occupancy.evictions());
        }
        layers::put_overhead(&mut m, &walls(traced), &walls(untraced));
        m
    } else {
        let mut m = Metrics::default();
        let mut op = Vec::new();
        let mut small = Vec::new();
        for p in untraced {
            for (&ms, pt) in p.point_ms.iter().zip(&s.points) {
                op.push(ms);
                if s.spec.designs[pt.design].num_ops() <= SMALL_OPS {
                    small.push(ms);
                }
            }
        }
        put_end_to_end(
            &mut m,
            &setup_times,
            &walls(untraced),
            &op,
            &small,
            attempted,
            failed,
            phases.peak_rss_mb,
        );
        m
    };
    eprintln!(
        "perfbench: {} points/pass, {} untraced + {} traced passes",
        s.points.len(),
        untraced.len(),
        traced.len()
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        counts,
        unstable_counts,
    }
}

/// The cache occupancy a serial evaluation of the spec leaves behind:
/// `run_sweep` drops its per-sweep cache, so the traced run replays the
/// points through a `PointRunner` (untimed) and reads the occupancy.
fn cache_occupancy(s: &Setup) -> hlstb_dse::cache::CacheOccupancy {
    let runner = PointRunner::new(&s.spec, &s.opts, None);
    for i in 0..runner.len() {
        runner.scheduled(i);
        std::hint::black_box(runner.eval(i));
    }
    runner
        .cache()
        .map(hlstb_dse::ArtifactCache::occupancy)
        .unwrap_or_default()
}

/// Writes the end-to-end metrics every workload prints.
#[allow(clippy::too_many_arguments)]
pub fn put_end_to_end(
    m: &mut Metrics,
    setup_times: &[Duration],
    walls: &[Duration],
    op_ms: &[f64],
    small_ms: &[f64],
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
) {
    let secs = |ds: &[Duration]| ds.iter().map(|d| stats::secs(*d)).collect::<Vec<_>>();
    m.put("setup_s", stats::median(&secs(setup_times)), "s");
    m.put("wall_s", stats::median(&secs(walls)), "s");
    m.put("op_p50_ms", stats::median(op_ms), "ms");
    m.put("op_p90_ms", stats::percentile(op_ms, 90.0), "ms");
    m.put("op_p95_ms", stats::percentile(op_ms, 95.0), "ms");
    m.put("small_op_p90_ms", stats::percentile(small_ms, 90.0), "ms");
    m.put(
        "ok_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "share",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    eprintln!(
        "perfbench: samples: {} passes, {} ops, {} small ops",
        walls.len(),
        op_ms.len(),
        small_ms.len()
    );
}

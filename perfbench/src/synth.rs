//! The `synth-atpg` workload: `synth --grade 1024 --atpg` flows at
//! width 8 — the only workload that runs PODEM.
//!
//! The timed passes call [`SynthesisFlow::run_ref`] once per flow. The
//! traced passes compose the same public stages the way `run_ref` and
//! `build_report` do — front end, DFT, expansion, S-graph facts, the
//! report with grading off, then pseudorandom grading and the ATPG
//! top-up on what grading missed — and time each call.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use hlstb::cdfg::benchmarks::{self, RandomCdfgParams};
use hlstb::cdfg::Cdfg;
use hlstb::flow::{DftStrategy, FlowError, SynthesisFlow};
use hlstb::netlist::atpg::{generate_all_opts, AtpgOptions, AtpgRun};
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::fsim::{comb_fault_sim, ParallelOptions};
use hlstb::netlist::random::random_pattern_run_opts;
use hlstb::netlist::Netlist;
use hlstb::report::{AtpgSummary, GradingSummary, TestabilityReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers;
use crate::stats::{self, Metrics};
use crate::sweeps::{put_end_to_end, random_designs, SMALL_OPS};
use crate::{assert_untraced, checks, counts, Ctx, Outcome};

const MIN_PASSES: usize = 2;
/// Pseudorandom patterns before the ATPG top-up (`synth --grade`).
const PATTERNS: usize = 1024;
/// The grading seed `SynthesisFlow::grade_random` uses.
const GRADE_SEED: u64 = 0xDAC_1996;
const WIDTH: u32 = 8;
const STRATEGIES: [DftStrategy; 4] = [
    DftStrategy::None,
    DftStrategy::FullScan,
    DftStrategy::GateLevelPartialScan,
    DftStrategy::BehavioralPartialScan,
];
/// Seeded random behaviors next to the 9 built-ins: with 4 strategies
/// each, 25 designs give 100 flows a pass, so `op_p90_ms` has at least
/// ten samples beyond it in every pass.
const RANDOM_DESIGNS: usize = 16;
/// The seeded behaviors carry no multipliers: PODEM effort on random
/// multiplier logic is heavy-tailed (one 8-operation design spent 1.6M
/// decisions and 22 s per flow aborting 86 faults), which would make
/// the workload's cost a property of the seed. The built-in designs
/// keep the multiplier ATPG cost, identically for every seed.
const RANDOM: RandomCdfgParams = RandomCdfgParams {
    ops: 8,
    inputs: 2,
    states: 1,
    mul_percent: 0,
};
/// Flows whose ATPG result is re-simulated in an untraced run.
const CHECKED_FLOWS: usize = 10;

fn setup(seed: u64) -> Vec<(Cdfg, SynthesisFlow)> {
    let mut designs = benchmarks::all();
    designs.extend(random_designs(seed, RANDOM_DESIGNS, RANDOM));
    let mut flows = Vec::new();
    for d in designs {
        for s in STRATEGIES {
            let flow = SynthesisFlow::new(d.clone())
                .strategy(s)
                .width(WIDTH)
                .grade_random(PATTERNS)
                .grade_atpg(true);
            flows.push((d.clone(), flow));
        }
    }
    flows
}

/// One flow decomposed into its public calls, with the time of each.
struct Decomposed {
    layer_ms: [f64; 7],
    report: TestabilityReport,
    netlist: Netlist,
    residual: Vec<Fault>,
    atpg: AtpgRun,
    faults: usize,
    fault_evals: u64,
    dropped: u64,
    good_ms: f64,
    fault_ms: f64,
}

/// Layer order of [`Decomposed::layer_ms`].
const LAYERS: [&str; 7] = [
    "front", "dft", "netlist", "facts", "report", "grading", "atpg",
];

fn decompose(cdfg: &Cdfg, strategy: DftStrategy) -> Result<Decomposed, FlowError> {
    let plain = SynthesisFlow::new(cdfg.clone())
        .strategy(strategy)
        .width(WIDTH);
    let mut ms = [0.0; 7];
    let mut clock = Instant::now();
    let mut lap = |slot: usize| {
        ms[slot] += stats::ms(clock.elapsed());
        clock = Instant::now();
    };
    let mut fe = plain.front_end()?;
    lap(0);
    let plans = plain.apply_dft(&mut fe);
    lap(1);
    let expanded = plain.expand_netlist(&fe.datapath)?;
    lap(2);
    let facts = SynthesisFlow::sgraph_facts(&fe.datapath);
    lap(3);
    let report = plain.build_report(&fe.datapath, &expanded, plans.bist.as_ref(), &facts);
    lap(4);
    let nl = &expanded.netlist;
    let faults = collapsed_faults(nl);
    let mut rng = StdRng::seed_from_u64(GRADE_SEED);
    let (run, gstats) = random_pattern_run_opts(
        nl,
        &faults,
        PATTERNS,
        &mut rng,
        &ParallelOptions::with_threads(1),
    );
    lap(5);
    let detected: &BTreeSet<Fault> = &run.summary.detected;
    let residual: Vec<Fault> = faults
        .iter()
        .filter(|f| !detected.contains(f))
        .copied()
        .collect();
    let (atpg, astats) = generate_all_opts(
        nl,
        &residual,
        &AtpgOptions::default(),
        &ParallelOptions::with_threads(1),
    );
    lap(6);
    let mut report = report;
    report.grading = Some(GradingSummary {
        coverage_percent: run.summary.coverage_percent(),
        patterns: PATTERNS,
        stats: gstats.clone(),
    });
    let combined = detected.len() + atpg.detected;
    report.atpg = Some(AtpgSummary {
        targeted: residual.len(),
        detected: atpg.detected,
        untestable: atpg.untestable,
        aborted: atpg.aborted,
        patterns: atpg.patterns.len(),
        decisions: atpg.effort.decisions,
        backtracks: atpg.effort.backtracks,
        combined_coverage_percent: 100.0 * combined as f64 / faults.len().max(1) as f64,
    });
    Ok(Decomposed {
        layer_ms: ms,
        report,
        netlist: expanded.netlist,
        residual,
        atpg,
        faults: gstats.faults + astats.faults,
        fault_evals: gstats.fault_evals + astats.fault_evals,
        dropped: gstats.dropped + astats.dropped,
        good_ms: stats::ms(gstats.wall_good + astats.wall_good),
        fault_ms: stats::ms(gstats.wall_fault + astats.wall_fault),
    })
}

/// Checks a decomposed flow against its `run_ref` report and
/// re-simulates its ATPG patterns.
fn check_flow(name: &str, want: &TestabilityReport, d: &Decomposed) -> Result<(), String> {
    if without_timings(want.clone()) != without_timings(d.report.clone()) {
        return Err(format!(
            "{name}: the stage composition differs from run_ref"
        ));
    }
    let resim = comb_fault_sim(&d.netlist, &d.residual, &d.atpg.patterns);
    if resim.detected.len() < d.atpg.detected {
        return Err(format!(
            "{name}: ATPG reports {} detected, its patterns re-detect only {}",
            d.atpg.detected,
            resim.detected.len()
        ));
    }
    Ok(())
}

/// A report with the grading engine's wall times zeroed, so two runs
/// of one flow compare equal.
fn without_timings(mut r: TestabilityReport) -> TestabilityReport {
    if let Some(g) = &mut r.grading {
        g.stats.wall_good = Duration::ZERO;
        g.stats.wall_fault = Duration::ZERO;
    }
    r
}

fn tally_holds(report: &TestabilityReport) -> bool {
    report
        .atpg
        .as_ref()
        .is_some_and(|a| a.detected + a.untestable + a.aborted == a.targeted)
}

/// One measured pass. Untraced passes call `run_ref` per flow; traced
/// passes decompose every flow and keep the pieces for the checks.
struct Pass {
    wall: Duration,
    latencies_ms: Vec<f64>,
    reports: Vec<Option<TestabilityReport>>,
    decomposed: Vec<Option<Decomposed>>,
}

fn pass(flows: &[(Cdfg, SynthesisFlow)], traced: bool) -> Pass {
    let mut p = Pass {
        wall: Duration::ZERO,
        latencies_ms: Vec::with_capacity(flows.len()),
        reports: Vec::with_capacity(flows.len()),
        decomposed: Vec::new(),
    };
    if !traced {
        assert_untraced();
    }
    let t0 = Instant::now();
    for (i, (cdfg, flow)) in flows.iter().enumerate() {
        if traced {
            let d = decompose(cdfg, strategy_of(i)).ok();
            p.latencies_ms
                .push(d.as_ref().map_or(0.0, |d| d.layer_ms.iter().sum()));
            p.reports.push(d.as_ref().map(|d| d.report.clone()));
            p.decomposed.push(d);
        } else {
            let t = Instant::now();
            let out = flow.run_ref();
            p.latencies_ms.push(stats::ms(t.elapsed()));
            p.reports.push(out.ok().map(|d| d.report));
        }
    }
    p.wall = t0.elapsed();
    if !traced {
        assert_untraced();
    }
    p
}

/// The counts of one pass that must repeat for a seed.
fn pass_counts(p: &Pass) -> Vec<(String, u64)> {
    let reports: Vec<&TestabilityReport> = p.reports.iter().flatten().collect();
    let sum = |f: &dyn Fn(&TestabilityReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    vec![
        (
            "grading.fault_evals".into(),
            sum(&|r| r.grading.as_ref().map_or(0, |g| g.stats.fault_evals)),
        ),
        (
            "atpg.decisions".into(),
            sum(&|r| r.atpg.as_ref().map_or(0, |a| a.decisions)),
        ),
        ("netlist.gates".into(), sum(&|r| r.gates as u64)),
    ]
}

fn strategy_of(i: usize) -> DftStrategy {
    STRATEGIES[i % STRATEGIES.len()]
}

/// The `synth-atpg` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let (flows, setup_times) = ctx.setup(|| setup(ctx.seed));
    let phases = ctx.passes(MIN_PASSES, |traced| pass(&flows, traced));
    let (untraced, traced) = (&phases.untraced, &phases.traced);

    // Output checks, outside every timed region: every pass, traced
    // (recomposed from the stages) or not, reproduces the first pass's
    // reports, and every report's ATPG tally adds up.
    let mut correct = true;
    let first = &untraced[0];
    let stable = |p: &Pass| -> Vec<Option<TestabilityReport>> {
        p.reports
            .iter()
            .cloned()
            .map(|r| r.map(without_timings))
            .collect()
    };
    for p in untraced[1..].iter().chain(traced) {
        if stable(p) != stable(first) {
            eprintln!("perfbench: a later pass produced different reports");
            correct = false;
        }
    }
    let name = |i: usize| format!("{} / {:?}", flows[i].0.name(), strategy_of(i));
    for (i, r) in first.reports.iter().enumerate() {
        if r.as_ref().is_some_and(|r| !tally_holds(r)) {
            eprintln!(
                "perfbench: {}: detected + untestable + aborted != targeted",
                name(i)
            );
            correct = false;
        }
    }
    // ATPG re-simulation: every flow of a traced run, a seeded sample
    // of an untraced one.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xA7B6);
    let sampled: Vec<(usize, Decomposed)>;
    let checked: Vec<(usize, &Decomposed)> = match traced.first() {
        Some(p) => p
            .decomposed
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|d| (i, d)))
            .collect(),
        None => {
            sampled = checks::sample_indices(flows.len(), CHECKED_FLOWS, &mut rng)
                .into_iter()
                .filter_map(|i| decompose(&flows[i].0, strategy_of(i)).ok().map(|d| (i, d)))
                .collect();
            sampled.iter().map(|(i, d)| (*i, d)).collect()
        }
    };
    for (i, d) in &checked {
        let Some(want) = &first.reports[*i] else {
            eprintln!(
                "perfbench: {}: run_ref failed but the stages succeeded",
                name(*i)
            );
            correct = false;
            continue;
        };
        if let Err(e) = check_flow(&name(*i), want, d) {
            eprintln!("perfbench: check failed: {e}");
            correct = false;
        }
    }

    let attempted = (flows.len() * untraced.len()) as u64;
    let failed = untraced
        .iter()
        .map(|p| p.reports.iter().filter(|r| r.is_none()).count() as u64)
        .sum();
    let all_counts: Vec<_> = untraced.iter().chain(traced).map(pass_counts).collect();
    let unstable_counts = counts::unstable_between_passes(&all_counts);
    let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall).collect::<Vec<_>>();
    let metrics = if ctx.trace {
        let mut m = layers::zeroed();
        let mid = &traced[stats::median_index(&walls(traced))];
        put_layers(&mut m, &mid.decomposed);
        layers::put_overhead(&mut m, &walls(traced), &walls(untraced));
        m
    } else {
        let mut m = Metrics::default();
        let mut op = Vec::new();
        let mut small = Vec::new();
        for p in untraced {
            for (i, &ms) in p.latencies_ms.iter().enumerate() {
                op.push(ms);
                if flows[i].0.num_ops() <= SMALL_OPS {
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
        "perfbench: {} flows/pass, {} untraced + {} traced passes, {} flows re-simulated",
        flows.len(),
        untraced.len(),
        traced.len(),
        checked.len()
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        counts: all_counts[0].clone(),
        unstable_counts,
    }
}

fn put_layers(m: &mut Metrics, pass: &[Option<Decomposed>]) {
    let ds: Vec<&Decomposed> = pass.iter().flatten().collect();
    let calls = ds.len() as u64;
    let mut stage_sum = 0.0;
    for (slot, layer) in LAYERS.iter().enumerate() {
        let ms: f64 = ds.iter().map(|d| d.layer_ms[slot]).sum();
        stage_sum += ms;
        m.count(&format!("{layer}.calls"), calls);
        m.put(&format!("{layer}.ms"), ms, "ms");
    }
    m.count(
        "netlist.gates",
        ds.iter().map(|d| d.report.gates as u64).sum(),
    );
    m.put("grading.good_ms", ds.iter().map(|d| d.good_ms).sum(), "ms");
    m.put(
        "grading.fault_ms",
        ds.iter().map(|d| d.fault_ms).sum(),
        "ms",
    );
    m.count("grading.faults", ds.iter().map(|d| d.faults as u64).sum());
    m.count(
        "grading.fault_evals",
        ds.iter().map(|d| d.fault_evals).sum(),
    );
    m.count("grading.dropped", ds.iter().map(|d| d.dropped).sum());
    let targeted: u64 = ds.iter().map(|d| d.residual.len() as u64).sum();
    let detected: u64 = ds.iter().map(|d| d.atpg.detected as u64).sum();
    m.count("atpg.targeted", targeted);
    m.count(
        "atpg.decisions",
        ds.iter().map(|d| d.atpg.effort.decisions).sum(),
    );
    m.count(
        "atpg.backtracks",
        ds.iter().map(|d| d.atpg.effort.backtracks).sum(),
    );
    m.count(
        "atpg.aborted",
        ds.iter().map(|d| d.atpg.aborted as u64).sum(),
    );
    m.put(
        "atpg.detected_share",
        detected as f64 / targeted.max(1) as f64,
        "share",
    );
    eprintln!(
        "perfbench: accounting: {} flows, layers [{}] = {stage_sum:.1} ms",
        ds.len(),
        LAYERS
            .iter()
            .enumerate()
            .map(|(slot, l)| format!(
                "{l} {:.1}",
                ds.iter().map(|d| d.layer_ms[slot]).sum::<f64>()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

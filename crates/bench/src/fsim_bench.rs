//! E21 — the fault-grading engine itself: fault dropping and the SoA
//! event engine timed on the nine-design random-pattern sweep (the same
//! substrate as E13's coverage curves).
//!
//! Every configuration grades the *same* fault universe against the
//! *same* pseudorandom frames, so the detected sets must be
//! bit-identical; the sweep asserts that. What varies is only the work:
//! the naive engine evaluates every live fault under every frame, the
//! engine drops a fault the moment it is detected and restricts each
//! faulty evaluation to the fault's output cone, and the SoA
//! configurations grade stem regions over wide pattern words.

use std::time::{Duration, Instant};

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::atpg::{generate_all, podem, AtpgOptions, CombView, Effort};
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::fsim::{comb_fault_sim_opts, ParallelOptions, TestFrame};
use hlstb::netlist::random::random_pattern_run_opts;
use hlstb::netlist::stats::GradeStats;
use hlstb::netlist::word::WordWidth;
use hlstb_cdfg::Cdfg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Table;

/// The engine configurations the sweep compares, in report order. The
/// first is the baseline every speedup is quoted against.
pub fn configs() -> Vec<(&'static str, ParallelOptions)> {
    vec![
        (
            "naive",
            ParallelOptions {
                drop_detected: false,
                ..ParallelOptions::default()
            },
        ),
        ("drop", ParallelOptions::default()),
        // The levelized structure-of-arrays engine at each pattern-word
        // width (64, 256, 512 patterns per frame chunk). Same universe,
        // same frames, same detected set — the sweep's assertion below
        // is the committed differential check between engines.
        ("soa", ParallelOptions::soa(WordWidth::W64)),
        ("soa-256", ParallelOptions::soa(WordWidth::W256)),
        ("soa-512", ParallelOptions::soa(WordWidth::W512)),
    ]
}

/// One engine configuration timed on one design.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Design name.
    pub design: String,
    /// Configuration name (see [`configs`]).
    pub config: &'static str,
    /// Final stuck-at coverage — identical across configurations.
    pub coverage_percent: f64,
    /// The engine's work and timing counters.
    pub stats: GradeStats,
}

/// Result of [`sweep`]: every configuration on every design.
#[derive(Debug, Clone)]
pub struct FsimSweep {
    /// Patterns graded per design (rounded up to whole 64-bit words).
    pub patterns: usize,
    /// One entry per (design, configuration) pair, design-major.
    pub runs: Vec<EngineRun>,
    /// The ATPG headline, one entry per design.
    pub atpg: Vec<AtpgTiming>,
}

/// PODEM on one design's `synth --grade 1024 --atpg` residual: the
/// shared-context [`generate_all`] against a loop of standalone
/// [`podem`] calls, each building its own context, over the same
/// targets.
#[derive(Debug, Clone)]
pub struct AtpgTiming {
    /// Design name.
    pub design: String,
    /// Faults the random patterns left for PODEM.
    pub targets: usize,
    /// PODEM decisions — identical on both sides.
    pub decisions: u64,
    /// Best-of-three wall time of `generate_all`.
    pub shared: Duration,
    /// Best-of-three wall time of the standalone loop.
    pub standalone: Duration,
}

/// Datapath width of the ATPG headline (the `synth-atpg` benchmark's).
const ATPG_WIDTH: u32 = 8;
/// Random patterns graded before the ATPG top-up.
const ATPG_PATTERNS: usize = 1024;
/// The flow's grading seed.
const ATPG_SEED: u64 = 0xDAC_1996;
/// Timed repetitions per side; the minimum is kept.
const ATPG_REPEATS: usize = 3;

/// The minimum wall time of [`ATPG_REPEATS`] calls of `once`, with the
/// last call's result.
fn best_of<T>(mut once: impl FnMut() -> T) -> (Duration, T) {
    let mut wall = Duration::MAX;
    let mut last = None;
    for _ in 0..ATPG_REPEATS {
        let start = Instant::now();
        last = Some(once());
        wall = wall.min(start.elapsed());
    }
    (wall, last.expect("ATPG_REPEATS is positive"))
}

/// Times [`generate_all`] against standalone [`podem`] calls on the
/// full-scan netlist of `g` at [`ATPG_WIDTH`], targeting what
/// [`ATPG_PATTERNS`] random patterns leave undetected.
///
/// # Panics
///
/// Panics if the two sides disagree on the search effort: they must do
/// the same work for the ratio to mean anything.
fn atpg_timing(g: &Cdfg) -> AtpgTiming {
    let d = SynthesisFlow::new(g.clone())
        .strategy(DftStrategy::FullScan)
        .width(ATPG_WIDTH)
        .run()
        .expect("benchmark designs synthesize");
    let nl = &d.expanded.netlist;
    let faults = collapsed_faults(nl);
    let mut rng = StdRng::seed_from_u64(ATPG_SEED);
    let (graded, _) = random_pattern_run_opts(
        nl,
        &faults,
        ATPG_PATTERNS,
        &mut rng,
        &ParallelOptions::default(),
    );
    let residual: Vec<Fault> = faults
        .iter()
        .filter(|f| !graded.summary.detected.contains(f))
        .copied()
        .collect();
    let options = AtpgOptions::default();
    let (shared, shared_effort) = best_of(|| generate_all(nl, &residual, &options).effort);
    let view = CombView::functional(nl);
    let (standalone, standalone_effort) = best_of(|| {
        let mut effort = Effort::default();
        for f in &residual {
            effort.absorb(podem(nl, &view, &[f.net], f.stuck_at_one, &options).1);
        }
        effort
    });
    assert_eq!(
        shared_effort,
        standalone_effort,
        "{}: the ATPG sides did different work",
        g.name()
    );
    AtpgTiming {
        design: g.name().to_string(),
        targets: residual.len(),
        decisions: shared_effort.decisions,
        shared,
        standalone,
    }
}

/// Grades the full nine-design suite. `patterns` is rounded up to a
/// whole number of 64-pattern words.
pub fn sweep(patterns: usize) -> FsimSweep {
    sweep_designs(&benchmarks::all(), patterns)
}

/// [`sweep`] over a caller-chosen design list (tests use a subset).
pub fn sweep_designs(designs: &[Cdfg], patterns: usize) -> FsimSweep {
    let mut runs = Vec::new();
    for (di, g) in designs.iter().enumerate() {
        let d = SynthesisFlow::new(g.clone())
            .strategy(DftStrategy::FullScan)
            .run()
            .expect("benchmark designs synthesize");
        let nl = &d.expanded.netlist;
        let faults = collapsed_faults(nl);
        // Same frames for every configuration: the comparison times the
        // engine, not the pattern source.
        let mut rng = StdRng::seed_from_u64(0xFA57_1996 + di as u64);
        let frames: Vec<TestFrame> = (0..patterns.div_ceil(64).max(1))
            .map(|_| {
                TestFrame::new(
                    (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
                    (0..nl.dffs().len()).map(|_| rng.gen()).collect(),
                )
            })
            .collect();
        let mut baseline = None;
        for (name, opts) in configs() {
            let (summary, stats) = comb_fault_sim_opts(nl, &faults, &frames, &opts);
            let detected = summary.detected.clone();
            let cov = summary.coverage_percent();
            match &baseline {
                None => baseline = Some(detected),
                Some(b) => assert_eq!(
                    b,
                    &detected,
                    "engine config {name} changed the result on {}",
                    g.name()
                ),
            }
            runs.push(EngineRun {
                design: g.name().to_string(),
                config: name,
                coverage_percent: cov,
                stats,
            });
        }
    }
    let atpg = designs.iter().map(atpg_timing).collect();
    FsimSweep {
        patterns,
        runs,
        atpg,
    }
}

impl FsimSweep {
    /// Fault-phase wall time summed over all designs for one
    /// configuration.
    pub fn total_wall(&self, config: &str) -> Duration {
        self.runs
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.stats.wall_fault)
            .sum()
    }

    /// Whole-sweep speedup of `config` over the naive baseline.
    pub fn speedup(&self, config: &str) -> f64 {
        self.speedup_over("naive", config)
    }

    /// Whole-sweep fault-phase speedup of `config` over `base` — the
    /// `soa-512` headline is quoted against `drop`, the strongest
    /// serial configuration of the reference engine.
    pub fn speedup_over(&self, base: &str, config: &str) -> f64 {
        let base = self.total_wall(base).as_secs_f64();
        let ours = self.total_wall(config).as_secs_f64();
        if ours > 0.0 {
            base / ours
        } else {
            f64::INFINITY
        }
    }

    /// Whole-suite speedup of the shared-context `generate_all` over
    /// standalone `podem()` calls.
    pub fn atpg_speedup(&self) -> f64 {
        let total = |f: fn(&AtpgTiming) -> Duration| {
            self.atpg.iter().map(f).sum::<Duration>().as_secs_f64()
        };
        let shared = total(|r| r.shared);
        if shared > 0.0 {
            total(|r| r.standalone) / shared
        } else {
            f64::INFINITY
        }
    }

    /// One row per design for the ATPG headline.
    pub fn atpg_table(&self) -> Table {
        let mut t = Table::new(
            "E21b  PODEM: one shared context vs a fresh context per target",
            &[
                "design",
                "targets",
                "decisions",
                "shared ms",
                "standalone ms",
            ],
        );
        for r in &self.atpg {
            t.row(vec![
                r.design.clone(),
                r.targets.to_string(),
                r.decisions.to_string(),
                format!("{:.2}", r.shared.as_secs_f64() * 1e3),
                format!("{:.2}", r.standalone.as_secs_f64() * 1e3),
            ]);
        }
        t
    }

    /// One row per design: coverage plus the fault-phase wall time of
    /// each configuration and the dropped/evaluated work split.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E21  Grading engine: dropping and the SoA event engine vs naive grading",
            &[
                "design",
                "faults",
                "cov %",
                "naive ms",
                "drop ms",
                "soa ms",
                "soa-256 ms",
                "soa-512 ms",
                "evals saved %",
            ],
        );
        let designs: Vec<&str> = {
            let mut seen = Vec::new();
            for r in &self.runs {
                if !seen.contains(&r.design.as_str()) {
                    seen.push(r.design.as_str());
                }
            }
            seen
        };
        for design in designs {
            let of = |config: &str| {
                self.runs
                    .iter()
                    .find(|r| r.design == design && r.config == config)
                    .expect("every design ran every config")
            };
            let naive = of("naive");
            let drop = of("drop");
            let ms = |r: &EngineRun| format!("{:.2}", r.stats.wall_fault.as_secs_f64() * 1e3);
            let saved = 100.0
                * (1.0 - drop.stats.fault_evals as f64 / naive.stats.fault_evals.max(1) as f64);
            t.row(vec![
                design.to_string(),
                naive.stats.faults.to_string(),
                format!("{:.1}", naive.coverage_percent),
                ms(naive),
                ms(drop),
                ms(of("soa")),
                ms(of("soa-256")),
                ms(of("soa-512")),
                format!("{saved:.1}"),
            ]);
        }
        t
    }

    /// The whole sweep as a JSON document (`BENCH_fsim.json`), built on
    /// the shared [`hlstb::trace::json`] writers. Each run carries an
    /// explicit `phase_ms` object so perf tracking can diff the
    /// good-machine and faulty-machine phases directly.
    pub fn to_json(&self) -> String {
        use hlstb::trace::json::Obj;
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"fsim_engine\",\n");
        out.push_str(&format!("  \"patterns\": {},\n", self.patterns));
        out.push_str(&format!(
            "  \"speedup_drop_vs_naive\": {:.3},\n",
            self.speedup("drop")
        ));
        out.push_str(&format!(
            "  \"speedup_soa_vs_naive\": {:.3},\n",
            self.speedup("soa")
        ));
        out.push_str(&format!(
            "  \"speedup_soa512_vs_drop\": {:.3},\n",
            self.speedup_over("drop", "soa-512")
        ));
        out.push_str(&format!(
            "  \"speedup_atpg_shared_ctx\": {:.3},\n",
            self.atpg_speedup()
        ));
        // The committed perf gate: `hlstb perf-diff --floor` fails CI
        // when a headline above drops below its floor. Raise the floor
        // deliberately when the engine changes speed class.
        out.push_str(
            "  \"floors\": {\"speedup_soa512_vs_drop\": 4.0, \"speedup_atpg_shared_ctx\": 2.5},\n",
        );
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let mut phases = Obj::new();
            phases
                .raw("good", &ms(r.stats.wall_good))
                .raw("fault", &ms(r.stats.wall_fault))
                .raw("total", &ms(r.stats.wall()));
            let mut o = Obj::new();
            o.string("design", &r.design)
                .string("config", r.config)
                .raw("coverage_percent", &format!("{:.3}", r.coverage_percent))
                .raw("phase_ms", &phases.finish())
                .raw("stats", &r.stats.to_json());
            out.push_str(&format!(
                "    {}{}\n",
                o.finish(),
                if i + 1 < self.runs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"atpg\": [\n");
        for (i, r) in self.atpg.iter().enumerate() {
            let mut o = Obj::new();
            o.string("design", &r.design)
                .number_u64("targets", r.targets as u64)
                .number_u64("decisions", r.decisions)
                .raw("shared_ms", &ms(r.shared))
                .raw("standalone_ms", &ms(r.standalone));
            out.push_str(&format!(
                "    {}{}\n",
                o.finish(),
                if i + 1 < self.atpg.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_consistent_and_dropping_saves_work() {
        let designs = vec![benchmarks::figure1(), benchmarks::tseng()];
        let s = sweep_designs(&designs, 256);
        assert_eq!(s.runs.len(), designs.len() * configs().len());
        for d in ["figure1", "tseng"] {
            let covs: Vec<f64> = s
                .runs
                .iter()
                .filter(|r| r.design == d)
                .map(|r| r.coverage_percent)
                .collect();
            assert!(covs.windows(2).all(|w| w[0] == w[1]), "{d}: {covs:?}");
            let naive = s
                .runs
                .iter()
                .find(|r| r.design == d && r.config == "naive")
                .unwrap();
            let drop = s
                .runs
                .iter()
                .find(|r| r.design == d && r.config == "drop")
                .unwrap();
            assert_eq!(naive.stats.dropped, 0, "{d}");
            assert!(drop.stats.dropped > 0, "{d}");
            assert!(drop.stats.fault_evals < naive.stats.fault_evals, "{d}");
        }
    }

    #[test]
    fn json_names_every_config() {
        let s = sweep_designs(&[benchmarks::figure1()], 64);
        let j = s.to_json();
        for (name, _) in configs() {
            assert!(j.contains(&format!("\"config\": \"{name}\"")), "{j}");
        }
        let v = hlstb::trace::json::parse(&j).expect("sweep JSON parses");
        let floors = v.get("floors").expect("floors");
        for headline in ["speedup_soa512_vs_drop", "speedup_atpg_shared_ctx"] {
            assert!(
                v.get(headline).and_then(|x| x.as_f64()).is_some(),
                "{headline}"
            );
            assert!(floors.get(headline).is_some(), "{headline} floor");
        }
        let atpg = v.get("atpg").and_then(|a| a.as_array()).expect("atpg rows");
        assert_eq!(atpg.len(), 1);
        assert_eq!(
            atpg[0].get("design").and_then(|d| d.as_str()),
            Some("figure1")
        );
    }

    #[test]
    fn json_parses_and_carries_phase_ms() {
        let s = sweep_designs(&[benchmarks::figure1()], 64);
        let v = hlstb::trace::json::parse(&s.to_json()).expect("sweep JSON parses");
        let runs = v.get("runs").and_then(|r| r.as_array()).expect("runs");
        assert_eq!(runs.len(), configs().len());
        for r in runs {
            let p = r.get("phase_ms").expect("phase_ms present");
            for key in ["good", "fault", "total"] {
                assert!(p.get(key).and_then(|x| x.as_f64()).is_some(), "{key}");
            }
        }
    }
}

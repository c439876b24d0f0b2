//! `perfbench` — the hlstb benchmark.
//!
//! ```text
//! perfbench --workload <scoreboard|structural|synth-atpg|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets its workload up, repeats timed passes for `--seconds`,
//! checks the outputs outside the timed region, and prints one JSON
//! line last on stdout: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` next to this file for the metric
//! table and what each workload is meant to judge.

mod checks;
mod counts;
mod layers;
mod serve_mix;
mod stats;
mod sweeps;
mod synth;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Metrics;

const USAGE: &str = "usage: perfbench --workload <scoreboard|structural|synth-atpg|serve-mix> \
--seed <n> --seconds <s> --trace <0|1>";

/// What a workload run needs from the command line.
pub struct Ctx {
    /// When `main` was entered — the zero of `setup_s`.
    pub start: Instant,
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the measured passes run.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or errored.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Counts that must repeat exactly for a given seed, with the name
    /// each is recorded under.
    pub counts: Vec<(String, u64)>,
    /// Counts that already differed between the passes of this run.
    pub unstable_counts: Vec<String>,
}

/// How often a workload's set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 11;

impl Ctx {
    /// Runs `make` [`SETUP_REPS`] times and returns its first result
    /// with the time of every run; the first counts from process start.
    pub fn setup<T>(&self, mut make: impl FnMut() -> T) -> (T, Vec<Duration>) {
        let first = make();
        let mut times = vec![self.start.elapsed()];
        for _ in 1..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(make());
            times.push(t.elapsed());
        }
        (first, times)
    }

    /// Runs the measured passes: untraced ones for the whole budget, or
    /// in a traced run for half of it followed by traced ones for the
    /// other half (the untraced half is the base of
    /// `trace.overhead_share`). Each phase runs at least `min_passes`.
    /// Returns both phases and the peak RSS by the end of the untraced
    /// phase.
    pub fn passes<T>(&self, min_passes: usize, mut pass: impl FnMut(bool) -> T) -> Phases<T> {
        let repeat = |budget: Duration, traced: bool, pass: &mut dyn FnMut(bool) -> T| {
            let t0 = Instant::now();
            let mut out = Vec::new();
            while out.len() < min_passes || t0.elapsed() < budget {
                out.push(pass(traced));
            }
            out
        };
        let split = if self.trace {
            self.budget / 2
        } else {
            self.budget
        };
        let untraced = repeat(split, false, &mut pass);
        let peak_rss_mb = stats::peak_rss_mb();
        let traced = if self.trace {
            repeat(split, true, &mut pass)
        } else {
            Vec::new()
        };
        Phases {
            untraced,
            traced,
            peak_rss_mb,
        }
    }
}

/// The measured passes of one run.
pub struct Phases<T> {
    /// Passes with tracing off.
    pub untraced: Vec<T>,
    /// Passes with tracing on (traced runs only).
    pub traced: Vec<T>,
    /// Peak RSS by the end of the untraced passes, in MiB.
    pub peak_rss_mb: f64,
}

/// Panics unless both tracing facilities are off — every timed pass
/// calls this before and after it runs.
pub fn assert_untraced() {
    assert!(
        !hlstb_trace::enabled() && !hlstb_trace::events::enabled(),
        "a timed pass ran with tracing on"
    );
}

fn parse_args() -> Result<(String, Ctx), String> {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let ctx = Ctx {
        start,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    assert_untraced();
    let mut out = match workload.as_str() {
        "scoreboard" => sweeps::scoreboard(&ctx),
        "structural" => sweeps::structural(&ctx),
        "synth-atpg" => synth::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let drifted = counts::compare_with_previous_run(&workload, &ctx, &out.counts);
    if ctx.trace {
        let mut unstable = out.unstable_counts.clone();
        unstable.extend(drifted);
        unstable.sort();
        unstable.dedup();
        out.metrics.count("counts.unstable", unstable.len() as u64);
    }
    if !out.correct {
        eprintln!("perfbench: {workload}: output check FAILED");
    }
    let mut line = hlstb_trace::json::Obj::new();
    line.boolean("correct", out.correct)
        .number_u64("attempted", out.attempted)
        .number_u64("failed", out.failed)
        .raw("metrics", &out.metrics.to_json());
    println!("{}", line.finish());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

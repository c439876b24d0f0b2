//! Counts that must repeat exactly for a seed, compared across runs.
//!
//! A run stores its counts under `.bench_state/` in the working
//! directory and compares them with the previous run of the same
//! workload, seed and trace mode. A count that differs is flagged on
//! stderr and counted in the traced run's `counts.unstable`; it never
//! fails the run, because a drifting count is a finding about the
//! program, not a wrong output.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::Ctx;

const STATE_DIR: &str = ".bench_state";

fn state_file(workload: &str, ctx: &Ctx) -> PathBuf {
    PathBuf::from(STATE_DIR).join(format!(
        "counts-{workload}-seed{}-trace{}.txt",
        ctx.seed,
        u8::from(ctx.trace)
    ))
}

/// Compares `counts` with the previous run's, stores them for the next
/// run, and returns the names of the counts that differ.
pub fn compare_with_previous_run(
    workload: &str,
    ctx: &Ctx,
    counts: &[(String, u64)],
) -> Vec<String> {
    let path = state_file(workload, ctx);
    let previous: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    let mut drifted = Vec::new();
    for (name, value) in counts {
        if let Some(&before) = previous.get(name) {
            if before != *value {
                eprintln!(
                    "perfbench: count {name} differs from the previous run of seed {}: {before} -> {value}",
                    ctx.seed
                );
                drifted.push(name.clone());
            }
        }
    }
    let text: String = counts.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(STATE_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot store counts in {}: {e}", path.display());
    }
    drifted
}

/// Names of the counts whose value differs between passes of one run.
pub fn unstable_between_passes(passes: &[Vec<(String, u64)>]) -> Vec<String> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let mut unstable = Vec::new();
    for later in &passes[1..] {
        for ((name, a), (_, b)) in first.iter().zip(later) {
            if a != b && !unstable.contains(name) {
                eprintln!("perfbench: count {name} differs between passes of one run: {a} vs {b}");
                unstable.push(name.clone());
            }
        }
    }
    unstable
}

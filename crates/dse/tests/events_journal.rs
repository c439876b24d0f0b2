//! End-to-end contract of the sweep's event journal: the canonical
//! projection is byte-identical between a serial uncached sweep and a
//! 4-thread cached sweep of the same spec — including under injected
//! deterministic failures — and a disabled journal records nothing.

use hlstb::cdfg::benchmarks;
use hlstb::trace::events;
use hlstb_dse::{run_sweep_with, FailMode, FailPlan, Recovery, SweepOptions, SweepSpec};
use std::sync::Mutex;

/// The journal is process-global; tests in this binary serialize on
/// this lock so concurrent test threads cannot pollute each other's
/// drained records.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.patterns = vec![0, 64];
    spec.strategies.truncate(3);
    spec
}

/// Runs one journaled sweep and returns the drained journal.
fn journaled_sweep(
    spec: &SweepSpec,
    threads: usize,
    cache: bool,
    recovery: &Recovery,
) -> events::Journal {
    events::set_enabled(true);
    events::reset();
    let opts = SweepOptions {
        threads,
        cache,
        ..SweepOptions::default()
    };
    run_sweep_with(spec, &opts, recovery).expect("sweep runs");
    events::set_enabled(false);
    events::drain()
}

#[test]
fn canonical_journal_is_identical_across_threads_and_cache() {
    let _x = exclusive();
    let spec = spec();
    let n = spec.points().len();
    let recovery = Recovery::default();
    let serial = journaled_sweep(&spec, 1, false, &recovery);
    let threaded = journaled_sweep(&spec, 4, true, &recovery);
    assert_eq!(serial.dropped, 0);
    assert_eq!(threaded.dropped, 0);

    let canon_serial = serial.to_canonical_jsonl();
    let canon_threaded = threaded.to_canonical_jsonl();
    assert!(!canon_serial.is_empty());
    assert_eq!(
        canon_serial, canon_threaded,
        "canonical journal must not depend on threads or cache"
    );

    // The stable lifecycle is complete: every point is scheduled and
    // completes, one stage record per pipeline stage per point, and
    // the run is bracketed by sweep.begin/sweep.end.
    let count = |kind: &str| {
        serial
            .records
            .iter()
            .filter(|r| r.stable && r.kind == kind)
            .count()
    };
    assert_eq!(count("point.scheduled"), n);
    assert_eq!(count("point.completed"), n);
    // Four synthesis stages and the report per point, plus grading
    // for graded points.
    let graded = spec.points().iter().filter(|p| p.patterns > 0).count();
    assert_eq!(count("point.stage"), 5 * n + graded);
    assert_eq!(count("sweep.begin"), 1);
    assert_eq!(count("sweep.end"), 1);
    // Volatile records (spans, timings, cache outcomes) exist in the
    // full journal but never reach the canonical projection.
    assert!(serial.records.iter().any(|r| !r.stable));
    assert!(!canon_serial.contains("wall_us"), "{canon_serial}");
    assert!(!canon_serial.contains("\"cache\""), "{canon_serial}");
}

/// The `cache` label of a stage record: `None` when absent.
fn stage_cache_label(r: &events::Record) -> Option<&str> {
    r.fields
        .iter()
        .find(|f| f.name == "cache")
        .map(|f| match &f.value {
            events::FieldValue::Str(s) => s.as_str(),
            other => panic!("cache label is not a string: {other:?}"),
        })
}

/// Both cache settings run one pipeline; only the memo step differs.
/// Every stage of an uncached sweep is a pass-through labelled `off`,
/// and no stage of a cached sweep is (the report stage, which has no
/// store, carries no label at all).
#[test]
fn stage_records_label_cache_off_exactly_when_uncached() {
    let _x = exclusive();
    let spec = spec();
    let recovery = Recovery::default();
    for (threads, cache) in [(1, false), (4, false), (1, true), (4, true)] {
        let journal = journaled_sweep(&spec, threads, cache, &recovery);
        let stages: Vec<&events::Record> = journal
            .records
            .iter()
            .filter(|r| r.kind == "point.stage")
            .collect();
        assert!(!stages.is_empty());
        for r in stages {
            let label = stage_cache_label(r);
            if cache {
                assert_ne!(label, Some("off"), "threads {threads}: {r:?}");
            } else {
                assert_eq!(label, Some("off"), "threads {threads}: {r:?}");
            }
        }
    }
}

#[test]
fn injected_failures_keep_the_canonical_journal_identical() {
    let _x = exclusive();
    let spec = spec();
    let mut plan = FailPlan::default();
    plan.insert(1, FailMode::Panic);
    plan.insert(3, FailMode::Stall);
    plan.insert(4, FailMode::Flaky);
    let recovery = Recovery {
        fail_plan: Some(plan),
        ..Recovery::default()
    };
    let serial = journaled_sweep(&spec, 1, false, &recovery);
    let threaded = journaled_sweep(&spec, 4, true, &recovery);
    assert_eq!(
        serial.to_canonical_jsonl(),
        threaded.to_canonical_jsonl(),
        "typed failures and retries must journal deterministically"
    );
    let canon = serial.to_canonical_jsonl();
    assert!(canon.contains("\"point.failed\""), "{canon}");
    assert!(canon.contains("\"error\": \"panic\""), "{canon}");
    assert!(canon.contains("\"error\": \"timeout\""), "{canon}");
    // The flaky point retried once, then completed.
    assert!(canon.contains("\"point.retry\""), "{canon}");
    assert!(canon.contains("\"attempt\": 1"), "{canon}");
}

#[test]
fn disabled_journal_records_nothing_during_a_sweep() {
    let _x = exclusive();
    events::set_enabled(false);
    events::reset();
    let opts = SweepOptions::default();
    run_sweep_with(&spec(), &opts, &Recovery::default()).expect("sweep runs");
    assert!(events::drain().is_empty());
}

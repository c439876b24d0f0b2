//! Property tests for the parallel-pattern fault-grading engine: fault
//! dropping on or off must return the exact `detected` set and
//! `coverage_percent` of the no-drop path, on arbitrary random netlists
//! and frames. Bit-identity is the engine's contract; these tests are
//! its teeth.

use hlstb_netlist::fault::collapsed_faults;
use hlstb_netlist::fsim::{comb_fault_sim_opts, seq_fault_sim_opts, ParallelOptions, TestFrame};
use hlstb_netlist::net::random_combinational;
use hlstb_netlist::random::random_pattern_run_opts;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn frames_for(nl: &hlstb_netlist::net::Netlist, count: usize, rng: &mut StdRng) -> Vec<TestFrame> {
    (0..count)
        .map(|_| {
            TestFrame::new(
                (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
                (0..nl.dffs().len()).map(|_| rng.gen()).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dropping_comb_grading_is_bit_identical_to_no_drop(
        seed in 0u64..10_000,
        inputs in 2usize..6,
        gates in 4usize..40,
        outputs in 1usize..4,
        nframes in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(inputs, gates, outputs, &mut rng);
        let faults = collapsed_faults(&nl);
        let frames = frames_for(&nl, nframes, &mut rng);
        let no_drop = ParallelOptions { drop_detected: false, ..ParallelOptions::default() };
        let (base, _) = comb_fault_sim_opts(&nl, &faults, &frames, &no_drop);
        for drop_detected in [false, true] {
            let opts = ParallelOptions { drop_detected, ..ParallelOptions::default() };
            let (got, stats) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            prop_assert_eq!(&got.detected, &base.detected, "d={}", drop_detected);
            prop_assert_eq!(got.coverage_percent(), base.coverage_percent());
            // The accounting must cover the universe exactly.
            prop_assert_eq!(
                stats.fault_evals + stats.screened + stats.dropped,
                (faults.len() as u64 - stats.unobservable) * frames.len() as u64
            );
        }
    }

    #[test]
    fn dropping_random_pattern_run_matches_no_drop_curve(
        seed in 0u64..10_000,
        inputs in 2usize..5,
        gates in 4usize..30,
        outputs in 1usize..3,
        max_patterns in 1usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(inputs, gates, outputs, &mut rng);
        let faults = collapsed_faults(&nl);
        let no_drop = ParallelOptions { drop_detected: false, ..ParallelOptions::default() };
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xABCD);
        let (base, _) = random_pattern_run_opts(&nl, &faults, max_patterns, &mut r1, &no_drop);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xABCD);
        let opts = ParallelOptions::default();
        let (got, _) = random_pattern_run_opts(&nl, &faults, max_patterns, &mut r2, &opts);
        prop_assert_eq!(&got.summary.detected, &base.summary.detected);
        prop_assert_eq!(&got.curve, &base.curve);
        // Regression: the curve never claims more patterns than were
        // requested, and a run that does not saturate ends exactly at
        // the requested count (clamped final batch).
        prop_assert!(got.curve.last().unwrap().patterns <= max_patterns.max(64));
        if got.summary.detected.len() < faults.len() {
            prop_assert_eq!(got.curve.last().unwrap().patterns, max_patterns);
        }
    }

    #[test]
    fn dropping_seq_grading_is_bit_identical_to_no_drop(
        seed in 0u64..10_000,
        inputs in 2usize..5,
        gates in 4usize..24,
        outputs in 1usize..3,
        cycles in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // `random_combinational` has no flops, but the sequential engine
        // must still agree with itself across configurations when driven
        // cycle by cycle.
        let nl = random_combinational(inputs, gates, outputs, &mut rng);
        let faults = collapsed_faults(&nl);
        let vectors: Vec<Vec<u64>> = (0..cycles)
            .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let no_drop = ParallelOptions { drop_detected: false, ..ParallelOptions::default() };
        let (base, _) = seq_fault_sim_opts(&nl, &faults, &vectors, &no_drop);
        let (got, _) = seq_fault_sim_opts(&nl, &faults, &vectors, &ParallelOptions::default());
        prop_assert_eq!(&got.detected, &base.detected);
    }
}

//! Differential validation of the SoA grading engine: on random
//! circuits, random frames, and random lane masks, the event-driven
//! structure-of-arrays engine must reproduce the reference engine's
//! detected sets and coverage curves bit-for-bit at every word width.

use hlstb_netlist::fault::all_faults;
use hlstb_netlist::fsim::{
    comb_fault_sim_observed_opts, comb_fault_sim_opts, lane_mask, ParallelOptions, SimEngine,
    TestFrame,
};
use hlstb_netlist::net::{random_combinational, NetId, Netlist};
use hlstb_netlist::random::random_pattern_run_opts;
use hlstb_netlist::word::WordWidth;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn frames_for(nl: &Netlist, count: usize, rng: &mut StdRng) -> Vec<TestFrame> {
    (0..count)
        .map(|_| {
            TestFrame::new(
                (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
                (0..nl.dffs().len()).map(|_| rng.gen()).collect(),
            )
        })
        .collect()
}

fn soa_opts(width: WordWidth) -> ParallelOptions {
    ParallelOptions {
        engine: SimEngine::Soa,
        word_width: width,
        ..ParallelOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Full-mask frames: detected sets and work-ledger invariants agree
    /// between the reference engine and the SoA engine at every width.
    #[test]
    fn detected_sets_match_on_random_netlists(
        seed in 0u64..10_000,
        gates in 4usize..48,
        frame_count in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(5, gates, 2, &mut rng);
        let faults = all_faults(&nl);
        let frames = frames_for(&nl, frame_count, &mut rng);
        let (reference, ref_stats) =
            comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        for width in WordWidth::ALL {
            let (soa, stats) = comb_fault_sim_opts(&nl, &faults, &frames, &soa_opts(width));
            prop_assert_eq!(&soa, &reference, "width {} seed {}", width, seed);
            // Both engines see the same structural observability.
            prop_assert_eq!(stats.unobservable, ref_stats.unobservable,
                            "width {} seed {}", width, seed);
            let pairs = (stats.faults as u64 - stats.unobservable) * stats.frames as u64;
            prop_assert_eq!(stats.fault_evals + stats.screened + stats.dropped, pairs,
                            "width {} seed {}", width, seed);
        }
    }

    /// Randomly masked tail lanes: padding lanes must be invisible to
    /// both engines, so masking a frame is equivalent to grading the
    /// frame with the padding lanes replaced by copies of a live lane.
    #[test]
    fn masked_frames_match_on_random_netlists(
        seed in 0u64..10_000,
        gates in 4usize..40,
        live in 1usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 2, &mut rng);
        let faults = all_faults(&nl);
        let mut frames = frames_for(&nl, 3, &mut rng);
        frames.last_mut().unwrap().mask = lane_mask(live);
        let (reference, _) =
            comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        // Ground truth: broadcast lane 0 of the tail frame over its
        // padding lanes and grade with all lanes live.
        let mut explicit = frames.clone();
        {
            let tail = explicit.last_mut().unwrap();
            tail.mask = u64::MAX;
            for w in tail.pi.iter_mut().chain(tail.ff.iter_mut()) {
                let lane0 = if *w & 1 == 1 { u64::MAX } else { 0 };
                *w = (*w & lane_mask(live)) | (lane0 & !lane_mask(live));
            }
        }
        let (truth, _) =
            comb_fault_sim_opts(&nl, &faults, &explicit, &ParallelOptions::default());
        prop_assert_eq!(&reference, &truth, "reference mask, seed {}", seed);
        for width in WordWidth::ALL {
            let (soa, _) = comb_fault_sim_opts(&nl, &faults, &frames, &soa_opts(width));
            prop_assert_eq!(&soa, &truth, "width {} seed {}", width, seed);
        }
    }

    /// Restricted observation sets (a random subset of outputs) agree,
    /// exercising the SoA engine's observability-reachability pruning
    /// against the reference cone engine.
    #[test]
    fn restricted_observation_sets_match(
        seed in 0u64..10_000,
        gates in 4usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 3, &mut rng);
        let faults = all_faults(&nl);
        let frames = frames_for(&nl, 4, &mut rng);
        // Observe only the first output.
        let observed: Vec<NetId> = nl.outputs().iter().take(1).map(|(_, n)| *n).collect();
        let (reference, ref_stats) = comb_fault_sim_observed_opts(
            &nl, &faults, &frames, &observed, &ParallelOptions::default());
        for width in WordWidth::ALL {
            let (soa, stats) = comb_fault_sim_observed_opts(
                &nl, &faults, &frames, &observed, &soa_opts(width));
            prop_assert_eq!(&soa, &reference, "width {} seed {}", width, seed);
            prop_assert_eq!(stats.unobservable, ref_stats.unobservable,
                            "width {} seed {}", width, seed);
        }
    }

    /// Coverage curves from the pseudorandom runner are bit-identical
    /// (same rng consumption, same points) whichever engine grades the
    /// batches.
    #[test]
    fn coverage_curves_match(
        seed in 0u64..10_000,
        gates in 4usize..40,
        budget in 1usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(5, gates, 2, &mut rng);
        let faults = all_faults(&nl);
        let (reference, _) = random_pattern_run_opts(
            &nl, &faults, budget, &mut StdRng::seed_from_u64(seed ^ 0xC0FFEE),
            &ParallelOptions::default());
        for width in WordWidth::ALL {
            let (soa, _) = random_pattern_run_opts(
                &nl, &faults, budget, &mut StdRng::seed_from_u64(seed ^ 0xC0FFEE),
                &soa_opts(width));
            prop_assert_eq!(&soa.curve, &reference.curve, "width {} seed {}", width, seed);
            prop_assert_eq!(&soa.summary, &reference.summary, "width {} seed {}", width, seed);
        }
    }
}

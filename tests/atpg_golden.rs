//! Fixed golden PODEM results for every benchmark design: the verdict
//! tallies, the search-effort counters and a fingerprint of the
//! generated pattern words are pinned for the unscanned and the
//! full-scan netlist. Unlike the flow's top-up (which only sees what
//! random grading missed), each run here targets the full collapsed
//! universe, so detections and fault-dropping simulations are
//! exercised too. Any change to the search order, the implication
//! count or the test cubes surfaces here first.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::atpg::{generate_all, AtpgOptions, AtpgRun};
use hlstb::netlist::fault::collapsed_faults;

/// FNV-1a over every pattern word (PI words, then flop words, then the
/// lane mask, frame by frame).
fn fingerprint(run: &AtpgRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in &run.patterns {
        for &w in frame.pi.iter().chain(&frame.ff).chain([&frame.mask]) {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One pinned run: detected, untestable, aborted, patterns, decisions,
/// backtracks, implications, pattern fingerprint.
type Golden = (usize, usize, usize, usize, u64, u64, u64, u64);

/// (design, strategy, golden) at width 4, in `benchmarks::all()`
/// order. Update deliberately when the netlist expansion or fault
/// collapsing changes — never to absorb a change in the search itself.
const GOLDEN: &[(&str, &str, Golden)] = &[
    (
        "figure1",
        "none",
        (0, 402, 0, 0, 56, 56, 514, 0xcbf29ce484222325),
    ),
    (
        "figure1",
        "full-scan",
        (163, 239, 0, 9, 193, 184, 625, 0x03fb2b94c62c611d),
    ),
    (
        "diffeq",
        "none",
        (0, 802, 0, 0, 16, 16, 834, 0xcbf29ce484222325),
    ),
    (
        "diffeq",
        "full-scan",
        (183, 619, 0, 17, 4615, 4598, 9849, 0x2fd33cf8e114e2bd),
    ),
    (
        "ewf",
        "none",
        (0, 1694, 0, 0, 8, 8, 1710, 0xcbf29ce484222325),
    ),
    (
        "ewf",
        "full-scan",
        (278, 1416, 0, 5, 205, 200, 1826, 0x0c1332df92a49e3d),
    ),
    (
        "fir8",
        "none",
        (0, 948, 0, 0, 8, 8, 964, 0xcbf29ce484222325),
    ),
    (
        "fir8",
        "full-scan",
        (99, 849, 0, 5, 1218, 1213, 3285, 0x4ab50553ebef4d9d),
    ),
    (
        "ar_lattice",
        "none",
        (0, 580, 0, 0, 8, 8, 596, 0xcbf29ce484222325),
    ),
    (
        "ar_lattice",
        "full-scan",
        (82, 498, 0, 5, 141, 136, 780, 0xd9b43748c5e2197d),
    ),
    (
        "iir_biquad",
        "none",
        (0, 586, 0, 0, 8, 8, 602, 0xcbf29ce484222325),
    ),
    (
        "iir_biquad",
        "full-scan",
        (75, 511, 0, 5, 61, 56, 633, 0x5bed472445da02fd),
    ),
    (
        "tseng",
        "none",
        (0, 440, 0, 0, 32, 32, 504, 0xcbf29ce484222325),
    ),
    (
        "tseng",
        "full-scan",
        (101, 339, 0, 9, 129, 120, 597, 0xfe130b8000f01e9d),
    ),
    (
        "gcd",
        "none",
        (0, 598, 0, 0, 24, 24, 646, 0xcbf29ce484222325),
    ),
    (
        "gcd",
        "full-scan",
        (176, 422, 0, 13, 173, 160, 768, 0x95a1d83c9a211cdd),
    ),
    (
        "dct_lite",
        "none",
        (0, 670, 0, 0, 32, 32, 734, 0xcbf29ce484222325),
    ),
    (
        "dct_lite",
        "full-scan",
        (232, 438, 0, 17, 81, 64, 600, 0x937cd115e70b723d),
    ),
];

#[test]
fn every_design_matches_golden_podem_results() {
    let strategies = [
        ("none", DftStrategy::None),
        ("full-scan", DftStrategy::FullScan),
    ];
    let mut got = Vec::new();
    for g in benchmarks::all() {
        for (label, strategy) in strategies {
            let d = SynthesisFlow::new(g.clone())
                .strategy(strategy)
                .width(4)
                .run()
                .unwrap();
            let nl = &d.expanded.netlist;
            let faults = collapsed_faults(nl);
            let run = generate_all(nl, &faults, &AtpgOptions::default());
            assert_eq!(
                run.detected + run.untestable + run.aborted,
                faults.len(),
                "{} {label}: every fault gets a verdict",
                g.name()
            );
            let row: Golden = (
                run.detected,
                run.untestable,
                run.aborted,
                run.patterns.len(),
                run.effort.decisions,
                run.effort.backtracks,
                run.effort.implications,
                fingerprint(&run),
            );
            got.push((g.name().to_string(), label, row));
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table covers the suite");
    for ((name, label, row), &(gname, glabel, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (name.as_str(), *label),
            (gname, glabel),
            "golden table order"
        );
        assert_eq!(*row, want, "{name} {label}");
    }
}

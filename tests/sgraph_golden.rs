//! Fixed golden S-graph results for every built-in design under every
//! scheduler and register policy: the minimum feedback vertex set of
//! the pre-DFT register S-graph (node list and `optimal` flag), the
//! strategy-independent [`SgraphFacts`], and the scan registers the
//! `gate-partial-scan` and `loop-avoidance` strategies end up marking.
//! Any change to the MFVS search order, the SCC split or the greedy
//! fallback surfaces here first.
//!
//! To print the current table (for a deliberate update), run
//! `HLSTB_PRINT_GOLDEN=1 cargo test --test sgraph_golden -- --nocapture`.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, RegisterPolicy, Scheduler, SynthesisFlow};
use hlstb::sgraph::mfvs::{minimum_feedback_vertex_set, MfvsOptions};

const SCHEDULERS: [(Scheduler, &str); 4] = [
    (Scheduler::List, "list"),
    (Scheduler::IoAware, "io-aware"),
    (Scheduler::Asap, "asap"),
    (Scheduler::ForceDirected(1), "force-directed=1"),
];

const POLICIES: [(RegisterPolicy, &str); 6] = [
    (RegisterPolicy::LeftEdge, "left-edge"),
    (RegisterPolicy::Dsatur, "dsatur"),
    (RegisterPolicy::IoMax, "io-max"),
    (RegisterPolicy::Boundary, "boundary"),
    (RegisterPolicy::LoopAvoiding, "loop-avoiding"),
    (RegisterPolicy::Avra, "avra"),
];

fn list(v: impl IntoIterator<Item = usize>) -> String {
    let items: Vec<String> = v.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// The scan registers `strategy` marks on `flow`'s front end.
fn marked(flow: &SynthesisFlow, strategy: DftStrategy) -> String {
    let flow = flow.clone().strategy(strategy);
    match flow.front_end() {
        Ok(mut fe) => {
            flow.apply_dft(&mut fe);
            list(fe.datapath.scan_registers())
        }
        Err(e) => format!("error({e})"),
    }
}

/// One line per (design, scheduler, policy):
/// `design scheduler policy fvs=[..] opt=B cycles=N mfvs=N gps=[..] la=[..]`.
fn table() -> Vec<String> {
    let mut out = Vec::new();
    for g in benchmarks::all() {
        for (s, sname) in SCHEDULERS {
            for (p, pname) in POLICIES {
                let flow = SynthesisFlow::new(g.clone())
                    .scheduler(s)
                    .register_policy(p);
                let head = format!("{} {sname} {pname}", g.name());
                let fe = match flow.front_end() {
                    Ok(fe) => fe,
                    Err(e) => {
                        out.push(format!("{head} error({e})"));
                        continue;
                    }
                };
                let fvs = minimum_feedback_vertex_set(
                    &fe.datapath.register_sgraph(),
                    MfvsOptions::default(),
                );
                let facts = SynthesisFlow::sgraph_facts(&fe.datapath);
                out.push(format!(
                    "{head} fvs={} opt={} cycles={} mfvs={} gps={} la={}",
                    list(fvs.nodes.iter().map(|n| n.index())),
                    u8::from(fvs.optimal),
                    facts.cycles,
                    facts.mfvs_size,
                    marked(&flow, DftStrategy::GateLevelPartialScan),
                    marked(&flow, DftStrategy::SimultaneousLoopAvoidance),
                ));
            }
        }
    }
    out
}

#[test]
fn every_design_matches_golden_sgraph_results() {
    let got = table();
    if std::env::var_os("HLSTB_PRINT_GOLDEN").is_some() {
        for line in &got {
            println!("{line}");
        }
    }
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(got.len(), want.len(), "row count changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}

/// `design scheduler policy fvs=[..] opt=B cycles=N mfvs=N gps=[..] la=[..]`
/// in `benchmarks::all()` × scheduler × policy order. Update
/// deliberately when the front end changes — never to absorb a change
/// in the MFVS search itself.
const GOLDEN: &str = "
figure1 list left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 list dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 list io-max fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 list boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
figure1 list loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 list avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 io-aware left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 io-aware dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 io-aware io-max fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 io-aware boundary fvs=[0] opt=1 cycles=2 mfvs=1 gps=[0] la=[]
figure1 io-aware loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 io-aware avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 asap left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 asap dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 asap io-max fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
figure1 asap boundary fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 asap loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 asap avra fvs=[1,3] opt=1 cycles=2 mfvs=2 gps=[1,3] la=[]
figure1 force-directed=1 left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 force-directed=1 dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 force-directed=1 io-max fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 force-directed=1 boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
figure1 force-directed=1 loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
figure1 force-directed=1 avra fvs=[7] opt=1 cycles=1 mfvs=1 gps=[7] la=[]
diffeq list left-edge fvs=[7] opt=1 cycles=15 mfvs=1 gps=[7] la=[0]
diffeq list dsatur fvs=[0] opt=1 cycles=12 mfvs=1 gps=[0] la=[0]
diffeq list io-max fvs=[0,5] opt=1 cycles=21 mfvs=2 gps=[0,5] la=[0]
diffeq list boundary fvs=[0,6] opt=1 cycles=8 mfvs=2 gps=[0,6] la=[0]
diffeq list loop-avoiding fvs=[7] opt=1 cycles=7 mfvs=1 gps=[7] la=[0]
diffeq list avra fvs=[0,6] opt=1 cycles=13 mfvs=2 gps=[0,6] la=[0]
diffeq io-aware left-edge fvs=[7] opt=1 cycles=15 mfvs=1 gps=[7] la=[0]
diffeq io-aware dsatur fvs=[0] opt=1 cycles=10 mfvs=1 gps=[0] la=[0]
diffeq io-aware io-max fvs=[0,5] opt=1 cycles=19 mfvs=2 gps=[0,5] la=[0]
diffeq io-aware boundary fvs=[0,6] opt=1 cycles=8 mfvs=2 gps=[0,6] la=[0]
diffeq io-aware loop-avoiding fvs=[7] opt=1 cycles=5 mfvs=1 gps=[7] la=[0]
diffeq io-aware avra fvs=[0,6] opt=1 cycles=11 mfvs=2 gps=[0,6] la=[0]
diffeq asap left-edge fvs=[0,1] opt=1 cycles=17 mfvs=2 gps=[0,1] la=[0]
diffeq asap dsatur fvs=[0,2] opt=1 cycles=6 mfvs=2 gps=[0,2] la=[0]
diffeq asap io-max fvs=[4,5] opt=1 cycles=7 mfvs=2 gps=[4,5] la=[0]
diffeq asap boundary fvs=[6] opt=1 cycles=5 mfvs=1 gps=[6] la=[0]
diffeq asap loop-avoiding fvs=[2] opt=1 cycles=3 mfvs=1 gps=[2] la=[0]
diffeq asap avra fvs=[2,4] opt=1 cycles=12 mfvs=2 gps=[2,4] la=[0]
diffeq force-directed=1 left-edge fvs=[2] opt=1 cycles=6 mfvs=1 gps=[2] la=[0]
diffeq force-directed=1 dsatur fvs=[4,5] opt=1 cycles=7 mfvs=2 gps=[4,5] la=[0]
diffeq force-directed=1 io-max fvs=[0,4] opt=1 cycles=13 mfvs=2 gps=[0,4] la=[0]
diffeq force-directed=1 boundary fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[0]
diffeq force-directed=1 loop-avoiding fvs=[0,2] opt=1 cycles=7 mfvs=2 gps=[0,2] la=[0]
diffeq force-directed=1 avra fvs=[4,5] opt=1 cycles=7 mfvs=2 gps=[4,5] la=[0]
ewf list left-edge fvs=[1,2,3,6,8] opt=1 cycles=38 mfvs=5 gps=[1,2,3,6,8] la=[0,1,2,3,4]
ewf list dsatur fvs=[0,1,2,3,8,9] opt=1 cycles=49 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf list io-max fvs=[0,1,4,5,6,7] opt=1 cycles=52 mfvs=6 gps=[0,1,4,5,6,7] la=[0,1,2,3,4]
ewf list boundary fvs=[0,2,4,6,8] opt=1 cycles=39 mfvs=5 gps=[0,2,4,6,8] la=[0,1,2,3,4]
ewf list loop-avoiding fvs=[1,2,3,6,7,10,11,15] opt=1 cycles=33 mfvs=8 gps=[1,2,3,6,7,10,11,15] la=[0,1,2,3,4]
ewf list avra fvs=[0,1,2,3,8,9] opt=1 cycles=117 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf io-aware left-edge fvs=[1,2,3,6,8] opt=1 cycles=38 mfvs=5 gps=[1,2,3,6,8] la=[0,1,2,3,4]
ewf io-aware dsatur fvs=[0,1,2,3,8,9] opt=1 cycles=49 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf io-aware io-max fvs=[0,1,4,5,6,7] opt=1 cycles=52 mfvs=6 gps=[0,1,4,5,6,7] la=[0,1,2,3,4]
ewf io-aware boundary fvs=[0,2,4,6,8] opt=1 cycles=39 mfvs=5 gps=[0,2,4,6,8] la=[0,1,2,3,4]
ewf io-aware loop-avoiding fvs=[1,2,3,6,7,10,11,15] opt=1 cycles=33 mfvs=8 gps=[1,2,3,6,7,10,11,15] la=[0,1,2,3,4]
ewf io-aware avra fvs=[0,1,2,3,8,9] opt=1 cycles=117 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf asap left-edge fvs=[0,2,3,5,7,10] opt=1 cycles=49 mfvs=6 gps=[0,2,3,5,7,10] la=[0,1,2,3,4]
ewf asap dsatur fvs=[0,1,2,3,8,9] opt=1 cycles=49 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf asap io-max fvs=[0,3,4,5,6] opt=1 cycles=26 mfvs=5 gps=[0,3,4,5,6] la=[0,1,2,3,4]
ewf asap boundary fvs=[0,2,4,6,8] opt=1 cycles=27 mfvs=5 gps=[0,2,4,6,8] la=[0,1,2,3,4]
ewf asap loop-avoiding fvs=[1,2,4,6,7,10,11,14] opt=0 cycles=105 mfvs=8 gps=[1,2,4,6,7,10,11,14] la=[0,1,2,3,4]
ewf asap avra fvs=[0,1,2,3,8,10] opt=1 cycles=79 mfvs=6 gps=[0,1,2,3,8,10] la=[0,1,2,3,4]
ewf force-directed=1 left-edge fvs=[1,2,3,6,8] opt=1 cycles=38 mfvs=5 gps=[1,2,3,6,8] la=[0,1,2,3,4]
ewf force-directed=1 dsatur fvs=[0,1,2,3,8,9] opt=1 cycles=49 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
ewf force-directed=1 io-max fvs=[0,1,4,5,6,7] opt=1 cycles=52 mfvs=6 gps=[0,1,4,5,6,7] la=[0,1,2,3,4]
ewf force-directed=1 boundary fvs=[0,2,4,6,8] opt=1 cycles=39 mfvs=5 gps=[0,2,4,6,8] la=[0,1,2,3,4]
ewf force-directed=1 loop-avoiding fvs=[1,2,3,6,7,10,11,15] opt=1 cycles=33 mfvs=8 gps=[1,2,3,6,7,10,11,15] la=[0,1,2,3,4]
ewf force-directed=1 avra fvs=[0,1,2,3,8,9] opt=1 cycles=117 mfvs=6 gps=[0,1,2,3,8,9] la=[0,1,2,3,4]
fir8 list left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 list dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 list io-max fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
fir8 list boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
fir8 list loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 list avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 io-aware left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 io-aware dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 io-aware io-max fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
fir8 io-aware boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
fir8 io-aware loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 io-aware avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 asap left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 asap dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 asap io-max fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 asap boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
fir8 asap loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 asap avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 left-edge fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 dsatur fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 io-max fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 boundary fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
fir8 force-directed=1 avra fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
ar_lattice list left-edge fvs=[0] opt=1 cycles=7 mfvs=1 gps=[0] la=[0]
ar_lattice list dsatur fvs=[0,2] opt=1 cycles=9 mfvs=2 gps=[0,2] la=[0]
ar_lattice list io-max fvs=[1] opt=1 cycles=3 mfvs=1 gps=[1] la=[0]
ar_lattice list boundary fvs=[0,2] opt=1 cycles=18 mfvs=2 gps=[0,2] la=[0]
ar_lattice list loop-avoiding fvs=[0,1] opt=1 cycles=7 mfvs=2 gps=[0,1] la=[0]
ar_lattice list avra fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
ar_lattice io-aware left-edge fvs=[0] opt=1 cycles=7 mfvs=1 gps=[0] la=[0]
ar_lattice io-aware dsatur fvs=[0,2] opt=1 cycles=9 mfvs=2 gps=[0,2] la=[0]
ar_lattice io-aware io-max fvs=[1] opt=1 cycles=3 mfvs=1 gps=[1] la=[0]
ar_lattice io-aware boundary fvs=[0,2] opt=1 cycles=18 mfvs=2 gps=[0,2] la=[0]
ar_lattice io-aware loop-avoiding fvs=[0,1] opt=1 cycles=7 mfvs=2 gps=[0,1] la=[0]
ar_lattice io-aware avra fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
ar_lattice asap left-edge fvs=[0] opt=1 cycles=7 mfvs=1 gps=[0] la=[0]
ar_lattice asap dsatur fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
ar_lattice asap io-max fvs=[1] opt=1 cycles=3 mfvs=1 gps=[1] la=[0]
ar_lattice asap boundary fvs=[0,1] opt=1 cycles=15 mfvs=2 gps=[0,1] la=[0]
ar_lattice asap loop-avoiding fvs=[1] opt=1 cycles=3 mfvs=1 gps=[1] la=[0]
ar_lattice asap avra fvs=[0,4] opt=1 cycles=10 mfvs=2 gps=[0,4] la=[0]
ar_lattice force-directed=1 left-edge fvs=[0] opt=1 cycles=7 mfvs=1 gps=[0] la=[0]
ar_lattice force-directed=1 dsatur fvs=[0,2] opt=1 cycles=9 mfvs=2 gps=[0,2] la=[0]
ar_lattice force-directed=1 io-max fvs=[1] opt=1 cycles=3 mfvs=1 gps=[1] la=[0]
ar_lattice force-directed=1 boundary fvs=[0,2] opt=1 cycles=18 mfvs=2 gps=[0,2] la=[0]
ar_lattice force-directed=1 loop-avoiding fvs=[0,1] opt=1 cycles=7 mfvs=2 gps=[0,1] la=[0]
ar_lattice force-directed=1 avra fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
iir_biquad list left-edge fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0]
iir_biquad list dsatur fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad list io-max fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0]
iir_biquad list boundary fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad list loop-avoiding fvs=[1] opt=1 cycles=12 mfvs=1 gps=[1] la=[0]
iir_biquad list avra fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad io-aware left-edge fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0]
iir_biquad io-aware dsatur fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad io-aware io-max fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0]
iir_biquad io-aware boundary fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad io-aware loop-avoiding fvs=[1] opt=1 cycles=12 mfvs=1 gps=[1] la=[0]
iir_biquad io-aware avra fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad asap left-edge fvs=[0,2] opt=1 cycles=6 mfvs=2 gps=[0,2] la=[0]
iir_biquad asap dsatur fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[0]
iir_biquad asap io-max fvs=[5] opt=1 cycles=4 mfvs=1 gps=[5] la=[0]
iir_biquad asap boundary fvs=[0] opt=1 cycles=6 mfvs=1 gps=[0] la=[0]
iir_biquad asap loop-avoiding fvs=[5] opt=1 cycles=5 mfvs=1 gps=[5] la=[0]
iir_biquad asap avra fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[0]
iir_biquad force-directed=1 left-edge fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
iir_biquad force-directed=1 dsatur fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
iir_biquad force-directed=1 io-max fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0]
iir_biquad force-directed=1 boundary fvs=[0,1] opt=1 cycles=12 mfvs=2 gps=[0,1] la=[0]
iir_biquad force-directed=1 loop-avoiding fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[0]
iir_biquad force-directed=1 avra fvs=[0] opt=1 cycles=8 mfvs=1 gps=[0] la=[0]
tseng list left-edge fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng list dsatur fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng list io-max fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[]
tseng list boundary fvs=[0] opt=1 cycles=4 mfvs=1 gps=[0] la=[]
tseng list loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
tseng list avra fvs=[0,3] opt=1 cycles=11 mfvs=2 gps=[0,3] la=[]
tseng io-aware left-edge fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng io-aware dsatur fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng io-aware io-max fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[]
tseng io-aware boundary fvs=[0] opt=1 cycles=4 mfvs=1 gps=[0] la=[]
tseng io-aware loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
tseng io-aware avra fvs=[0,3] opt=1 cycles=11 mfvs=2 gps=[0,3] la=[]
tseng asap left-edge fvs=[0] opt=1 cycles=2 mfvs=1 gps=[0] la=[]
tseng asap dsatur fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng asap io-max fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng asap boundary fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng asap loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
tseng asap avra fvs=[1,3] opt=1 cycles=17 mfvs=2 gps=[1,3] la=[]
tseng force-directed=1 left-edge fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng force-directed=1 dsatur fvs=[0] opt=1 cycles=1 mfvs=1 gps=[0] la=[]
tseng force-directed=1 io-max fvs=[0] opt=1 cycles=3 mfvs=1 gps=[0] la=[]
tseng force-directed=1 boundary fvs=[0] opt=1 cycles=4 mfvs=1 gps=[0] la=[]
tseng force-directed=1 loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
tseng force-directed=1 avra fvs=[0,3] opt=1 cycles=11 mfvs=2 gps=[0,3] la=[]
gcd list left-edge fvs=[0,1] opt=1 cycles=21 mfvs=2 gps=[0,1] la=[0,1]
gcd list dsatur fvs=[0,1,3] opt=1 cycles=18 mfvs=3 gps=[0,1,3] la=[0,1]
gcd list io-max fvs=[6,7] opt=1 cycles=33 mfvs=2 gps=[6,7] la=[0,1]
gcd list boundary fvs=[6,7] opt=1 cycles=38 mfvs=2 gps=[6,7] la=[0,1]
gcd list loop-avoiding fvs=[0,1] opt=1 cycles=12 mfvs=2 gps=[0,1] la=[0,1]
gcd list avra fvs=[0,1,3] opt=1 cycles=18 mfvs=3 gps=[0,1,3] la=[0,1]
gcd io-aware left-edge fvs=[0,1] opt=1 cycles=21 mfvs=2 gps=[0,1] la=[0,1]
gcd io-aware dsatur fvs=[0,1,3] opt=1 cycles=18 mfvs=3 gps=[0,1,3] la=[0,1]
gcd io-aware io-max fvs=[6,7] opt=1 cycles=33 mfvs=2 gps=[6,7] la=[0,1]
gcd io-aware boundary fvs=[6,7] opt=1 cycles=38 mfvs=2 gps=[6,7] la=[0,1]
gcd io-aware loop-avoiding fvs=[0,1] opt=1 cycles=12 mfvs=2 gps=[0,1] la=[0,1]
gcd io-aware avra fvs=[0,1,3] opt=1 cycles=18 mfvs=3 gps=[0,1,3] la=[0,1]
gcd asap left-edge fvs=[0,1] opt=1 cycles=25 mfvs=2 gps=[0,1] la=[0,1]
gcd asap dsatur fvs=[0,2,3] opt=1 cycles=30 mfvs=3 gps=[0,2,3] la=[0,1]
gcd asap io-max fvs=[0,5] opt=1 cycles=22 mfvs=2 gps=[0,5] la=[0,1]
gcd asap boundary fvs=[1,3,5] opt=1 cycles=43 mfvs=3 gps=[1,3,5] la=[0,1]
gcd asap loop-avoiding fvs=[0,1] opt=1 cycles=12 mfvs=2 gps=[0,1] la=[0,1]
gcd asap avra fvs=[0,2,3] opt=1 cycles=42 mfvs=3 gps=[0,2,3] la=[0,1]
gcd force-directed=1 left-edge fvs=[0,1] opt=1 cycles=11 mfvs=2 gps=[0,1] la=[0,1]
gcd force-directed=1 dsatur fvs=[0,1,2] opt=1 cycles=27 mfvs=3 gps=[0,1,2] la=[0,1]
gcd force-directed=1 io-max fvs=[1,2] opt=1 cycles=13 mfvs=2 gps=[1,2] la=[0,1]
gcd force-directed=1 boundary fvs=[0,1,3] opt=1 cycles=21 mfvs=3 gps=[0,1,3] la=[0,1]
gcd force-directed=1 loop-avoiding fvs=[0,1] opt=1 cycles=14 mfvs=2 gps=[0,1] la=[0,1]
gcd force-directed=1 avra fvs=[0,1,2] opt=1 cycles=27 mfvs=3 gps=[0,1,2] la=[0,1]
dct_lite list left-edge fvs=[1,3] opt=1 cycles=19 mfvs=2 gps=[1,3] la=[]
dct_lite list dsatur fvs=[0,1,2] opt=1 cycles=11 mfvs=3 gps=[0,1,2] la=[]
dct_lite list io-max fvs=[0,1,4] opt=1 cycles=15 mfvs=3 gps=[0,1,4] la=[]
dct_lite list boundary fvs=[0,1] opt=1 cycles=14 mfvs=2 gps=[0,1] la=[]
dct_lite list loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
dct_lite list avra fvs=[0,1,2] opt=1 cycles=10 mfvs=3 gps=[0,1,2] la=[]
dct_lite io-aware left-edge fvs=[1,3] opt=1 cycles=19 mfvs=2 gps=[1,3] la=[]
dct_lite io-aware dsatur fvs=[0,1,2] opt=1 cycles=11 mfvs=3 gps=[0,1,2] la=[]
dct_lite io-aware io-max fvs=[0,1,4] opt=1 cycles=15 mfvs=3 gps=[0,1,4] la=[]
dct_lite io-aware boundary fvs=[0,1] opt=1 cycles=14 mfvs=2 gps=[0,1] la=[]
dct_lite io-aware loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
dct_lite io-aware avra fvs=[0,1,2] opt=1 cycles=10 mfvs=3 gps=[0,1,2] la=[]
dct_lite asap left-edge fvs=[0,2] opt=1 cycles=7 mfvs=2 gps=[0,2] la=[]
dct_lite asap dsatur fvs=[0,2] opt=1 cycles=7 mfvs=2 gps=[0,2] la=[]
dct_lite asap io-max fvs=[0,2,3] opt=1 cycles=9 mfvs=3 gps=[0,2,3] la=[]
dct_lite asap boundary fvs=[0,3] opt=1 cycles=6 mfvs=2 gps=[0,3] la=[]
dct_lite asap loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
dct_lite asap avra fvs=[0,2] opt=1 cycles=6 mfvs=2 gps=[0,2] la=[]
dct_lite force-directed=1 left-edge fvs=[2,3] opt=1 cycles=5 mfvs=2 gps=[2,3] la=[]
dct_lite force-directed=1 dsatur fvs=[1,3] opt=1 cycles=5 mfvs=2 gps=[1,3] la=[]
dct_lite force-directed=1 io-max fvs=[0,1] opt=1 cycles=7 mfvs=2 gps=[0,1] la=[]
dct_lite force-directed=1 boundary fvs=[2] opt=1 cycles=7 mfvs=1 gps=[2] la=[]
dct_lite force-directed=1 loop-avoiding fvs=[] opt=1 cycles=0 mfvs=0 gps=[] la=[]
dct_lite force-directed=1 avra fvs=[5,6] opt=1 cycles=15 mfvs=2 gps=[5,6] la=[]
";

//! Fault simulation: parallel-pattern combinational grading and
//! sequence-based sequential grading.
//!
//! Sequential grading assumes a resettable design starting from the
//! all-zero state for both the good and the faulty machine — the
//! standard simplification for architecture-level coverage studies; the
//! in-tree sequential ATPG ([`crate::seq`]) is the pessimistic
//! (3-valued) instrument.
//!
//! # The grading engine
//!
//! Every entry point has an `_opts` variant taking a
//! [`ParallelOptions`] and returning a [`GradeStats`] alongside the
//! summary. The engine grades fault-major: per frame the good machine
//! is evaluated once, then each fault is checked with a
//! faulty-machine evaluation restricted to the fault's combinational
//! fanout cone (nets outside the cone cannot differ from the good
//! values, so they are read through). Three screens avoid work without
//! ever changing the detected set:
//!
//! * **activation** — a fault whose good value equals the stuck value
//!   on every parallel pattern is not excited in this frame;
//! * **observability** — a fault whose cone reaches no observation
//!   point is structurally undetectable;
//! * **fault dropping** — once detected, a fault's remaining frames
//!   are skipped (detection is monotone in the frame set).
//!
//! Every engine grades the fault universe in one serial loop; callers
//! that want parallelism run independent grading calls side by side
//! (the sweep engine's point pool does).

use std::collections::BTreeSet;
use std::time::Instant;

use crate::deadline::Deadline;
use crate::fault::Fault;
use crate::net::{GateId, GateKind, NetId, Netlist};
use crate::sim::{eval_comb, next_state, ForcedNet};
use crate::stats::GradeStats;
use crate::word::WordWidth;

/// One combinational test frame: a word (64 parallel patterns) per
/// primary input, and per flip-flop when the circuit is graded in
/// full-scan mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestFrame {
    /// One word per primary input.
    pub pi: Vec<u64>,
    /// One word per flip-flop (scan-loaded state); empty for pure
    /// combinational circuits or non-scan grading.
    pub ff: Vec<u64>,
    /// Which of the 64 lanes carry real patterns. A frame holding only
    /// `k < 64` patterns must clear the unused high lanes
    /// (`mask = (1 << k) - 1`) or padding lanes would contribute
    /// phantom detections. [`TestFrame::new`] sets all lanes live.
    pub mask: u64,
}

impl TestFrame {
    /// A frame with all 64 lanes live — the historical behavior.
    pub fn new(pi: Vec<u64>, ff: Vec<u64>) -> TestFrame {
        TestFrame {
            pi,
            ff,
            mask: u64::MAX,
        }
    }

    /// A frame carrying only the `count` low lanes (`count` is clamped
    /// to 64); the rest are padding and can never detect a fault.
    pub fn with_lanes(pi: Vec<u64>, ff: Vec<u64>, count: usize) -> TestFrame {
        TestFrame {
            pi,
            ff,
            mask: lane_mask(count),
        }
    }
}

/// The mask selecting the `count` low lanes of a word (`count >= 64`
/// selects all of them).
pub fn lane_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Summary of a grading run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimSummary {
    /// Faults detected, in fault order.
    pub detected: BTreeSet<Fault>,
    /// Size of the graded universe.
    pub total: usize,
}

impl FaultSimSummary {
    /// Detected / total, in percent (100 for an empty universe).
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected.len() as f64 / self.total as f64
        }
    }
}

/// Which combinational grading engine runs the faulty-machine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimEngine {
    /// The retained reference engine: per-fault structural cone cache
    /// over the per-gate netlist view, one 64-pattern word per frame.
    /// Default, and the correctness anchor the SoA engine is
    /// differential-tested against.
    #[default]
    Reference,
    /// The levelized structure-of-arrays engine ([`crate::soa`]):
    /// event-driven propagation over flat index arrays, with frames
    /// packed [`ParallelOptions::word_width`] lanes per pattern word.
    Soa,
}

/// Options for the grading engine. The default — fault dropping on,
/// the reference engine at 64-pattern words — reproduces the historical
/// behavior and results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Skip a fault's remaining frames (combinational) or cycles
    /// (sequential) once it is detected. Detection is monotone, so this
    /// changes only the work done, never the detected set.
    pub drop_detected: bool,
    /// Cooperative wall-clock cutoff. Grading loops poll it every
    /// [`deadline_poll_stride`] faults and stop early with
    /// [`GradeStats::timed_out`] set; the default never expires.
    pub deadline: Deadline,
    /// Which faulty-machine engine grades combinational frames.
    pub engine: SimEngine,
    /// Pattern-word width of the SoA engine: how many frames are packed
    /// into one [`crate::word::PatternWord`]. Ignored by the reference
    /// engine, whose frames are inherently one 64-bit word wide.
    pub word_width: WordWidth,
}

/// How many faults are graded between deadline polls at the historical
/// one-lane width: often enough that an expired budget stops
/// work promptly, rarely enough that the `Instant::now` syscall is
/// invisible in the profile. Wider words poll at the scaled
/// [`deadline_poll_stride`] instead.
pub const DEADLINE_POLL_STRIDE: usize = 64;

/// Faults between deadline polls for an engine whose pattern words
/// carry `lanes` 64-bit lanes.
///
/// [`DEADLINE_POLL_STRIDE`] was calibrated as a *fault-eval* budget at
/// the historical one-lane width: 64 faults, each paying one frame-eval
/// per 64-pattern word between polls. An `L`-lane word does `L` lanes'
/// worth of evaluation per fault chunk, so the fault stride shrinks by
/// `L` to keep the work between polls — and therefore the worst-case
/// overshoot past an expired deadline — roughly constant across widths.
/// The stride never drops below one fault, and grading loops still skip
/// the poll before the first stride, so a zero-budget run always grades
/// exactly one stride's worth of faults: deterministic at every width,
/// with [`GradeStats::timed_out`] set the same way.
pub fn deadline_poll_stride(lanes: usize) -> usize {
    (DEADLINE_POLL_STRIDE / lanes.max(1)).max(1)
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            drop_detected: true,
            deadline: Deadline::none(),
            engine: SimEngine::Reference,
            word_width: WordWidth::W64,
        }
    }
}

impl ParallelOptions {
    /// The SoA engine at the given pattern-word width.
    pub fn soa(width: WordWidth) -> Self {
        ParallelOptions {
            engine: SimEngine::Soa,
            word_width: width,
            ..ParallelOptions::default()
        }
    }

    /// The default options; `n` is ignored. Kept only because the
    /// frozen benchmark harness (`perfbench/src/synth.rs`) calls it.
    pub fn with_threads(_n: usize) -> Self {
        ParallelOptions::default()
    }
}

fn forced(fault: Fault) -> ForcedNet {
    ForcedNet {
        net: fault.net,
        value: fault.stuck_at_one,
    }
}

/// The default observation set: primary outputs plus every scannable
/// flip-flop's data input (the response that would be shifted out).
fn scan_observed(nl: &Netlist) -> Vec<NetId> {
    let scan_obs: Vec<NetId> = nl
        .scan_flops()
        .iter()
        .map(|&f| nl.gate(f).inputs[0])
        .collect();
    nl.outputs()
        .iter()
        .map(|(_, n)| *n)
        .chain(scan_obs)
        .collect()
}

/// Grades `faults` against combinational/full-scan frames.
///
/// In scan mode (`frame.ff` nonempty) the observation points are the
/// primary outputs *plus every scannable flip-flop's data input* (the
/// response that would be shifted out); controllability comes from the
/// frame's `ff` words standing in for scan-in.
pub fn comb_fault_sim(nl: &Netlist, faults: &[Fault], frames: &[TestFrame]) -> FaultSimSummary {
    comb_fault_sim_opts(nl, faults, frames, &ParallelOptions::default()).0
}

/// [`comb_fault_sim`] with engine options and run instrumentation.
pub fn comb_fault_sim_opts(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    comb_fault_sim_observed_opts(nl, faults, frames, &scan_observed(nl), opts)
}

/// Grades `faults` with an explicit observation set — the primitive
/// behind both full-scan grading and BIST grading (where only the
/// signature registers' data inputs are compacted).
pub fn comb_fault_sim_observed(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    observed: &[NetId],
) -> FaultSimSummary {
    comb_fault_sim_observed_opts(nl, faults, frames, observed, &ParallelOptions::default()).0
}

/// [`comb_fault_sim_observed`] with engine options and run
/// instrumentation.
pub fn comb_fault_sim_observed_opts(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    observed: &[NetId],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    if opts.engine == SimEngine::Soa {
        return crate::soa::grade_observed_opts(nl, faults, frames, observed, opts);
    }
    // Good-machine phase: one reference evaluation per frame, plus the
    // engine's structural tables (fanout, topo positions, observation
    // marks).
    let good_span = hlstb_trace::span("fsim.good");
    let good_start = Instant::now();
    let masks: Vec<u64> = frames.iter().map(|f| f.mask).collect();
    let goods: Vec<Vec<u64>> = frames
        .iter()
        .map(|frame| {
            let ff = if frame.ff.is_empty() && !nl.dffs().is_empty() {
                vec![0u64; nl.dffs().len()]
            } else {
                frame.ff.clone()
            };
            eval_comb(nl, &frame.pi, &ff, None)
        })
        .collect();
    let engine = ConeEngine::new(nl, observed);
    let wall_good = good_start.elapsed();
    good_span.end();

    let fault_span = hlstb_trace::span("fsim.fault");
    let fault_start = Instant::now();
    let mut detected = BTreeSet::new();
    let mut stats = GradeStats::default();
    let mut scratch = Scratch::new(nl.num_gates());
    // Both polarities of a net share its cone; universes list them
    // adjacently, so caching the last cone removes half the builds.
    let mut cached: Option<(NetId, Cone)> = None;
    for (fault_idx, &fault) in faults.iter().enumerate() {
        // Cooperative cutoff: stop between faults, so every counter and
        // the detected set stay consistent. At least one fault is
        // always graded, which keeps zero-budget runs deterministic.
        if fault_idx > 0 && fault_idx % DEADLINE_POLL_STRIDE == 0 && opts.deadline.expired() {
            stats.timed_out = true;
            break;
        }
        if cached.as_ref().map(|(n, _)| *n) != Some(fault.net) {
            cached = Some((fault.net, engine.cone(fault.net, &mut scratch)));
        }
        let cone = &cached.as_ref().expect("cone cached above").1;
        if cone.obs.is_empty() {
            stats.unobservable += 1;
            continue;
        }
        let stuck = if fault.stuck_at_one { u64::MAX } else { 0 };
        let mut hit = false;
        for (fi, good) in goods.iter().enumerate() {
            if hit && opts.drop_detected {
                stats.dropped += (goods.len() - fi) as u64;
                break;
            }
            // Activation screen: if the good value already equals the
            // stuck value on every live pattern lane, the fault is not
            // excited in this frame.
            let gv = good[fault.net.index()];
            if (gv ^ stuck) & masks[fi] == 0 {
                stats.screened += 1;
                continue;
            }
            stats.fault_evals += 1;
            if engine.cone_differs(nl, cone, good, stuck, masks[fi], &mut scratch) {
                hit = true;
            }
        }
        if hit {
            detected.insert(fault);
        }
    }
    stats.faults = faults.len();
    stats.frames = frames.len();
    stats.wall_good = wall_good;
    stats.wall_fault = fault_start.elapsed();
    fault_span.end();
    stats.trace_bridge();
    (
        FaultSimSummary {
            detected,
            total: faults.len(),
        },
        stats,
    )
}

/// Structural tables of the cone engine.
struct ConeEngine {
    /// Net index → combinational gates reading it.
    fanout: Vec<Vec<u32>>,
    /// Gate index → position in topological order.
    topo_pos: Vec<u32>,
    /// Net index → is an observation point.
    obs_mark: Vec<bool>,
}

/// The combinational fanout cone of one fault site.
struct Cone {
    /// The faulty net's index.
    source: usize,
    /// Downstream combinational gates, topologically sorted.
    members: Vec<u32>,
    /// Observation points among `{source} ∪ members`.
    obs: Vec<u32>,
}

/// Reusable grading buffers: an epoch-stamped value overlay for the
/// faulty machine (nets outside the stamp read through to the good
/// values) and a visited stamp for cone construction.
struct Scratch {
    val: Vec<u64>,
    stamp: Vec<u64>,
    epoch: u64,
    visited: Vec<u64>,
    visit_epoch: u64,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            val: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            visited: vec![0; n],
            visit_epoch: 0,
        }
    }
}

impl ConeEngine {
    fn new(nl: &Netlist, observed: &[NetId]) -> Self {
        let n = nl.num_gates();
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (gid, gate) in nl.gates() {
            // Flip-flops break combinational propagation within a
            // frame; inputs/consts have no operands.
            if matches!(
                gate.kind,
                GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
            ) {
                continue;
            }
            for input in &gate.inputs {
                fanout[input.index()].push(gid.0);
            }
        }
        let mut topo_pos = vec![0u32; n];
        for (pos, gid) in nl.topo().iter().enumerate() {
            topo_pos[gid.index()] = pos as u32;
        }
        let mut obs_mark = vec![false; n];
        for net in observed {
            obs_mark[net.index()] = true;
        }
        ConeEngine {
            fanout,
            topo_pos,
            obs_mark,
        }
    }

    fn cone(&self, net: NetId, scratch: &mut Scratch) -> Cone {
        scratch.visit_epoch += 1;
        let epoch = scratch.visit_epoch;
        let source = net.index();
        scratch.visited[source] = epoch;
        let mut stack = vec![source];
        let mut members: Vec<u32> = Vec::new();
        while let Some(n) = stack.pop() {
            for &g in &self.fanout[n] {
                if scratch.visited[g as usize] != epoch {
                    scratch.visited[g as usize] = epoch;
                    members.push(g);
                    stack.push(g as usize);
                }
            }
        }
        members.sort_unstable_by_key(|&g| self.topo_pos[g as usize]);
        let mut obs: Vec<u32> = Vec::new();
        if self.obs_mark[source] {
            obs.push(source as u32);
        }
        obs.extend(
            members
                .iter()
                .copied()
                .filter(|&g| self.obs_mark[g as usize]),
        );
        Cone {
            source,
            members,
            obs,
        }
    }

    /// Evaluates the faulty machine on one frame, restricted to the
    /// cone, and reports whether any observation point differs from the
    /// good machine. Bit-identical to a full `eval_comb` with the fault
    /// forced: nets outside the cone cannot change, so they read
    /// through to `good`.
    fn cone_differs(
        &self,
        nl: &Netlist,
        cone: &Cone,
        good: &[u64],
        stuck: u64,
        mask: u64,
        scratch: &mut Scratch,
    ) -> bool {
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        scratch.stamp[cone.source] = epoch;
        scratch.val[cone.source] = stuck;
        #[inline]
        fn rd(scratch: &Scratch, good: &[u64], epoch: u64, i: usize) -> u64 {
            if scratch.stamp[i] == epoch {
                scratch.val[i]
            } else {
                good[i]
            }
        }
        for &g in &cone.members {
            let gate = nl.gate(GateId(g));
            let ins = &gate.inputs;
            let v = match gate.kind {
                GateKind::Buf => rd(scratch, good, epoch, ins[0].index()),
                GateKind::Not => !rd(scratch, good, epoch, ins[0].index()),
                GateKind::And => {
                    rd(scratch, good, epoch, ins[0].index())
                        & rd(scratch, good, epoch, ins[1].index())
                }
                GateKind::Or => {
                    rd(scratch, good, epoch, ins[0].index())
                        | rd(scratch, good, epoch, ins[1].index())
                }
                GateKind::Nand => {
                    !(rd(scratch, good, epoch, ins[0].index())
                        & rd(scratch, good, epoch, ins[1].index()))
                }
                GateKind::Nor => {
                    !(rd(scratch, good, epoch, ins[0].index())
                        | rd(scratch, good, epoch, ins[1].index()))
                }
                GateKind::Xor => {
                    rd(scratch, good, epoch, ins[0].index())
                        ^ rd(scratch, good, epoch, ins[1].index())
                }
                GateKind::Xnor => {
                    !(rd(scratch, good, epoch, ins[0].index())
                        ^ rd(scratch, good, epoch, ins[1].index()))
                }
                GateKind::Mux => {
                    let s = rd(scratch, good, epoch, ins[0].index());
                    (s & rd(scratch, good, epoch, ins[1].index()))
                        | (!s & rd(scratch, good, epoch, ins[2].index()))
                }
                GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => continue,
            };
            let i = g as usize;
            scratch.stamp[i] = epoch;
            scratch.val[i] = v;
        }
        // Only live pattern lanes may witness a detection: padding
        // lanes in a partially filled frame are masked out.
        cone.obs
            .iter()
            .any(|&o| (rd(scratch, good, epoch, o as usize) ^ good[o as usize]) & mask != 0)
    }
}

/// Grades `faults` against an input sequence (64 parallel sequences per
/// word). Detection = any primary output differs in any cycle.
pub fn seq_fault_sim(nl: &Netlist, faults: &[Fault], vectors: &[Vec<u64>]) -> FaultSimSummary {
    seq_fault_sim_opts(nl, faults, vectors, &ParallelOptions::default()).0
}

/// [`seq_fault_sim`] with engine options and run instrumentation.
pub fn seq_fault_sim_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
    let initial = vec![0u64; nl.dffs().len()];
    seq_fault_sim_observed_opts(nl, faults, vectors, &initial, &observed, opts)
}

/// Sequence-based grading with an explicit observation set and initial
/// state: the BIST instrument. `vectors[t]` drives the primary inputs at
/// cycle `t`; detection = any observed net differs in any cycle.
pub fn seq_fault_sim_observed(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    initial: &[u64],
    observed: &[NetId],
) -> FaultSimSummary {
    seq_fault_sim_observed_opts(
        nl,
        faults,
        vectors,
        initial,
        observed,
        &ParallelOptions::default(),
    )
    .0
}

/// [`seq_fault_sim_observed`] with engine options and run
/// instrumentation.
///
/// The faulty machine replays the whole sequence per fault (state
/// feedback defeats per-frame cone restriction).
pub fn seq_fault_sim_observed_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    initial: &[u64],
    observed: &[NetId],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    seq_fault_sim_observed_masked_opts(nl, faults, vectors, initial, observed, u64::MAX, opts)
}

/// [`seq_fault_sim_observed_opts`] with an explicit lane mask: only the
/// lanes set in `lane_mask` carry real sequences. A caller packing
/// `k < 64` parallel sequences into the vector words must pass
/// [`lane_mask`]`(k)` so the zero-filled padding lanes cannot produce
/// phantom detections.
#[allow(clippy::too_many_arguments)]
pub fn seq_fault_sim_observed_masked_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    initial: &[u64],
    observed: &[NetId],
    lane_mask: u64,
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    let good_span = hlstb_trace::span("fsim.good");
    let good_start = Instant::now();
    let obs: Vec<usize> = observed.iter().map(|n| n.index()).collect();
    let mut good_trace = Vec::with_capacity(vectors.len());
    let mut ff = initial.to_vec();
    for v in vectors {
        let values = eval_comb(nl, v, &ff, None);
        good_trace.push(obs.iter().map(|&i| values[i]).collect::<Vec<u64>>());
        ff = next_state(nl, &values);
    }
    let wall_good = good_start.elapsed();
    good_span.end();

    let fault_span = hlstb_trace::span("fsim.fault");
    let fault_start = Instant::now();
    let mut detected = BTreeSet::new();
    let mut stats = GradeStats::default();
    for (fault_idx, &fault) in faults.iter().enumerate() {
        if fault_idx > 0 && fault_idx % DEADLINE_POLL_STRIDE == 0 && opts.deadline.expired() {
            stats.timed_out = true;
            break;
        }
        let mut ff = initial.to_vec();
        pin_state(nl, fault, &mut ff);
        let mut hit = false;
        for (t, v) in vectors.iter().enumerate() {
            if hit && opts.drop_detected {
                stats.dropped += (vectors.len() - t) as u64;
                break;
            }
            stats.fault_evals += 1;
            let values = eval_comb(nl, v, &ff, Some(forced(fault)));
            if !hit {
                let differs = obs
                    .iter()
                    .zip(&good_trace[t])
                    .any(|(&i, &g)| (values[i] ^ g) & lane_mask != 0);
                if differs {
                    hit = true;
                }
            }
            ff = next_state(nl, &values);
            pin_state(nl, fault, &mut ff);
        }
        if hit {
            detected.insert(fault);
        }
    }
    stats.faults = faults.len();
    stats.frames = vectors.len();
    stats.wall_good = wall_good;
    stats.wall_fault = fault_start.elapsed();
    fault_span.end();
    stats.trace_bridge();
    (
        FaultSimSummary {
            detected,
            total: faults.len(),
        },
        stats,
    )
}

/// A stuck flip-flop output keeps its sampled state pinned as well.
fn pin_state(nl: &Netlist, fault: Fault, ff: &mut [u64]) {
    for (i, &f) in nl.dffs().iter().enumerate() {
        if f.net() == fault.net {
            ff[i] = if fault.stuck_at_one { u64::MAX } else { 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use crate::net::{GateKind, NetlistBuilder};

    fn xor_tree() -> Netlist {
        let mut b = NetlistBuilder::new("xt");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let x1 = b.xor2(a, c);
        let x2 = b.xor2(x1, d);
        b.output("o", x2);
        b.finish().unwrap()
    }

    #[test]
    fn exhaustive_patterns_detect_everything_in_xor_tree() {
        let nl = xor_tree();
        let faults = all_faults(&nl);
        // 8 patterns packed into one frame.
        let mut pi = vec![0u64; 3];
        for k in 0..8u64 {
            for (i, word) in pi.iter_mut().enumerate() {
                if k >> i & 1 == 1 {
                    *word |= 1 << k;
                }
            }
        }
        let r = comb_fault_sim(&nl, &faults, &[TestFrame::new(pi, Vec::new())]);
        assert_eq!(r.detected.len(), r.total);
        assert_eq!(r.coverage_percent(), 100.0);
    }

    #[test]
    fn no_patterns_detect_nothing() {
        let nl = xor_tree();
        let faults = all_faults(&nl);
        let r = comb_fault_sim(&nl, &faults, &[]);
        assert!(r.detected.is_empty());
        assert_eq!(r.coverage_percent(), 0.0);
    }

    #[test]
    fn blocked_logic_is_undetectable() {
        // o = x AND 0: faults on x can never propagate.
        let mut b = NetlistBuilder::new("blk");
        let x = b.input("x");
        let z = b.zero();
        let g = b.and2(x, z);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x), Fault::sa1(x)];
        let pi = vec![0b01u64];
        let r = comb_fault_sim(&nl, &faults, &[TestFrame::new(pi, Vec::new())]);
        assert!(r.detected.is_empty());
    }

    #[test]
    fn sequential_detection_through_a_flop() {
        // in -> dff -> out: a stuck input shows up one cycle later.
        let mut b = NetlistBuilder::new("pipe");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x)];
        let vectors = vec![vec![u64::MAX], vec![0]];
        let r = seq_fault_sim(&nl, &faults, &vectors);
        assert_eq!(r.detected.len(), 1);
    }

    #[test]
    fn scan_mode_observes_flop_inputs() {
        // x -> dff (scan) with no PO: only scan observation detects.
        let mut b = NetlistBuilder::new("scanobs");
        let x = b.input("x");
        let n = b.not(x);
        let _q = b.gate(GateKind::Dff { scan: true }, &[n]);
        b.output("dummy", x);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(n), Fault::sa1(n)];
        let frames = [
            TestFrame::new(vec![0], vec![0]),
            TestFrame::new(vec![u64::MAX], vec![0]),
        ];
        let r = comb_fault_sim(&nl, &faults, &frames);
        assert_eq!(r.detected.len(), 2);
    }

    #[test]
    fn stuck_flop_output_corrupts_state() {
        let mut b = NetlistBuilder::new("st");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let ff_net = nl.dffs()[0].net();
        let faults = vec![Fault::sa1(ff_net)];
        // Good machine: out = delayed x = 0,0; faulty: 1,1.
        let vectors = vec![vec![0u64], vec![0u64]];
        let r = seq_fault_sim(&nl, &faults, &vectors);
        assert_eq!(r.detected.len(), 1);
    }

    /// A multi-level circuit with reconvergence, flops, and a mux, used
    /// to cross-check the cone engine against every option combination.
    fn mixed_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("mix");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let (s, co) = b.ripple_add(&a, &c);
        let n = b.not(s[0]);
        let m = b.gate(GateKind::Mux, &[co, n, s[1]]);
        let q = b.register(&[m, s[2]], None, true);
        b.output("o", q[0]);
        b.output("p", m);
        b.finish().unwrap()
    }

    fn some_frames() -> Vec<TestFrame> {
        (0..4u64)
            .map(|k| {
                TestFrame::new(
                    (0..6)
                        .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left((k * 7 + i) as u32))
                        .collect(),
                    Vec::new(),
                )
            })
            .collect()
    }

    #[test]
    fn engine_options_never_change_the_result() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let baseline = comb_fault_sim(&nl, &faults, &frames);
        for drop_detected in [false, true] {
            let opts = ParallelOptions {
                drop_detected,
                ..ParallelOptions::default()
            };
            let (r, stats) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            assert_eq!(r, baseline, "drop={drop_detected}");
            assert_eq!(stats.faults, faults.len());
            assert_eq!(stats.frames, frames.len());
        }
    }

    #[test]
    fn expired_deadline_truncates_large_universes_but_stays_deterministic() {
        use crate::deadline::Deadline;
        let nl = mixed_circuit();
        // Inflate the universe past one poll stride by repeating the
        // collapsed list; detection is idempotent so only the work
        // changes.
        let base = all_faults(&nl);
        let faults: Vec<Fault> = base
            .iter()
            .cycle()
            .take(DEADLINE_POLL_STRIDE * 3)
            .copied()
            .collect();
        let frames = some_frames();
        let opts = ParallelOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ParallelOptions::default()
        };
        let (r1, s1) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
        let (r2, s2) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
        assert!(s1.timed_out);
        assert_eq!(r1, r2);
        assert_eq!(s1.fault_evals, s2.fault_evals);
        // Only the first poll stride was graded.
        let full = comb_fault_sim(&nl, &faults, &frames);
        assert!(r1.detected.len() <= full.detected.len());
    }

    #[test]
    fn seq_engine_options_never_change_the_result() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let vectors: Vec<Vec<u64>> = (0..5u64)
            .map(|k| {
                (0..6)
                    .map(|i| (k * 6 + i).wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .collect()
            })
            .collect();
        let baseline = seq_fault_sim(&nl, &faults, &vectors);
        for drop_detected in [false, true] {
            let opts = ParallelOptions {
                drop_detected,
                ..ParallelOptions::default()
            };
            let (r, _) = seq_fault_sim_opts(&nl, &faults, &vectors, &opts);
            assert_eq!(r, baseline, "drop={drop_detected}");
        }
    }

    #[test]
    fn dropping_skips_work_but_not_detections() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let (kept, s_keep) = comb_fault_sim_opts(
            &nl,
            &faults,
            &frames,
            &ParallelOptions {
                drop_detected: false,
                ..ParallelOptions::default()
            },
        );
        let (dropped, s_drop) =
            comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        assert_eq!(kept, dropped);
        assert!(s_drop.dropped > 0, "some fault should be dropped: {s_drop}");
        assert!(
            s_drop.fault_evals < s_keep.fault_evals,
            "dropping must save evaluations ({} vs {})",
            s_drop.fault_evals,
            s_keep.fault_evals
        );
    }

    /// Satellite regression: 65 real patterns graded with a tail-lane
    /// mask must detect exactly what 128 patterns detect when the 63
    /// padding lanes replicate a real pattern (explicit don't-cares).
    /// Before the mask existed, whatever garbage sat in the padding
    /// lanes contributed phantom detections.
    #[test]
    fn tail_lane_masking_matches_explicit_truncation() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let full: Vec<u64> = (0..6)
            .map(|i| 0xdead_beef_1996_0d0cu64.rotate_left(i * 9))
            .collect();
        let tail: Vec<u64> = (0..6)
            .map(|i| 0x0123_4567_89ab_cdefu64.rotate_left(i * 5))
            .collect();
        // 65 patterns: one full frame plus a frame with one live lane.
        let masked = vec![
            TestFrame::new(full.clone(), Vec::new()),
            TestFrame::with_lanes(tail.clone(), Vec::new(), 1),
        ];
        // 128 patterns whose last 63 are don't-cares: the tail frame's
        // lane 0 broadcast across the whole word. Duplicate patterns
        // cannot add detections, so the two runs must agree.
        let broadcast: Vec<u64> = tail
            .iter()
            .map(|w| if w & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        let padded = vec![
            TestFrame::new(full, Vec::new()),
            TestFrame::new(broadcast, Vec::new()),
        ];
        let want = comb_fault_sim(&nl, &faults, &padded);
        let got = comb_fault_sim(&nl, &faults, &masked);
        assert_eq!(got.detected, want.detected, "reference engine");
        for width in crate::word::WordWidth::ALL {
            let opts = ParallelOptions::soa(width);
            let (got_soa, _) = comb_fault_sim_opts(&nl, &faults, &masked, &opts);
            assert_eq!(got_soa.detected, want.detected, "soa width {width}");
        }
    }

    /// Satellite regression: the deadline poll stride is re-derived in
    /// fault-eval units per word width, so a zero-budget run grades
    /// exactly one stride's worth of faults — deterministically — at
    /// 64, 256, and 512-wide words.
    #[test]
    fn zero_budget_grades_one_stride_at_every_width() {
        use crate::deadline::Deadline;
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let faults = all_faults(&nl);
        let frames = some_frames_for(&nl, 16);
        for width in crate::word::WordWidth::ALL {
            let lanes = width.lanes();
            let stride = deadline_poll_stride(lanes);
            assert!(faults.len() > stride, "universe must overflow a stride");
            let opts = ParallelOptions {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..ParallelOptions::soa(width)
            };
            let (r1, s1) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            let (r2, s2) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            assert!(s1.timed_out, "width {width}");
            assert_eq!(r1, r2, "width {width}");
            assert_eq!(s1.fault_evals, s2.fault_evals, "width {width}");
            // The work ledger identifies exactly how many faults were
            // graded before the cutoff: one poll stride.
            let graded =
                s1.unobservable + (s1.fault_evals + s1.screened + s1.dropped) / frames.len() as u64;
            assert_eq!(graded, stride as u64, "width {width}");
        }
    }

    fn some_frames_for(nl: &Netlist, count: usize) -> Vec<TestFrame> {
        (0..count as u64)
            .map(|k| {
                TestFrame::new(
                    (0..nl.inputs().len() as u64)
                        .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left((k * 13 + i) as u32))
                        .collect(),
                    Vec::new(),
                )
            })
            .collect()
    }

    /// A lane-masked sequential run must ignore detections that only
    /// occur in padding lanes.
    #[test]
    fn seq_lane_mask_suppresses_padding_detections() {
        let mut b = NetlistBuilder::new("seqmask");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x)];
        let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        let initial = vec![0u64; nl.dffs().len()];
        // Only lane 1 excites the fault; with lane 0 alone live the
        // fault must stay undetected.
        let vectors = vec![vec![0b10u64], vec![0]];
        let (one_lane, _) = seq_fault_sim_observed_masked_opts(
            &nl,
            &faults,
            &vectors,
            &initial,
            &observed,
            lane_mask(1),
            &ParallelOptions::default(),
        );
        assert!(one_lane.detected.is_empty());
        let (two_lanes, _) = seq_fault_sim_observed_masked_opts(
            &nl,
            &faults,
            &vectors,
            &initial,
            &observed,
            lane_mask(2),
            &ParallelOptions::default(),
        );
        assert_eq!(two_lanes.detected.len(), 1);
    }

    #[test]
    fn stats_account_for_every_fault_frame_pair() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let (_, s) = comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        let pairs = (s.faults as u64 - s.unobservable) * s.frames as u64;
        assert_eq!(s.fault_evals + s.screened + s.dropped, pairs);
    }
}

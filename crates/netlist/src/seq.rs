//! Sequential ATPG by time-frame expansion.
//!
//! The circuit is unrolled into `k` combinational frames; flip-flop
//! state entering frame 0 is unknown (`X`) unless the flop is scannable,
//! in which case it is loadable (assignable) — the standard partial-scan
//! test model: scan load, a functional clock sequence, scan unload.
//! The fault is injected in every frame. PODEM then searches the
//! unrolled model; the frame count grows until detection or the limit.
//!
//! This is the instrument behind experiment E1: the deeper the state and
//! the longer the S-graph cycles, the more frames and the more
//! backtracks the search needs — reproducing the survey §3.1 claim.

use crate::atpg::{AtpgOptions, CombView, Effort, FaultStatus, PodemContext, TestCube};
use crate::fault::Fault;
use crate::net::{GateKind, NetId, Netlist, NetlistBuilder};

/// A time-frame-expanded model.
#[derive(Debug, Clone)]
pub struct Unrolled {
    /// The purely combinational unrolled netlist.
    pub netlist: Netlist,
    /// Number of frames.
    pub frames: usize,
    /// `net_map[t][orig_gate]` is the unrolled net carrying the original
    /// net's value in frame `t`.
    pub net_map: Vec<Vec<NetId>>,
    /// The ATPG view: per-frame primary inputs plus loadable (scan)
    /// initial state are assignable; every frame's primary outputs plus
    /// the last frame's scan-flop data inputs are observed.
    pub view: CombView,
}

impl Unrolled {
    /// Maps an original fault to its injection sites, one per frame.
    pub fn fault_sites(&self, fault: Fault) -> Vec<NetId> {
        (0..self.frames)
            .map(|t| self.net_map[t][fault.net.index()])
            .collect()
    }
}

/// Expands `nl` into `frames` combinational time frames.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn unroll(nl: &Netlist, frames: usize) -> Unrolled {
    assert!(frames > 0, "need at least one frame");
    let mut b = NetlistBuilder::new(format!("{}@x{frames}", nl.name()));
    let mut net_map: Vec<Vec<NetId>> = Vec::with_capacity(frames);
    let mut assignable = Vec::new();
    let mut observed = Vec::new();

    for t in 0..frames {
        let mut map = vec![NetId(u32::MAX); nl.num_gates()];
        // Sources first.
        for (id, g) in nl.gates() {
            match g.kind {
                GateKind::Input => {
                    let n = b.input(format!("{}@{t}", nl.net_name(id.net()).unwrap_or("pi")));
                    map[id.index()] = n;
                    assignable.push(n);
                }
                GateKind::Const(c) => {
                    map[id.index()] = if c { b.one() } else { b.zero() };
                }
                GateKind::Dff { scan } => {
                    if t == 0 {
                        let n = b.input(format!("state{}@0", id.net().0));
                        map[id.index()] = n;
                        if scan {
                            assignable.push(n); // scan-loadable
                        } // else: fixed X — an Input the ATPG may not assign
                    } else {
                        // Q in frame t = D value of frame t-1.
                        let d_prev = net_map[t - 1][g.inputs[0].index()];
                        map[id.index()] = b.gate(GateKind::Buf, &[d_prev]);
                    }
                }
                _ => {}
            }
        }
        // Combinational gates in topological order.
        for &gid in nl.topo() {
            let g = nl.gate(gid);
            let inputs: Vec<NetId> = g.inputs.iter().map(|n| map[n.index()]).collect();
            map[gid.index()] = b.gate(g.kind, &inputs);
        }
        // Frame outputs.
        for (name, net) in nl.outputs() {
            b.output(format!("{name}@{t}"), map[net.index()]);
            observed.push(map[net.index()]);
        }
        net_map.push(map);
    }
    // Scan-out observation of the last frame.
    let last = frames - 1;
    for &f in &nl.scan_flops() {
        let d = nl.gate(f).inputs[0];
        observed.push(net_map[last][d.index()]);
    }
    let netlist = b
        .finish()
        .expect("unrolled netlist is combinational by construction");
    Unrolled {
        netlist,
        frames,
        net_map,
        view: CombView {
            assignable,
            observed,
        },
    }
}

/// Options for sequential test generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqAtpgOptions {
    /// Maximum number of time frames to try.
    pub max_frames: usize,
    /// Backtrack limit per (fault, frame-count) PODEM run.
    pub backtrack_limit: u64,
}

impl Default for SeqAtpgOptions {
    fn default() -> Self {
        SeqAtpgOptions {
            max_frames: 8,
            backtrack_limit: 2_000,
        }
    }
}

/// Outcome of sequential generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqStatus {
    /// Detected with a `frames`-cycle vector sequence;
    /// `sequence[t][i]` drives the i-th primary input at cycle `t`.
    Detected {
        /// Input vectors, one per frame.
        sequence: Vec<Vec<bool>>,
        /// Scan-load values for the scannable flops
        /// (order of [`Netlist::scan_flops`]).
        scan_load: Vec<bool>,
        /// Frames used.
        frames: usize,
    },
    /// Untestable within the frame limit (exact only if no run aborted).
    Untestable,
    /// At least one PODEM run hit the backtrack limit.
    Aborted,
}

/// Sequential PODEM for one fault: tries 1, 2, … `max_frames` frames.
pub fn seq_podem(nl: &Netlist, fault: Fault, options: &SeqAtpgOptions) -> (SeqStatus, Effort) {
    seq_search(nl, &[fault], options)
        .pop()
        .expect("one verdict per fault")
}

/// Sequential PODEM over a fault list, depth-major: each frame count is
/// unrolled once and searched with one shared [`PodemContext`] for
/// every fault still undetected at the shallower depths. Each
/// (fault, depth) search is independent, so the verdicts and per-fault
/// effort equal fault-major [`seq_podem`] calls.
fn seq_search(
    nl: &Netlist,
    faults: &[Fault],
    options: &SeqAtpgOptions,
) -> Vec<(SeqStatus, Effort)> {
    let atpg = AtpgOptions {
        backtrack_limit: options.backtrack_limit,
    };
    let mut verdicts = vec![(SeqStatus::Untestable, Effort::default()); faults.len()];
    let mut pending: Vec<usize> = (0..faults.len()).collect();
    for k in 1..=options.max_frames {
        if pending.is_empty() {
            break;
        }
        let unrolled = unroll(nl, k);
        let mut ctx = PodemContext::new(&unrolled.netlist, &unrolled.view);
        pending.retain(|&i| {
            let fault = faults[i];
            let sites = unrolled.fault_sites(fault);
            let (status, e) = ctx.podem(&sites, fault.stuck_at_one, &atpg);
            let (verdict, effort) = &mut verdicts[i];
            effort.absorb(e);
            match status {
                FaultStatus::Detected(cube) => {
                    *verdict = detection(nl, &unrolled, &cube);
                    false
                }
                FaultStatus::Untestable => true,
                FaultStatus::Aborted => {
                    // Stays aborted unless a deeper frame count detects it.
                    *verdict = SeqStatus::Aborted;
                    true
                }
            }
        });
    }
    verdicts
}

/// The vector sequence and scan load a detecting cube on `unrolled`
/// stands for.
fn detection(nl: &Netlist, unrolled: &Unrolled, cube: &TestCube) -> SeqStatus {
    let value = |net: NetId| *cube.assignments.get(&net).unwrap_or(&false);
    let sequence = unrolled
        .net_map
        .iter()
        .map(|map| {
            nl.gates()
                .filter(|(_, g)| g.kind == GateKind::Input)
                .map(|(id, _)| value(map[id.index()]))
                .collect()
        })
        .collect();
    let scan_load = nl
        .scan_flops()
        .iter()
        .map(|&f| value(unrolled.net_map[0][f.index()]))
        .collect();
    SeqStatus::Detected {
        sequence,
        scan_load,
        frames: unrolled.frames,
    }
}

/// Aggregate sequential-ATPG result over a fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeqRun {
    /// Faults detected.
    pub detected: usize,
    /// Faults untestable within the frame budget.
    pub untestable: usize,
    /// Faults aborted.
    pub aborted: usize,
    /// Universe size.
    pub total: usize,
    /// Total search effort.
    pub effort: Effort,
    /// Sum of frames over detected faults.
    pub total_frames: usize,
}

impl SeqRun {
    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }
}

/// Runs sequential ATPG over a whole fault list (no fault dropping; each
/// fault is targeted so the effort metric is comparable across designs).
pub fn seq_generate_all(nl: &Netlist, faults: &[Fault], options: &SeqAtpgOptions) -> SeqRun {
    let _span = hlstb_trace::span("atpg.seq");
    let mut run = SeqRun {
        total: faults.len(),
        ..Default::default()
    };
    for (status, effort) in seq_search(nl, faults, options) {
        run.effort.absorb(effort);
        match status {
            SeqStatus::Detected { frames, .. } => {
                run.detected += 1;
                run.total_frames += frames;
            }
            SeqStatus::Untestable => run.untestable += 1,
            SeqStatus::Aborted => run.aborted += 1,
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetlistBuilder;

    /// A W-stage shift register from input to output.
    fn pipeline(depth: usize) -> Netlist {
        let mut b = NetlistBuilder::new(format!("pipe{depth}"));
        let x = b.input("x");
        let mut cur = x;
        for _ in 0..depth {
            cur = b.register(&[cur], None, false)[0];
        }
        b.output("o", cur);
        b.finish().unwrap()
    }

    #[test]
    fn unroll_shapes() {
        let nl = pipeline(2);
        let u = unroll(&nl, 3);
        // 3 frames × (1 PI + 2 state-or-buf + output plumbing).
        assert_eq!(u.frames, 3);
        assert_eq!(u.netlist.dffs().len(), 0);
        // Frame-0 state inputs are NOT assignable (no scan).
        assert_eq!(u.view.assignable.len(), 3); // x@0..2
    }

    #[test]
    fn deep_fault_needs_enough_frames() {
        let nl = pipeline(3);
        let x = nl.inputs()[0];
        let (status, _) = seq_podem(&nl, Fault::sa0(x), &SeqAtpgOptions::default());
        match status {
            SeqStatus::Detected {
                frames, sequence, ..
            } => {
                // Needs 4 frames: drive 1, then 3 shifts to reach the PO.
                assert_eq!(frames, 4);
                assert!(sequence[0][0]);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn frame_limit_blocks_deep_faults() {
        let nl = pipeline(6);
        let x = nl.inputs()[0];
        let opts = SeqAtpgOptions {
            max_frames: 3,
            backtrack_limit: 2_000,
        };
        let (status, _) = seq_podem(&nl, Fault::sa0(x), &opts);
        assert_eq!(status, SeqStatus::Untestable);
    }

    #[test]
    fn scan_load_shortens_sequences() {
        let nl = pipeline(3).with_full_scan();
        let x = nl.inputs()[0];
        let (status, _) = seq_podem(&nl, Fault::sa0(x), &SeqAtpgOptions::default());
        match status {
            SeqStatus::Detected { frames, .. } => {
                // Scan observation of the first flop's D input: 1 frame.
                assert_eq!(frames, 1);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn feedback_loop_requires_work() {
        // A self-clearing loop: q' = q XOR x; fault inside the loop.
        let mut b = NetlistBuilder::new("loop");
        let x = b.input("x");
        let ff = NetId(b.num_gates() as u32 + 1);
        let xr = b.gate(GateKind::Xor, &[x, ff]);
        let ff_real = b.gate(GateKind::Dff { scan: false }, &[xr]);
        assert_eq!(ff, ff_real);
        b.output("o", ff_real);
        let nl = b.finish().unwrap();
        let (status, effort) = seq_podem(&nl, Fault::sa1(xr), &SeqAtpgOptions::default());
        // Unknown initial state makes XOR outputs X forever; the fault is
        // not detectable under 3-valued pessimism without initialization
        // hardware — exactly the phenomenon that motivates loop-breaking.
        assert!(matches!(status, SeqStatus::Untestable | SeqStatus::Aborted));
        assert!(effort.implications > 0);
        // Scanning the loop register makes it trivially detectable.
        let scanned = nl.with_full_scan();
        let (status2, _) = seq_podem(&scanned, Fault::sa1(xr), &SeqAtpgOptions::default());
        assert!(matches!(status2, SeqStatus::Detected { .. }));
    }

    #[test]
    fn shared_contexts_match_single_fault_searches() {
        // A feedback loop next to a pipeline: some faults need several
        // frames, some never resolve.
        let mut b = NetlistBuilder::new("mixed");
        let x = b.input("x");
        let ff = NetId(b.num_gates() as u32 + 1);
        let xr = b.gate(GateKind::Xor, &[x, ff]);
        let q = b.gate(GateKind::Dff { scan: false }, &[xr]);
        assert_eq!(q, ff);
        let p = b.register(&[x], None, false)[0];
        let p2 = b.register(&[p], None, true)[0];
        let o = b.and2(q, p2);
        b.output("o", o);
        b.output("p", p2);
        let nl = b.finish().unwrap();
        let faults = crate::fault::all_faults(&nl);
        let opts = SeqAtpgOptions::default();
        let run = seq_generate_all(&nl, &faults, &opts);
        let mut want = SeqRun {
            total: faults.len(),
            ..Default::default()
        };
        for &f in &faults {
            let (status, effort) = seq_podem(&nl, f, &opts);
            want.effort.absorb(effort);
            match status {
                SeqStatus::Detected { frames, .. } => {
                    want.detected += 1;
                    want.total_frames += frames;
                }
                SeqStatus::Untestable => want.untestable += 1,
                SeqStatus::Aborted => want.aborted += 1,
            }
        }
        assert_eq!(run, want);
        assert!(run.detected > 0 && run.untestable > 0, "{run:?}");
    }

    #[test]
    fn seq_generate_all_counts() {
        let nl = pipeline(1);
        let faults = crate::fault::all_faults(&nl);
        let run = seq_generate_all(&nl, &faults, &SeqAtpgOptions::default());
        assert_eq!(run.total, faults.len());
        assert!(run.detected > 0);
        assert_eq!(run.detected + run.untestable + run.aborted, run.total);
    }
}

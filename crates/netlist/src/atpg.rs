//! PODEM — path-oriented decision making — over the 5-valued calculus,
//! with effort accounting.
//!
//! The search runs in a [`PodemContext`]: the fanout table, observation
//! mask and slot map are built once per netlist, and the per-target
//! buffers are reused, so a many-target run pays the netlist-sized
//! setup once. The effort counters (decisions, backtracks,
//! implications) are the measurement the E1 experiment uses to validate
//! the survey's §3.1 complexity claim, and what makes "sequential ATPG
//! got easier after DFT" quantifiable throughout the workbench.
//!
//! An `Untestable` verdict is exact only for the view searched.
//! Unscanned flops are neither assignable nor observed: PODEM holds
//! them at `X`. So the verdict proves a fault redundant only when every
//! flop is scanned (or there are none). On a partially scanned netlist
//! — including the flow's `full-scan` strategy, which leaves the
//! controller's state flops unscanned — random grading, which drives
//! every flop from the test frame, can still detect a fault PODEM
//! called untestable.

use std::collections::HashMap;

use crate::fault::Fault;
use crate::fsim::{comb_fault_sim_opts, ParallelOptions, TestFrame};
use crate::logic5::V5;
use crate::net::{GateKind, NetId, Netlist};
use crate::stats::GradeStats;

/// Which nets the generator may assign and where it may observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombView {
    /// Assignable nets (primary inputs and scan-flop outputs).
    pub assignable: Vec<NetId>,
    /// Observation nets (primary outputs and scan-flop data inputs).
    pub observed: Vec<NetId>,
}

impl CombView {
    /// The functional test view of a netlist: primary inputs plus
    /// scannable flop outputs are assignable; primary outputs plus
    /// scannable flop data inputs are observed. Non-scan flops remain
    /// uncontrollable (`X`) and unobserved — exactly what makes
    /// unscanned state elements hard for combinational ATPG.
    pub fn functional(nl: &Netlist) -> CombView {
        let mut assignable = nl.inputs().to_vec();
        let mut observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        for &f in &nl.scan_flops() {
            assignable.push(f.net());
            observed.push(nl.gate(f).inputs[0]);
        }
        CombView {
            assignable,
            observed,
        }
    }
}

/// Options for the PODEM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgOptions {
    /// Abort a fault after this many backtracks.
    pub backtrack_limit: u64,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            backtrack_limit: 10_000,
        }
    }
}

/// A partial input assignment that detects a fault.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestCube {
    /// Net → value; unassigned nets are don't-cares.
    pub assignments: HashMap<NetId, bool>,
}

impl TestCube {
    /// Converts the cube into a broadcast [`TestFrame`] (don't-cares
    /// filled with 0), suitable for fault simulation.
    pub fn to_frame(&self, nl: &Netlist) -> TestFrame {
        let word = |net: NetId| -> u64 {
            match self.assignments.get(&net) {
                Some(true) => u64::MAX,
                _ => 0,
            }
        };
        TestFrame::new(
            nl.inputs().iter().map(|&n| word(n)).collect(),
            nl.dffs()
                .iter()
                .map(|&f| {
                    if matches!(nl.gate(f).kind, GateKind::Dff { scan: true }) {
                        word(f.net())
                    } else {
                        0
                    }
                })
                .collect(),
        )
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStatus {
    /// A test was found.
    Detected(TestCube),
    /// The search space was exhausted: no test exists in this view,
    /// with unscanned flops held at `X`. That proves the fault redundant
    /// only when every flop is scanned.
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// Search-effort counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effort {
    /// PI decisions made.
    pub decisions: u64,
    /// Backtracks (decision reversals).
    pub backtracks: u64,
    /// Full forward implication passes.
    pub implications: u64,
}

impl Effort {
    /// Adds another effort tally into this one.
    pub fn absorb(&mut self, other: Effort) {
        self.decisions += other.decisions;
        self.backtracks += other.backtracks;
        self.implications += other.implications;
    }
}

/// Slot marker for a net the search may not assign.
const FIXED: u32 = u32::MAX;

/// PODEM's per-netlist half: the tables the search reads but never
/// writes, built once per (netlist, view), plus one set of search
/// buffers that every target reuses.
///
/// Implication is event-driven: only gates downstream of a changed
/// slot or fault site are re-evaluated, and the values carry over from
/// one target to the next, so a new target pays for the cones of the
/// old and new sites rather than for the whole netlist.
///
/// [`generate_all`] and [`crate::seq::seq_generate_all`] run every
/// target through one context; [`podem`] builds a one-off context for
/// a single target. Reusing a context never changes a verdict, an
/// effort counter or a test cube.
pub struct PodemContext<'a> {
    nl: &'a Netlist,
    /// Slot → assignable net (repeats in the view collapse to one slot).
    assignable: Vec<NetId>,
    /// Net → its slot in `assignable`, or [`FIXED`].
    slot_of: Vec<u32>,
    /// Observation nets in view order.
    observed: Vec<u32>,
    observed_mask: Vec<bool>,
    /// Gate → its position in [`Netlist::topo`], the D-frontier order.
    topo_pos: Vec<u32>,
    /// CSR fanout over every reader, flops included: the X-path check
    /// walks D→Q through unscanned flops, which the SoA fanout leaves
    /// out.
    fanout_starts: Vec<u32>,
    fanout_edges: Vec<u32>,
    state: SearchState,
}

/// PODEM's per-target half: dense buffers indexed by slot or net.
struct SearchState {
    stuck: bool,
    /// The current target's fault sites.
    sites: Vec<u32>,
    effort: Effort,
    /// Slot → assigned value.
    slots: Vec<Option<bool>>,
    /// Net → 5-valued value: the full evaluation of `slots` and the
    /// sites once every `dirty` gate is implied.
    values: Vec<V5>,
    /// Net → whether it is a fault site of the current target.
    site: Vec<bool>,
    /// Gates whose slot, site mark or stuck value changed since the
    /// last implication.
    dirty: Vec<u32>,
    /// Implication event queue: one bucket per level, and a queued mark.
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Walk visit stamps: `seen[n] == epoch` marks a visited net.
    seen: Vec<u32>,
    epoch: u32,
    /// Depth-first walk stack.
    stack: Vec<u32>,
    /// D-frontier gates, in topological order.
    frontier: Vec<u32>,
    /// Decision stack: (slot, value, already flipped).
    decisions: Vec<(u32, bool, bool)>,
}

impl SearchState {
    /// Starts a fresh walk: every `seen` stamp becomes stale.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.epoch
    }

    /// Whether any net carries a fault effect. A non-site gate only
    /// carries one if an input does, so every effect traces back to an
    /// effect on a site.
    fn any_effect(&self) -> bool {
        self.sites
            .iter()
            .any(|&s| self.values[s as usize].is_fault_effect())
    }

    /// Sets a slot and leaves its net for the next implication.
    fn mark(&mut self, slot: u32, v: Option<bool>, net: NetId) {
        self.slots[slot as usize] = v;
        self.dirty.push(net.0);
    }

    /// Queues gate `g` for re-evaluation in its level's bucket.
    fn enqueue(&mut self, g: u32, level: u32) {
        if !std::mem::replace(&mut self.queued[g as usize], true) {
            self.buckets[level as usize].push(g);
        }
    }
}

impl<'a> PodemContext<'a> {
    /// Builds the context for searching `nl` under `view`.
    pub fn new(nl: &'a Netlist, view: &CombView) -> Self {
        let n = nl.num_gates();
        let soa = nl.soa();
        let mut slot_of = vec![FIXED; n];
        let mut assignable = Vec::with_capacity(view.assignable.len());
        for &net in &view.assignable {
            if slot_of[net.index()] == FIXED {
                slot_of[net.index()] = assignable.len() as u32;
                assignable.push(net);
            }
        }
        let mut observed_mask = vec![false; n];
        for &net in &view.observed {
            observed_mask[net.index()] = true;
        }
        let mut topo_pos = vec![0u32; n];
        for (pos, g) in nl.topo().iter().enumerate() {
            topo_pos[g.index()] = pos as u32;
        }
        let reads = |g: u32| {
            let ops = soa.operands(g);
            (ops, soa.kind(g).arity())
        };
        let mut fanout_starts = vec![0u32; n + 1];
        for g in 0..n as u32 {
            let (ops, arity) = reads(g);
            for &op in &ops[..arity] {
                fanout_starts[op as usize + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_starts[i + 1] += fanout_starts[i];
        }
        let mut cursor = fanout_starts.clone();
        let mut fanout_edges = vec![0u32; fanout_starts[n] as usize];
        for g in 0..n as u32 {
            let (ops, arity) = reads(g);
            for &op in &ops[..arity] {
                fanout_edges[cursor[op as usize] as usize] = g;
                cursor[op as usize] += 1;
            }
        }
        let state = SearchState {
            stuck: false,
            sites: Vec::new(),
            effort: Effort::default(),
            slots: vec![None; assignable.len()],
            values: vec![V5::X; n],
            site: vec![false; n],
            // The first implication evaluates every gate.
            dirty: (0..n as u32).collect(),
            buckets: vec![Vec::new(); soa.level_count().max(1)],
            queued: vec![false; n],
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            frontier: Vec::new(),
            decisions: Vec::new(),
        };
        PodemContext {
            nl,
            assignable,
            slot_of,
            observed: view.observed.iter().map(|n| n.0).collect(),
            observed_mask,
            topo_pos,
            fanout_starts,
            fanout_edges,
            state,
        }
    }

    /// Runs PODEM for one fault with possibly several equivalent
    /// injection sites, reusing this context's buffers and values.
    pub fn podem(
        &mut self,
        sites: &[NetId],
        stuck_at_one: bool,
        options: &AtpgOptions,
    ) -> (FaultStatus, Effort) {
        let st = &mut self.state;
        for (slot, &net) in self.assignable.iter().enumerate() {
            if st.slots[slot].is_some() {
                st.mark(slot as u32, None, net);
            }
        }
        for &s in &st.sites {
            st.site[s as usize] = false;
        }
        st.dirty.extend_from_slice(&st.sites);
        st.sites.clear();
        for &s in sites {
            st.site[s.index()] = true;
            st.sites.push(s.0);
        }
        st.dirty.extend_from_slice(&st.sites);
        st.stuck = stuck_at_one;
        st.effort = Effort::default();
        st.decisions.clear();
        let status = self.run(options.backtrack_limit);
        (status, self.state.effort)
    }

    /// The value gate `g` takes over `values`, fault injected.
    #[inline]
    fn eval(&self, values: &[V5], g: u32) -> V5 {
        let soa = self.nl.soa();
        let st = &self.state;
        let [a, b, c] = soa.operands(g);
        let i = |n: u32| values[n as usize];
        let v = match soa.kind(g) {
            GateKind::Const(k) => V5::of_bool(k),
            GateKind::Input | GateKind::Dff { .. } => match self.slot_of[g as usize] {
                FIXED => V5::X,
                slot => st.slots[slot as usize].map_or(V5::X, V5::of_bool),
            },
            GateKind::Buf => i(a),
            GateKind::Not => i(a).not(),
            GateKind::And => i(a).and(i(b)),
            GateKind::Or => i(a).or(i(b)),
            GateKind::Nand => i(a).and(i(b)).not(),
            GateKind::Nor => i(a).or(i(b)).not(),
            GateKind::Xor => i(a).xor(i(b)),
            GateKind::Xnor => i(a).xor(i(b)).not(),
            GateKind::Mux => V5::mux(i(a), i(b), i(c)),
        };
        if st.site[g as usize] {
            V5::from_pair(v.good(), Some(st.stuck))
        } else {
            v
        }
    }

    /// Forward implication, event-driven over the flat gate arrays:
    /// the dirty gates, then level by level every combinational reader
    /// of a net whose value changed. Counts as one implication pass.
    fn imply(&mut self) {
        let soa = self.nl.soa();
        let st = &mut self.state;
        st.effort.implications += 1;
        while let Some(g) = st.dirty.pop() {
            st.enqueue(g, soa.level_of(g));
        }
        for level in 0..self.state.buckets.len() {
            let mut bucket = std::mem::take(&mut self.state.buckets[level]);
            for &g in &bucket {
                let v = self.eval(&self.state.values, g);
                let st = &mut self.state;
                st.queued[g as usize] = false;
                if v == st.values[g as usize] {
                    continue;
                }
                st.values[g as usize] = v;
                for &r in soa.fanout(g) {
                    st.enqueue(r, soa.level_of(r));
                }
            }
            bucket.clear();
            self.state.buckets[level] = bucket;
        }
        debug_assert!(
            self.matches_full_evaluation(),
            "event-driven implication diverged from a full pass"
        );
    }

    /// Whether the values equal a from-scratch evaluation of every gate.
    fn matches_full_evaluation(&self) -> bool {
        let soa = self.nl.soa();
        let n = self.nl.num_gates() as u32;
        let mut full = vec![V5::X; n as usize];
        let sources = (0..n).filter(|&g| soa.level_of(g) == 0);
        for g in sources.chain(soa.comb_order().iter().copied()) {
            full[g as usize] = self.eval(&full, g);
        }
        full == self.state.values
    }

    /// Whether a fault effect could still reach an observation point:
    /// forward reachability from every existing effect (or potential
    /// activation site) through X-or-effect-valued nets. A decision path
    /// with no such route is a dead end regardless of future choices.
    fn xpath_possible(&mut self) -> bool {
        let have_effect = self.state.any_effect();
        let st = &mut self.state;
        let epoch = st.next_epoch();
        for &s in &st.sites {
            let v = st.values[s as usize];
            // With an effect anywhere, start from the effect-carrying
            // sites: every effect net lies on an all-effect path from
            // one. Otherwise start from the still-activatable sites
            // (good value not pinned to the stuck value).
            let seed = if have_effect {
                v.is_fault_effect()
            } else {
                v.good() != Some(st.stuck)
            };
            if seed && st.seen[s as usize] != epoch {
                st.seen[s as usize] = epoch;
                st.stack.push(s);
            }
        }
        while let Some(n) = st.stack.pop() {
            if self.observed_mask[n as usize] {
                return true;
            }
            let lo = self.fanout_starts[n as usize] as usize;
            let hi = self.fanout_starts[n as usize + 1] as usize;
            for &out in &self.fanout_edges[lo..hi] {
                if st.seen[out as usize] == epoch {
                    continue;
                }
                let v = st.values[out as usize];
                if v == V5::X || v.is_fault_effect() {
                    st.seen[out as usize] = epoch;
                    st.stack.push(out);
                }
            }
        }
        false
    }

    fn success(&self) -> bool {
        let st = &self.state;
        st.any_effect()
            && self
                .observed
                .iter()
                .any(|&n| st.values[n as usize].is_fault_effect())
    }

    /// Collects the D-frontier — the X-valued gates reading an effect
    /// net — in topological order, walking the effect nets forward from
    /// the effect-carrying sites.
    fn collect_frontier(&mut self) {
        let soa = self.nl.soa();
        let st = &mut self.state;
        let epoch = st.next_epoch();
        st.frontier.clear();
        for &s in &st.sites {
            if st.values[s as usize].is_fault_effect() && st.seen[s as usize] != epoch {
                st.seen[s as usize] = epoch;
                st.stack.push(s);
            }
        }
        while let Some(n) = st.stack.pop() {
            for &r in soa.fanout(n) {
                if st.seen[r as usize] == epoch {
                    continue;
                }
                let v = st.values[r as usize];
                if v == V5::X {
                    st.seen[r as usize] = epoch;
                    st.frontier.push(r);
                } else if v.is_fault_effect() {
                    st.seen[r as usize] = epoch;
                    st.stack.push(r);
                }
            }
        }
        let topo_pos = &self.topo_pos;
        st.frontier.sort_unstable_by_key(|&g| topo_pos[g as usize]);
    }

    /// The next backtraced decision `(slot, value)`, trying every open
    /// objective — all still-activatable fault sites, then every
    /// D-frontier input — until one backtraces to an unassigned slot.
    fn next_decision(&mut self) -> Option<(u32, bool)> {
        if !self.state.any_effect() {
            // Activation: want good value = !stuck at some site.
            let st = &self.state;
            return st.sites.iter().find_map(|&s| {
                if st.values[s as usize] == V5::X {
                    self.backtrace(s, !st.stuck)
                } else {
                    None
                }
            });
        }
        // Propagation: try every D-frontier gate in topological order.
        self.collect_frontier();
        let soa = self.nl.soa();
        let st = &self.state;
        for &g in &st.frontier {
            let kind = soa.kind(g);
            let ops = soa.operands(g);
            for (pos, &inp) in ops[..kind.arity()].iter().enumerate() {
                if st.values[inp as usize] != V5::X {
                    continue;
                }
                let want = match kind {
                    GateKind::And | GateKind::Nand => true,
                    GateKind::Or | GateKind::Nor => false,
                    GateKind::Xor | GateKind::Xnor => false,
                    GateKind::Mux => {
                        if pos == 0 {
                            st.values[ops[1] as usize].is_fault_effect()
                        } else {
                            pos == 1
                        }
                    }
                    _ => true,
                };
                if let Some(d) = self.backtrace(inp, want) {
                    return Some(d);
                }
            }
        }
        None // frontier exhausted
    }

    /// Backtraces an objective to an unassigned slot.
    fn backtrace(&self, mut net: u32, mut val: bool) -> Option<(u32, bool)> {
        let soa = self.nl.soa();
        let values = &self.state.values;
        let x = |n: u32| values[n as usize] == V5::X;
        loop {
            let kind = soa.kind(net);
            let ops = soa.operands(net);
            match kind {
                GateKind::Input | GateKind::Dff { .. } => {
                    // Fixed-X or already-assigned sources are dead ends.
                    let slot = self.slot_of[net as usize];
                    let open = slot != FIXED && self.state.slots[slot as usize].is_none();
                    return open.then_some((slot, val));
                }
                GateKind::Const(_) => return None,
                GateKind::Buf => net = ops[0],
                GateKind::Not => {
                    net = ops[0];
                    val = !val;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // AND: output 1 needs all 1 (pick any X); output 0
                    // needs one 0 — either way the picked X gets the
                    // non-inverted objective, and likewise for OR.
                    if matches!(kind, GateKind::Nand | GateKind::Nor) {
                        val = !val;
                    }
                    net = *ops[..2].iter().find(|&&n| x(n))?;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let eff = if kind == GateKind::Xnor { !val } else { val };
                    let (free, other) = if x(ops[0]) {
                        (ops[0], ops[1])
                    } else if x(ops[1]) {
                        (ops[1], ops[0])
                    } else {
                        return None;
                    };
                    net = free;
                    val = match values[other as usize].good() {
                        Some(ov) => eff != ov,
                        None => eff,
                    };
                }
                GateKind::Mux => match values[ops[0] as usize].good() {
                    Some(s) => {
                        let data = ops[if s { 1 } else { 2 }];
                        if !x(data) {
                            return None;
                        }
                        net = data;
                    }
                    None => {
                        net = ops[0];
                        val = true;
                    }
                },
            }
        }
    }

    fn run(&mut self, limit: u64) -> FaultStatus {
        self.imply();
        loop {
            if self.success() {
                let assignments = self
                    .assignable
                    .iter()
                    .zip(&self.state.slots)
                    .filter_map(|(&n, &v)| v.map(|b| (n, b)))
                    .collect();
                return FaultStatus::Detected(TestCube { assignments });
            }
            let step = if self.xpath_possible() {
                self.next_decision()
            } else {
                None
            };
            let st = &mut self.state;
            let net = |slot: u32| self.assignable[slot as usize];
            match step {
                Some((slot, v)) => {
                    st.effort.decisions += 1;
                    st.mark(slot, Some(v), net(slot));
                    st.decisions.push((slot, v, false));
                }
                None => loop {
                    match st.decisions.pop() {
                        None => return FaultStatus::Untestable,
                        Some((slot, _, true)) => st.mark(slot, None, net(slot)),
                        Some((slot, v, false)) => {
                            st.effort.backtracks += 1;
                            if st.effort.backtracks > limit {
                                // The next target resets the slots.
                                return FaultStatus::Aborted;
                            }
                            st.mark(slot, Some(!v), net(slot));
                            st.decisions.push((slot, !v, true));
                            break;
                        }
                    }
                },
            }
            self.imply();
        }
    }
}

/// Runs PODEM for a single fault with possibly multiple equivalent
/// injection sites (the time-frame expansion injects the same physical
/// fault in every frame). Builds a one-off [`PodemContext`]; callers
/// with many targets on one netlist should reuse a context instead.
pub fn podem(
    nl: &Netlist,
    view: &CombView,
    sites: &[NetId],
    stuck_at_one: bool,
    options: &AtpgOptions,
) -> (FaultStatus, Effort) {
    PodemContext::new(nl, view).podem(sites, stuck_at_one, options)
}

/// Aggregate result of a full-fault-list run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgRun {
    /// Faults detected (by generation or by simulation drop).
    pub detected: usize,
    /// Faults proved untestable in the functional view (redundant only
    /// when every flop is scanned; see [`FaultStatus::Untestable`]).
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Size of the fault universe.
    pub total: usize,
    /// The generated test set.
    pub patterns: Vec<TestFrame>,
    /// Total search effort.
    pub effort: Effort,
    /// Whether the run stopped early on an expired
    /// [`crate::deadline::Deadline`]: undetected faults past the cutoff
    /// were never targeted, so coverage is a lower bound.
    pub timed_out: bool,
}

impl AtpgRun {
    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total as f64
        }
    }

    /// Test efficiency in percent: (detected + untestable) / total.
    pub fn efficiency_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * (self.detected + self.untestable) as f64 / self.total as f64
        }
    }
}

/// Generates tests for every fault in the functional view, with
/// fault-dropping simulation between generations.
pub fn generate_all(nl: &Netlist, faults: &[Fault], options: &AtpgOptions) -> AtpgRun {
    generate_all_opts(nl, faults, options, &ParallelOptions::default()).0
}

/// [`generate_all`] with grading-engine options and the aggregated
/// instrumentation of every fault-dropping simulation the loop runs.
pub fn generate_all_opts(
    nl: &Netlist,
    faults: &[Fault],
    options: &AtpgOptions,
    grade_opts: &ParallelOptions,
) -> (AtpgRun, GradeStats) {
    let _span = hlstb_trace::span("atpg");
    let mut ctx = PodemContext::new(nl, &CombView::functional(nl));
    let mut run = AtpgRun {
        detected: 0,
        untestable: 0,
        aborted: 0,
        total: faults.len(),
        patterns: Vec::new(),
        effort: Effort::default(),
        timed_out: false,
    };
    let mut stats = GradeStats::default();
    // Targets in list order; a fault listed twice is targeted once.
    let mut listed = vec![false; 2 * nl.num_nets()];
    let mut remaining = Vec::with_capacity(faults.len());
    for &f in faults {
        let key = 2 * f.net.index() + usize::from(f.stuck_at_one);
        if !std::mem::replace(&mut listed[key], true) {
            remaining.push(f);
        }
    }
    // `remaining[..next]` is settled; the cursor only moves forward, and
    // the list is compacted only when a pattern drops faults.
    let mut next = 0;
    let mut targeted = 0usize;
    while let Some(&fault) = remaining.get(next) {
        // Cooperative cutoff between targets: the first fault is always
        // attempted, so a zero-budget run still makes deterministic
        // progress and the partial tallies stay consistent.
        if targeted > 0 && grade_opts.deadline.expired() {
            run.timed_out = true;
            break;
        }
        targeted += 1;
        let (status, effort) = ctx.podem(&[fault.net], fault.stuck_at_one, options);
        run.effort.absorb(effort);
        match status {
            FaultStatus::Detected(cube) => {
                let frame = cube.to_frame(nl);
                let (sim, s) = comb_fault_sim_opts(
                    nl,
                    &remaining[next..],
                    std::slice::from_ref(&frame),
                    grade_opts,
                );
                stats.absorb(&s);
                let dropped = sim.detected.len().max(1);
                run.detected += dropped;
                let mut index = 0;
                remaining.retain(|f| {
                    index += 1;
                    index > next && !sim.detected.contains(f) && *f != fault
                });
                next = 0;
                run.patterns.push(frame);
            }
            FaultStatus::Untestable => {
                run.untestable += 1;
                next += 1;
            }
            FaultStatus::Aborted => {
                run.aborted += 1;
                next += 1;
            }
        }
    }
    stats.faults = faults.len();
    // The fault-dropping sims poll the same deadline; a truncated drop
    // pass also leaves the run short of its full universe.
    run.timed_out |= stats.timed_out;
    hlstb_trace::counter("atpg.decisions", run.effort.decisions);
    hlstb_trace::counter("atpg.backtracks", run.effort.backtracks);
    hlstb_trace::counter("atpg.implications", run.effort.implications);
    hlstb_trace::counter("atpg.patterns", run.patterns.len() as u64);
    (run, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{all_faults, collapsed_faults};
    use crate::net::NetlistBuilder;

    fn and_or() -> Netlist {
        let mut b = NetlistBuilder::new("ao");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let g1 = b.and2(a, c);
        let g2 = b.or2(g1, d);
        b.output("o", g2);
        b.finish().unwrap()
    }

    #[test]
    fn detects_simple_faults() {
        let nl = and_or();
        let view = CombView::functional(&nl);
        let a = nl.inputs()[0];
        let (status, effort) = podem(&nl, &view, &[a], false, &AtpgOptions::default());
        match status {
            FaultStatus::Detected(cube) => {
                // Must set a=1, b=1 (propagate through AND), c=0 (through OR).
                assert_eq!(cube.assignments.get(&a), Some(&true));
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert!(effort.decisions >= 1);
    }

    #[test]
    fn redundant_fault_is_proved_untestable() {
        // o = x OR 1 : output stuck-at-1 is redundant.
        let mut b = NetlistBuilder::new("red");
        let x = b.input("x");
        let one = b.one();
        let g = b.or2(x, one);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let view = CombView::functional(&nl);
        let (status, _) = podem(&nl, &view, &[g], true, &AtpgOptions::default());
        assert_eq!(status, FaultStatus::Untestable);
        // And stuck-at-0 on the same net is easily detected.
        let (status0, _) = podem(&nl, &view, &[g], false, &AtpgOptions::default());
        assert!(matches!(status0, FaultStatus::Detected(_)));
    }

    #[test]
    fn reused_context_forgets_the_previous_site() {
        // o = x OR 1. Were the constant's stuck-at-0 still injected, the
        // redundant x stuck-at-0 would look detectable.
        let mut b = NetlistBuilder::new("red");
        let x = b.input("x");
        let one = b.one();
        let g = b.or2(x, one);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let view = CombView::functional(&nl);
        let opts = AtpgOptions::default();
        let mut ctx = PodemContext::new(&nl, &view);
        let (first, _) = ctx.podem(&[one], false, &opts);
        assert!(matches!(first, FaultStatus::Detected(_)), "{first:?}");
        let second = ctx.podem(&[x], false, &opts);
        assert_eq!(second.0, FaultStatus::Untestable);
        assert_eq!(second, podem(&nl, &view, &[x], false, &opts));
    }

    #[test]
    fn d_frontier_is_tried_in_topological_order() {
        // x feeds two buffers, each gating an AND with its own side
        // input. A depth-first walk from x reaches the second AND first;
        // topological order puts the first AND first, so y is the first
        // propagation objective.
        let mut b = NetlistBuilder::new("order");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let e1 = b.gate(GateKind::Buf, &[x]);
        let e2 = b.gate(GateKind::Buf, &[x]);
        let early = b.and2(e1, y);
        let late = b.and2(e2, z);
        b.output("early", early);
        b.output("late", late);
        let nl = b.finish().unwrap();
        let pos = |n: NetId| nl.topo().iter().position(|g| g.net() == n);
        assert!(pos(early) < pos(late));
        let view = CombView::functional(&nl);
        let (status, effort) = podem(&nl, &view, &[x], false, &AtpgOptions::default());
        let FaultStatus::Detected(cube) = status else {
            panic!("expected detection, got {status:?}");
        };
        assert_eq!(cube.assignments, HashMap::from([(x, true), (y, true)]));
        assert_eq!(effort.decisions, 2);
    }

    #[test]
    fn full_adder_all_faults_covered() {
        let mut b = NetlistBuilder::new("fa");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &collapsed_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.aborted, 0);
        assert_eq!(run.untestable, 0);
        assert_eq!(run.coverage_percent(), 100.0);
        assert!(!run.patterns.is_empty());
    }

    #[test]
    fn expired_deadline_stops_generation_after_one_target() {
        use crate::deadline::Deadline;
        let mut b = NetlistBuilder::new("fa");
        let a = b.inputs("a", 3);
        let c = b.inputs("b", 3);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let faults = collapsed_faults(&nl);
        let opts = ParallelOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ParallelOptions::default()
        };
        let (run, _) = generate_all_opts(&nl, &faults, &AtpgOptions::default(), &opts);
        assert!(run.timed_out);
        // One target was attempted; its drop pass may detect several.
        assert!(run.detected + run.untestable + run.aborted < faults.len());
        assert!(run.coverage_percent() < 100.0);
        // The partial run is reproducible.
        let (again, _) = generate_all_opts(&nl, &faults, &AtpgOptions::default(), &opts);
        assert_eq!(run, again);
    }

    #[test]
    fn unscanned_flop_blocks_detection_but_scan_restores_it() {
        // x -> AND(q, x) -> o with q from an uncontrollable flop.
        let mut b = NetlistBuilder::new("blk");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        let g = b.and2(q[0], x);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let view = CombView::functional(&nl);
        // Fault on x requires q=1 which PODEM cannot assign: aborted
        // search exhausts as untestable in the combinational view.
        let (status, _) = podem(&nl, &view, &[x], false, &AtpgOptions::default());
        assert_eq!(status, FaultStatus::Untestable);
        let scanned = nl.with_full_scan();
        let view2 = CombView::functional(&scanned);
        let (status2, _) = podem(&scanned, &view2, &[x], false, &AtpgOptions::default());
        assert!(matches!(status2, FaultStatus::Detected(_)));
    }

    #[test]
    fn mux_select_fault() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let m = b.mux2(s, a, c);
        b.output("o", m);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &all_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.coverage_percent(), 100.0);
    }

    #[test]
    fn xor_chain_coverage() {
        let mut b = NetlistBuilder::new("x");
        let mut prev = b.input("i0");
        for i in 1..6 {
            let x = b.input(format!("i{i}"));
            prev = b.xor2(prev, x);
        }
        b.output("o", prev);
        let nl = b.finish().unwrap();
        let run = generate_all(&nl, &all_faults(&nl), &AtpgOptions::default());
        assert_eq!(run.coverage_percent(), 100.0);
        assert_eq!(run.aborted, 0);
    }
}

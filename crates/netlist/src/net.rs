//! Netlist IR and structural building blocks.
//!
//! Every gate drives exactly one net, so [`NetId`] and [`GateId`] share
//! indices; primary inputs and constants are source gates. D flip-flops
//! carry a `scan` flag — scan-chain stitching is abstracted: full-scan
//! analyses treat a scannable flop's output as a pseudo primary input
//! and its data input as a pseudo primary output, which is the standard
//! model for coverage studies.

use std::borrow::Cow;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Identifier of a net — equal to the id of the gate driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// Identifier of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl NetId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The net this gate drives.
    #[inline]
    pub fn net(self) -> NetId {
        NetId(self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Gate kinds. `Mux` has operands `[sel, a, b]` and computes
/// `sel ? a : b`; `Dff` has operand `[d]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no operands).
    Input,
    /// Constant driver (no operands).
    Const(bool),
    /// Buffer.
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer, operands `[sel, a, b]`.
    Mux,
    /// D flip-flop, operand `[d]`; `scan` marks it scannable.
    Dff {
        /// Whether the flop is on a scan chain.
        scan: bool,
    },
}

impl GateKind {
    /// Number of operand nets.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Buf | GateKind::Not | GateKind::Dff { .. } => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }

    /// Whether the gate is sequential.
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff { .. })
    }

    /// Rough area in gate equivalents (NAND2 = 1), used for the overhead
    /// accounting in the DFT experiments.
    pub fn gate_equivalents(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0.0,
            GateKind::Buf | GateKind::Not => 0.5,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => 1.0,
            GateKind::Xor | GateKind::Xnor => 2.0,
            GateKind::Mux => 2.5,
            GateKind::Dff { scan: false } => 6.0,
            GateKind::Dff { scan: true } => 8.0, // mux-D scan flop
        }
    }
}

/// A gate's operand nets, stored inline: three slots plus the operand
/// count, which is always the kind's arity. Slots past the count hold
/// the gate's own id, so every slot is a valid net index. Derefs to the
/// used operands as `&[NetId]`; compares, hashes and prints like that
/// slice.
#[derive(Clone, Copy)]
pub struct Operands {
    slots: [NetId; 3],
    len: u8,
}

impl Operands {
    /// The operands `inputs` of the gate driving `own`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than three operands.
    fn new(own: NetId, inputs: &[NetId]) -> Operands {
        assert!(inputs.len() <= 3, "a gate has at most three operands");
        let mut slots = [own; 3];
        slots[..inputs.len()].copy_from_slice(inputs);
        Operands {
            slots,
            len: inputs.len() as u8,
        }
    }
}

impl std::ops::Deref for Operands {
    type Target = [NetId];

    #[inline]
    fn deref(&self) -> &[NetId] {
        &self.slots[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        **self == **other
    }
}

impl Eq for Operands {}

impl std::hash::Hash for Operands {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The kind.
    pub kind: GateKind,
    /// Operand nets; length is `kind.arity()`.
    pub inputs: Operands,
}

/// Whether a gate of this kind starts a combinational path: primary
/// inputs, constants and flip-flops are never scheduled.
#[inline]
fn is_source(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
    )
}

/// Errors from netlist construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate has the wrong operand count.
    Arity {
        /// Offending gate.
        gate: GateId,
        /// Expected operand count.
        expected: usize,
        /// Found operand count.
        found: usize,
    },
    /// A combinational cycle exists (not broken by a flip-flop).
    CombinationalCycle {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// A referenced net does not exist.
    DanglingNet {
        /// The missing net.
        net: NetId,
    },
    /// Two outputs share a name.
    DuplicateOutput {
        /// The clashing name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Arity {
                gate,
                expected,
                found,
            } => {
                write!(f, "{gate} expects {expected} operands, found {found}")
            }
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through {gate}")
            }
            NetlistError::DanglingNet { net } => write!(f, "dangling reference to {net}"),
            NetlistError::DuplicateOutput { name } => write!(f, "duplicate output `{name}`"),
        }
    }
}

impl Error for NetlistError {}

/// The flat gate store of a netlist and its levelization, built once by
/// [`NetlistBuilder::finish`] and shared read-only by the evaluators.
///
/// Each [`Gate`] is stored once, with its operands inline; the hot
/// simulation loops read kinds and fixed three-slot operand ids straight
/// from that store, plus a levelized topological order with contiguous
/// per-level ranges and a CSR fanout table. Unused operand slots hold
/// the gate's own id so every slot is always a valid index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaIr {
    gates: Vec<Gate>,
    level_of: Vec<u32>,
    level_order: Vec<u32>,
    level_starts: Vec<u32>,
    fanout_starts: Vec<u32>,
    fanout_edges: Vec<u32>,
}

impl SoaIr {
    /// The kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: u32) -> GateKind {
        self.gates[g as usize].kind
    }

    /// The three operand slots of gate `g`; unused slots hold `g`
    /// itself, so every slot indexes a valid net.
    #[inline]
    pub fn operands(&self, g: u32) -> [u32; 3] {
        self.gates[g as usize].inputs.slots.map(|net| net.0)
    }

    /// The level of gate `g`: 0 for sources, `1 + max(operand levels)`
    /// for combinational gates.
    #[inline]
    pub fn level_of(&self, g: u32) -> u32 {
        self.level_of[g as usize]
    }

    /// Number of combinational levels (0 for a source-only netlist).
    /// Level 0 itself holds only sources, so the per-level slices start
    /// at level 1.
    pub fn level_count(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// The combinational gates at `level`, in id order. Empty for level
    /// 0 (sources are not scheduled).
    #[inline]
    pub fn level(&self, level: usize) -> &[u32] {
        let lo = self.level_starts[level] as usize;
        let hi = self.level_starts[level + 1] as usize;
        &self.level_order[lo..hi]
    }

    /// Every combinational gate, level-major then id order — a valid
    /// topological order with contiguous per-level runs.
    #[inline]
    pub fn comb_order(&self) -> &[u32] {
        &self.level_order
    }

    /// The combinational gates reading net `net`, in id order.
    #[inline]
    pub fn fanout(&self, net: u32) -> &[u32] {
        let lo = self.fanout_starts[net as usize] as usize;
        let hi = self.fanout_starts[net as usize + 1] as usize;
        &self.fanout_edges[lo..hi]
    }
}

/// A validated gate-level netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    net_names: Vec<Option<String>>,
    outputs: Vec<(String, NetId)>,
    inputs: Vec<NetId>,
    dffs: Vec<GateId>,
    /// Combinational gates in topological order (sources excluded).
    topo: Vec<GateId>,
    /// The gate store and its levelization, built once.
    soa: SoaIr,
}

impl Netlist {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including inputs, constants and flops).
    pub fn num_gates(&self) -> usize {
        self.soa.gates.len()
    }

    /// Number of nets.
    ///
    /// Every gate drives exactly one net and every net is driven by
    /// exactly one gate, so [`NetId`] and [`GateId`] share the same
    /// index space and `num_nets() == num_gates()` by construction.
    /// Value buffers in [`crate::sim`] and [`crate::soa`] are sized by
    /// this and indexed by `NetId`.
    pub fn num_nets(&self) -> usize {
        self.soa.gates.len()
    }

    /// The flat view: gate kinds and operand slots, gate levels, and a
    /// CSR fanout table, built once at [`NetlistBuilder::finish`] time.
    pub fn soa(&self) -> &SoaIr {
        &self.soa
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.soa.gates[id.index()]
    }

    /// Iterates all gates in id order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.soa
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Flip-flop gates in declaration order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Combinational gates in topological (evaluable) order.
    pub fn topo(&self) -> &[GateId] {
        &self.topo
    }

    /// Optional debug name of a net.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.net_names[net.index()].as_deref()
    }

    /// Total area in gate equivalents.
    pub fn area(&self) -> f64 {
        self.soa
            .gates
            .iter()
            .map(|g| g.kind.gate_equivalents())
            .sum()
    }

    /// Fanout lists: for each net, the gates reading it.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut fan = vec![Vec::new(); self.num_nets()];
        for (id, g) in self.gates() {
            for &inp in &g.inputs {
                fan[inp.index()].push(id);
            }
        }
        fan
    }

    /// Marks every flip-flop scannable (full scan).
    pub fn with_full_scan(mut self) -> Netlist {
        for g in &mut self.soa.gates {
            if let GateKind::Dff { scan } = &mut g.kind {
                *scan = true;
            }
        }
        self
    }

    /// Marks the given flip-flops scannable (partial scan).
    ///
    /// # Panics
    ///
    /// Panics if an id is not a flip-flop.
    pub fn with_scan(mut self, flops: &[GateId]) -> Netlist {
        for &f in flops {
            match &mut self.soa.gates[f.index()].kind {
                GateKind::Dff { scan } => *scan = true,
                _ => panic!("{f} is not a flip-flop"),
            }
        }
        self
    }

    /// The scannable flip-flops.
    pub fn scan_flops(&self) -> Vec<GateId> {
        self.dffs
            .iter()
            .copied()
            .filter(|&f| matches!(self.gate(f).kind, GateKind::Dff { scan: true }))
            .collect()
    }
}

/// Incremental netlist construction with structural arithmetic blocks.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    net_names: Vec<Option<String>>,
    outputs: Vec<(String, NetId)>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            net_names: Vec::new(),
            outputs: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    fn push(&mut self, kind: GateKind, inputs: &[NetId], name: Option<String>) -> NetId {
        debug_assert_eq!(inputs.len(), kind.arity());
        let id = NetId(self.gates.len() as u32);
        let inputs = Operands::new(id, inputs);
        self.gates.push(Gate { kind, inputs });
        self.net_names.push(name);
        id
    }

    /// Adds a named primary input bit.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.push(GateKind::Input, &[], Some(name.into()))
    }

    /// Adds a `width`-bit primary input bus named `name[0..width)`,
    /// least significant bit first.
    pub fn inputs(&mut self, name: &str, width: u32) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// The constant-0 net (shared).
    pub fn zero(&mut self) -> NetId {
        if let Some(z) = self.const0 {
            return z;
        }
        let z = self.push(GateKind::Const(false), &[], Some("const0".into()));
        self.const0 = Some(z);
        z
    }

    /// The constant-1 net (shared).
    pub fn one(&mut self) -> NetId {
        if let Some(o) = self.const1 {
            return o;
        }
        let o = self.push(GateKind::Const(true), &[], Some("const1".into()));
        self.const1 = Some(o);
        o
    }

    /// A `width`-bit constant bus, LSB first.
    pub fn constant(&mut self, value: u64, width: u32) -> Vec<NetId> {
        (0..width)
            .map(|i| {
                if value >> i & 1 == 1 {
                    self.one()
                } else {
                    self.zero()
                }
            })
            .collect()
    }

    /// Adds an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the kind's arity.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind:?} arity mismatch");
        self.push(kind, inputs, None)
    }

    /// Replays a gate verbatim, preserving indices — no constant
    /// deduplication, optional net name. This is the low-level API used
    /// by netlist-rewriting passes (e.g. test-point insertion) that
    /// reconstruct a netlist gate-for-gate before editing it.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the kind's arity.
    pub fn push_gate(&mut self, kind: GateKind, inputs: &[NetId], name: Option<String>) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind:?} arity mismatch");
        self.push(kind, inputs, name)
    }

    /// NOT gate.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.push(GateKind::Not, &[a], None)
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::And, &[a, b], None)
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Or, &[a, b], None)
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Xor, &[a, b], None)
    }

    /// 2:1 mux: `sel ? a : b`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Mux, &[sel, a, b], None)
    }

    /// Word-wide 2:1 mux.
    ///
    /// # Panics
    ///
    /// Panics if the buses have different widths.
    pub fn mux_bus(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "mux operand width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux2(sel, x, y))
            .collect()
    }

    /// N-way word mux with binary select `sel_bits` (LSB first):
    /// `options[sel]`. Missing options beyond the provided ones read as
    /// the last option.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or widths differ.
    pub fn mux_n<B: AsRef<[NetId]>>(&mut self, sel_bits: &[NetId], options: &[B]) -> Vec<NetId> {
        assert!(!options.is_empty());
        let width = options[0].as_ref().len();
        assert!(options.iter().all(|o| o.as_ref().len() == width));
        let mut layer: Vec<Cow<'_, [NetId]>> =
            options.iter().map(|o| Cow::Borrowed(o.as_ref())).collect();
        for &sel in sel_bits {
            if layer.len() == 1 {
                break;
            }
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut pairs = layer.into_iter();
            while let Some(lo) = pairs.next() {
                match pairs.next() {
                    Some(hi) => next.push(Cow::Owned(self.mux_bus(sel, &hi, &lo))),
                    None => next.push(lo),
                }
            }
            layer = next;
        }
        layer.swap_remove(0).into_owned()
    }

    /// A bank of D flip-flops with optional load enable (`en == None`
    /// loads every cycle) and a `scan` marking.
    ///
    /// With a load enable, each flop's D input is `en ? d : q` (a
    /// recirculating register — precisely the structure that creates the
    /// self-loops the partial-scan experiments tolerate).
    pub fn register(&mut self, d: &[NetId], en: Option<NetId>, scan: bool) -> Vec<NetId> {
        let mut q = Vec::with_capacity(d.len());
        for &bit in d {
            // Reserve the flop first so the enable mux can reference Q.
            let ff = NetId(self.gates.len() as u32);
            match en {
                None => {
                    self.push(GateKind::Dff { scan }, &[bit], None);
                    q.push(ff);
                }
                Some(e) => {
                    // flop at index ff+1; mux at ff reads (e, d, q=ff+1)
                    let mux = self.push(GateKind::Mux, &[e, bit, NetId(ff.0 + 1)], None);
                    let flop = self.push(GateKind::Dff { scan }, &[mux], None);
                    q.push(flop);
                }
            }
        }
        q
    }

    /// One full-adder stage with constant folding of a known carry-in,
    /// which keeps ripple structures free of untestable (redundant)
    /// gates.
    fn add_stage(&mut self, x: NetId, y: NetId, carry: Option<bool>) -> (NetId, NetId) {
        match carry {
            // Half adder: s = x^y, carry = x&y.
            Some(false) => {
                let s = self.xor2(x, y);
                let c = self.and2(x, y);
                (s, c)
            }
            // s = !(x^y), carry = x|y.
            Some(true) => {
                let p = self.xor2(x, y);
                let s = self.not(p);
                let c = self.or2(x, y);
                (s, c)
            }
            None => unreachable!("unknown constant carry handled by caller"),
        }
    }

    fn full_stage(&mut self, x: NetId, y: NetId, carry: NetId) -> (NetId, NetId) {
        let p = self.xor2(x, y);
        let s = self.xor2(p, carry);
        let g1 = self.and2(x, y);
        let g2 = self.and2(p, carry);
        let c = self.or2(g1, g2);
        (s, c)
    }

    /// Creates a D flip-flop whose data input is temporarily wired to its
    /// own output (a benign self-loop), to be rewired with
    /// [`set_dff_input`](Self::set_dff_input). This is how structures
    /// with register↔logic cycles (data paths) are built.
    pub fn dff_uninit(&mut self, scan: bool) -> NetId {
        let id = NetId(self.gates.len() as u32);
        self.push(GateKind::Dff { scan }, &[id], None)
    }

    /// Rewires a flip-flop's data input.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a flip-flop.
    pub fn set_dff_input(&mut self, ff: NetId, d: NetId) {
        let gate = &mut self.gates[ff.index()];
        assert!(gate.kind.is_dff(), "{ff} is not a flip-flop");
        gate.inputs.slots[0] = d;
    }

    /// Ripple-carry adder; returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ or are zero.
    pub fn ripple_add(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "adder width mismatch");
        assert!(!a.is_empty(), "zero-width adder");
        let mut sum = Vec::with_capacity(a.len());
        let (s0, mut carry) = self.add_stage(a[0], b[0], Some(false));
        sum.push(s0);
        for (&x, &y) in a.iter().zip(b).skip(1) {
            let (s, c) = self.full_stage(x, y, carry);
            carry = c;
            sum.push(s);
        }
        (sum, carry)
    }

    /// Two's-complement subtractor `a - b`; returns `(difference,
    /// carry_out)` where carry-out 1 means no borrow.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ or are zero.
    pub fn ripple_sub(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "subtractor width mismatch");
        assert!(!a.is_empty(), "zero-width subtractor");
        let mut diff = Vec::with_capacity(a.len());
        let ny0 = self.not(b[0]);
        let (d0, mut carry) = self.add_stage(a[0], ny0, Some(true));
        diff.push(d0);
        for (&x, &y) in a.iter().zip(b).skip(1) {
            let ny = self.not(y);
            let (s, c) = self.full_stage(x, ny, carry);
            carry = c;
            diff.push(s);
        }
        (diff, carry)
    }

    /// Array multiplier returning the low `a.len()` bits of `a × b`.
    ///
    /// Only live partial products are summed and no dead carry logic is
    /// generated, so the structure contains no untestable gates beyond
    /// the inherent truncation.
    pub fn array_mul(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "multiplier width mismatch");
        let w = a.len();
        // Row 0 seeds the accumulator directly — no add against zero.
        let mut acc: Vec<NetId> = a.iter().map(|&aj| self.and2(aj, b[0])).collect();
        for (i, &bi) in b.iter().enumerate().skip(1) {
            // Add the shifted row into acc[i..w), dropping the final
            // carry (truncated product).
            let mut carry: Option<NetId> = None;
            for (j, &aj) in a.iter().enumerate().take(w - i) {
                let pos = i + j;
                let r = self.and2(aj, bi);
                let last = pos == w - 1;
                match carry.take() {
                    None => {
                        if last {
                            acc[pos] = self.xor2(acc[pos], r);
                        } else {
                            let sum = self.xor2(acc[pos], r);
                            carry = Some(self.and2(acc[pos], r));
                            acc[pos] = sum;
                        }
                    }
                    Some(c) => {
                        if last {
                            let t = self.xor2(acc[pos], r);
                            acc[pos] = self.xor2(t, c);
                        } else {
                            let (sum, cout) = self.full_stage(acc[pos], r, c);
                            acc[pos] = sum;
                            carry = Some(cout);
                        }
                    }
                }
            }
        }
        acc
    }

    /// Bitwise word operation using `op` per bit pair.
    pub fn bitwise(&mut self, kind: GateKind, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len());
        assert_eq!(kind.arity(), 2);
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(kind, &[x, y]))
            .collect()
    }

    /// Equality comparator: 1 iff `a == b`.
    pub fn eq_bus(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len());
        let mut acc = self.one();
        for (&x, &y) in a.iter().zip(b) {
            let e = self.push(GateKind::Xnor, &[x, y], None);
            acc = self.and2(acc, e);
        }
        acc
    }

    /// Unsigned less-than comparator: 1 iff `a < b`.
    pub fn lt_bus(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len());
        // From LSB to MSB: lt = (~a & b) | (a XNOR b) & lt_prev
        let mut lt = self.zero();
        for (&x, &y) in a.iter().zip(b) {
            let nx = self.not(x);
            let strict = self.and2(nx, y);
            let eq = self.push(GateKind::Xnor, &[x, y], None);
            let keep = self.and2(eq, lt);
            lt = self.or2(strict, keep);
        }
        lt
    }

    /// Logical shift by a constant amount (left when `left`, else right),
    /// filling with zeros.
    pub fn shift_const(&mut self, a: &[NetId], amount: usize, left: bool) -> Vec<NetId> {
        let w = a.len();
        let zero = self.zero();
        (0..w)
            .map(|i| {
                let src = if left {
                    i.checked_sub(amount)
                } else {
                    i.checked_add(amount)
                };
                match src {
                    Some(j) if j < w => a[j],
                    _ => zero,
                }
            })
            .collect()
    }

    /// Declares a single-bit primary output.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Declares a bus primary output `name[0..width)`.
    pub fn outputs(&mut self, name: &str, bits: &[NetId]) {
        for (i, &b) in bits.iter().enumerate() {
            self.outputs.push((format!("{name}[{i}]"), b));
        }
    }

    /// Number of gates so far.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// A snapshot of the gates added so far, as
    /// `(kind, inputs, net name)` — the companion of
    /// [`push_gate`](Self::push_gate) for rewrite passes that need to
    /// rewire an in-progress netlist.
    pub fn gates_snapshot(&self) -> Vec<(GateKind, Operands, Option<String>)> {
        self.gates
            .iter()
            .zip(&self.net_names)
            .map(|(g, n)| (g.kind, g.inputs, n.clone()))
            .collect()
    }

    /// Validates and finishes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] on arity mismatches, dangling nets,
    /// duplicate output names, or combinational cycles.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let n = self.gates.len();
        let mut seen = HashSet::with_capacity(self.outputs.len());
        for (name, net) in &self.outputs {
            if net.index() >= n {
                return Err(NetlistError::DanglingNet { net: *net });
            }
            if !seen.insert(name.as_str()) {
                return Err(NetlistError::DuplicateOutput { name: name.clone() });
            }
        }
        // Validate every gate and count, per net, the combinational gates
        // reading it: the CSR fanout table that both Kahn's algorithm
        // and the evaluators walk.
        let mut inputs = Vec::new();
        let mut dffs = Vec::new();
        let mut fanout_starts = vec![0u32; n + 1];
        let mut comb_count = 0;
        for (i, g) in self.gates.iter().enumerate() {
            if g.inputs.len() != g.kind.arity() {
                return Err(NetlistError::Arity {
                    gate: GateId(i as u32),
                    expected: g.kind.arity(),
                    found: g.inputs.len(),
                });
            }
            for &inp in &g.inputs {
                if inp.index() >= n {
                    return Err(NetlistError::DanglingNet { net: inp });
                }
            }
            match g.kind {
                GateKind::Input => inputs.push(NetId(i as u32)),
                GateKind::Dff { .. } => dffs.push(GateId(i as u32)),
                GateKind::Const(_) => {}
                _ => {
                    comb_count += 1;
                    for &inp in &g.inputs {
                        fanout_starts[inp.index() + 1] += 1;
                    }
                }
            }
        }
        for i in 0..n {
            fanout_starts[i + 1] += fanout_starts[i];
        }
        // Fill the edges in gate-id order, counting each combinational
        // gate's combinational operands as its Kahn in-degree.
        let mut cursor = fanout_starts.clone();
        let mut fanout_edges = vec![0u32; fanout_starts[n] as usize];
        let mut indeg = vec![0u32; n];
        for (i, g) in self.gates.iter().enumerate() {
            if is_source(g.kind) {
                continue;
            }
            for &inp in &g.inputs {
                let slot = &mut cursor[inp.index()];
                fanout_edges[*slot as usize] = i as u32;
                *slot += 1;
                if !is_source(self.gates[inp.index()].kind) {
                    indeg[i] += 1;
                }
            }
        }
        // Kahn levelization over the combinational gates, with `topo` as
        // its own queue. A gate's operands are all final when it is
        // dequeued, so its level is one past its deepest operand
        // (sources sit at 0).
        let mut topo: Vec<GateId> = Vec::with_capacity(comb_count);
        for (i, g) in self.gates.iter().enumerate() {
            if indeg[i] == 0 && !is_source(g.kind) {
                topo.push(GateId(i as u32));
            }
        }
        let mut level_of = vec![0u32; n];
        let mut max_level = 0u32;
        let mut head = 0;
        while head < topo.len() {
            let u = topo[head].index();
            head += 1;
            let lvl = 1 + self.gates[u]
                .inputs
                .iter()
                .map(|inp| level_of[inp.index()])
                .max()
                .unwrap_or(0);
            level_of[u] = lvl;
            max_level = max_level.max(lvl);
            let fan = fanout_starts[u] as usize..fanout_starts[u + 1] as usize;
            for &v in &fanout_edges[fan] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    topo.push(GateId(v));
                }
            }
        }
        if topo.len() != comb_count {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0 && !is_source(self.gates[i].kind))
                .expect("some gate is on the cycle");
            return Err(NetlistError::CombinationalCycle {
                gate: GateId(stuck as u32),
            });
        }
        // Bucket the combinational gates by (level, id): counting sort
        // keeps the order deterministic and the per-level runs
        // contiguous.
        let num_levels = if topo.is_empty() {
            0
        } else {
            max_level as usize + 1
        };
        let mut level_starts = vec![0u32; num_levels + 1];
        for &gid in &topo {
            level_starts[level_of[gid.index()] as usize + 1] += 1;
        }
        for l in 0..num_levels {
            level_starts[l + 1] += level_starts[l];
        }
        let mut cursor = level_starts.clone();
        let mut level_order = vec![0u32; topo.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if is_source(g.kind) {
                continue;
            }
            let slot = &mut cursor[level_of[i] as usize];
            level_order[*slot as usize] = i as u32;
            *slot += 1;
        }
        Ok(Netlist {
            name: self.name,
            net_names: self.net_names,
            outputs: self.outputs,
            inputs,
            dffs,
            topo,
            soa: SoaIr {
                gates: self.gates,
                level_of,
                level_order,
                level_starts,
                fanout_starts,
                fanout_edges,
            },
        })
    }
}

/// Generates a seeded random combinational netlist: `inputs` primary
/// inputs, `gates` random two-input gates over earlier nets, the last
/// few nets exported as outputs. Used by the property-based tests that
/// cross-validate ATPG against fault simulation.
pub fn random_combinational<R: rand::Rng>(
    inputs: usize,
    gates: usize,
    outputs: usize,
    rng: &mut R,
) -> Netlist {
    assert!(inputs > 0 && gates > 0 && outputs > 0);
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<NetId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    const KINDS: [GateKind; 7] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ];
    for _ in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let a = nets[rng.gen_range(0..nets.len())];
        let out = if kind.arity() == 1 {
            b.gate(kind, &[a])
        } else {
            let c = nets[rng.gen_range(0..nets.len())];
            b.gate(kind, &[a, c])
        };
        nets.push(out);
    }
    for (k, &net) in nets.iter().rev().take(outputs).enumerate() {
        b.output(format!("o{k}"), net);
    }
    b.finish().expect("random combinational netlists are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_structure() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        assert_eq!(nl.inputs().len(), 8);
        assert_eq!(nl.outputs().len(), 5);
        assert!(nl.area() > 0.0);
    }

    #[test]
    fn register_with_enable_self_loops() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.inputs("d", 2);
        let en = b.input("en");
        let q = b.register(&d, Some(en), false);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.dffs().len(), 2);
        // Each flop's mux reads the flop's own output.
        for &ff in nl.dffs() {
            let mux = nl.gate(GateId(ff.0 - 1));
            assert_eq!(mux.kind, GateKind::Mux);
            assert_eq!(mux.inputs[2], ff.net());
        }
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = NetlistBuilder::new("cyc");
        let x = b.input("x");
        // Manually wire a gate to a not-yet-created gate to form a loop.
        let g1 = NetId(b.num_gates() as u32 + 1); // will be g2's id
        let g0 = b.gate(GateKind::And, &[x, g1]);
        let _g1_real = b.gate(GateKind::Not, &[g0]);
        b.output("o", g0);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut b = NetlistBuilder::new("cnt1");
        // 1-bit toggler: q -> not -> dff -> q
        let ff = NetId(b.num_gates() as u32 + 1);
        let n = b.gate(GateKind::Not, &[ff]);
        let ff_real = b.gate(GateKind::Dff { scan: false }, &[n]);
        assert_eq!(ff, ff_real);
        b.output("q", ff_real);
        let nl = b.finish().unwrap();
        assert_eq!(nl.dffs().len(), 1);
    }

    #[test]
    fn duplicate_outputs_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let x = b.input("x");
        b.output("o", x);
        b.output("o", x);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DuplicateOutput { .. })
        ));
    }

    #[test]
    fn full_scan_marks_all_flops() {
        let mut b = NetlistBuilder::new("fs");
        let d = b.inputs("d", 3);
        let q = b.register(&d, None, false);
        b.outputs("q", &q);
        let nl = b.finish().unwrap().with_full_scan();
        assert_eq!(nl.scan_flops().len(), 3);
    }

    #[test]
    fn constants_are_shared() {
        let mut b = NetlistBuilder::new("c");
        let z1 = b.zero();
        let z2 = b.zero();
        let o1 = b.one();
        let o2 = b.one();
        assert_eq!(z1, z2);
        assert_eq!(o1, o2);
    }
}

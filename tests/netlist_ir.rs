//! Invariants of the flat netlist store, checked on random netlists and
//! on every built-in expansion:
//!
//! * the flat view's operand slots agree with the gate records — the
//!   first `arity` slots are the gate's inputs and the rest hold the
//!   gate's own id;
//! * the levelization is a valid topological order with consistent
//!   levels and an exact CSR fanout table;
//! * `finish` reports the same dangling net, duplicate output name or
//!   cycle gate as a direct reading of its contract: outputs are checked
//!   in order first, then gate operands in order, and a cycle names the
//!   lowest-id combinational gate that no topological order can reach.

use hlstb::cdfg::benchmarks;
use hlstb::flow::SynthesisFlow;
use hlstb::hls::expand::ControllerMode;
use hlstb::netlist::net::{
    random_combinational, GateId, GateKind, NetId, Netlist, NetlistBuilder, NetlistError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn is_source(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
    )
}

/// Checks every structural invariant of a finished netlist.
fn check_invariants(nl: &Netlist) {
    let soa = nl.soa();
    let n = nl.num_gates();
    for (id, g) in nl.gates() {
        let ops = soa.operands(id.0);
        let arity = g.kind.arity();
        assert_eq!(soa.kind(id.0), g.kind, "{id}");
        assert_eq!(g.inputs.len(), arity, "{id}");
        let used: Vec<NetId> = ops[..arity].iter().map(|&o| NetId(o)).collect();
        assert_eq!(used.as_slice(), &*g.inputs, "{id}: used slots");
        assert!(
            ops[arity..].iter().all(|&o| o == id.0),
            "{id}: unused slots"
        );
    }
    // `topo` lists every combinational gate once, after its operands.
    let mut pos = vec![usize::MAX; n];
    for (i, g) in nl.topo().iter().enumerate() {
        assert_eq!(pos[g.index()], usize::MAX, "{g} listed twice");
        pos[g.index()] = i;
    }
    for (id, g) in nl.gates() {
        if is_source(g.kind) {
            assert_eq!(pos[id.index()], usize::MAX, "{id} is a source");
            assert_eq!(soa.level_of(id.0), 0, "{id} is a source");
            continue;
        }
        assert_ne!(pos[id.index()], usize::MAX, "{id} missing from topo");
        let mut level = 0;
        for inp in g.inputs.iter() {
            if !is_source(nl.gate(GateId(inp.0)).kind) {
                assert!(pos[inp.index()] < pos[id.index()], "{id} before {inp}");
            }
            level = level.max(soa.level_of(inp.0));
        }
        assert_eq!(soa.level_of(id.0), level + 1, "{id}: level");
    }
    // The levelized order is every combinational gate by (level, id).
    let mut want: Vec<u32> = nl.topo().iter().map(|g| g.0).collect();
    want.sort_by_key(|&g| (soa.level_of(g), g));
    assert_eq!(soa.comb_order(), want.as_slice(), "comb order");
    let mut concat = Vec::new();
    for l in 0..soa.level_count() {
        assert!(soa.level(l).iter().all(|&g| soa.level_of(g) == l as u32));
        concat.extend_from_slice(soa.level(l));
    }
    assert_eq!(concat, want, "per-level runs");
    // CSR fanout: per net, the combinational readers in id order, one
    // entry per reading pin.
    let mut fan = vec![Vec::new(); n];
    for (id, g) in nl.gates() {
        if !is_source(g.kind) {
            for inp in g.inputs.iter() {
                fan[inp.index()].push(id.0);
            }
        }
    }
    for (net, readers) in fan.iter().enumerate() {
        assert_eq!(
            soa.fanout(net as u32),
            readers.as_slice(),
            "fanout of net{net}"
        );
    }
}

const KINDS: [GateKind; 11] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
    GateKind::Mux,
    GateKind::Dff { scan: false },
    GateKind::Const(true),
];

/// Maps a raw draw to an operand of gate `id` in an `n`-gate netlist:
/// mostly an earlier net, sometimes any net (a forward reference that
/// may close a cycle), rarely a net that does not exist.
fn operand(raw: u32, id: u32, n: u32) -> NetId {
    match raw % 100 {
        0..=2 => NetId(n + raw % 5),
        3..=12 => NetId(raw % n),
        _ => NetId(raw % id.max(1)),
    }
}

/// The error `finish` must report, read straight from its contract.
fn expected_error(
    kinds: &[GateKind],
    ops: &[Vec<NetId>],
    outputs: &[(String, NetId)],
) -> Option<NetlistError> {
    let n = kinds.len();
    let mut names = std::collections::HashSet::new();
    for (name, net) in outputs {
        if net.index() >= n {
            return Some(NetlistError::DanglingNet { net: *net });
        }
        if !names.insert(name.clone()) {
            return Some(NetlistError::DuplicateOutput { name: name.clone() });
        }
    }
    for inputs in ops {
        if let Some(&net) = inputs.iter().find(|inp| inp.index() >= n) {
            return Some(NetlistError::DanglingNet { net });
        }
    }
    // Fixed point: a combinational gate is orderable once every
    // combinational operand is.
    let mut ordered: Vec<bool> = kinds.iter().map(|&k| is_source(k)).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !ordered[i] && ops[i].iter().all(|inp| ordered[inp.index()]) {
                ordered[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..n)
        .find(|&i| !ordered[i])
        .map(|i| NetlistError::CombinationalCycle {
            gate: GateId(i as u32),
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_combinational_netlists_keep_the_store_invariants(
        seed in 0u64..1_000_000,
        inputs in 1usize..8,
        gates in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(inputs, gates, 3, &mut rng);
        check_invariants(&nl);
    }

    #[test]
    fn finish_names_the_same_offender(
        inputs in 1u32..5,
        gates in proptest::collection::vec((0usize..11, 0u32..1000, 0u32..1000, 0u32..1000), 1..40),
        outputs in proptest::collection::vec((0u32..12, 0u32..1000), 1..6),
    ) {
        let n = inputs + gates.len() as u32;
        let mut b = NetlistBuilder::new("fuzz");
        let mut kinds = Vec::new();
        let mut ops = Vec::new();
        for i in 0..inputs {
            b.input(format!("i{i}"));
            kinds.push(GateKind::Input);
            ops.push(Vec::new());
        }
        for (k, &(kind, x, y, z)) in gates.iter().enumerate() {
            let id = inputs + k as u32;
            let kind = KINDS[kind];
            let operands: Vec<NetId> = [x, y, z][..kind.arity()]
                .iter()
                .map(|&raw| operand(raw, id, n))
                .collect();
            b.push_gate(kind, &operands, None);
            kinds.push(kind);
            ops.push(operands);
        }
        let outputs: Vec<(String, NetId)> = outputs
            .iter()
            .map(|&(name, raw)| {
                let net = if raw % 100 < 3 { NetId(n + raw % 3) } else { NetId(raw % n) };
                (format!("o{name}"), net)
            })
            .collect();
        for (name, net) in &outputs {
            b.output(name.clone(), *net);
        }
        match (b.finish(), expected_error(&kinds, &ops, &outputs)) {
            (Ok(nl), None) => check_invariants(&nl),
            (Err(got), Some(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(false, "finish gave {got:?}, expected {want:?}"),
        }
    }
}

#[test]
fn every_builtin_expansion_keeps_the_store_invariants() {
    for g in benchmarks::all() {
        for width in [4, 8] {
            for mode in [ControllerMode::Expanded, ControllerMode::External] {
                let d = SynthesisFlow::new(g.clone())
                    .width(width)
                    .controller(mode)
                    .run()
                    .unwrap();
                check_invariants(&d.expanded.netlist);
                check_invariants(&d.expanded.netlist.clone().with_full_scan());
            }
        }
    }
}

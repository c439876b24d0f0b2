//! Structural golden fingerprints of the expanded netlists: every
//! built-in design at widths 4 and 8 under both controller modes. The
//! fingerprint covers gate kinds and operands, net names, the primary
//! inputs and outputs, the flip-flop list, the topological order, the
//! per-gate levels, the levelized order and the CSR fanout table, so any
//! change to how a netlist is stored, levelized or expanded that is not
//! bit-for-bit neutral shows up here.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::hls::expand::ControllerMode;
use hlstb::netlist::net::{GateKind, Netlist};

/// FNV-1a over little-endian words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn kind_code(kind: GateKind) -> u64 {
    match kind {
        GateKind::Input => 0,
        GateKind::Const(false) => 1,
        GateKind::Const(true) => 2,
        GateKind::Buf => 3,
        GateKind::Not => 4,
        GateKind::And => 5,
        GateKind::Or => 6,
        GateKind::Nand => 7,
        GateKind::Nor => 8,
        GateKind::Xor => 9,
        GateKind::Xnor => 10,
        GateKind::Mux => 11,
        GateKind::Dff { scan: false } => 12,
        GateKind::Dff { scan: true } => 13,
    }
}

fn fingerprint(nl: &Netlist) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(nl.num_gates() as u64);
    for (id, g) in nl.gates() {
        h.word(kind_code(g.kind));
        h.word(g.inputs.len() as u64);
        for inp in g.inputs.iter() {
            h.word(u64::from(inp.0));
        }
        match nl.net_name(id.net()) {
            Some(name) => h.str(name),
            None => h.word(u64::MAX),
        }
    }
    h.word(nl.inputs().len() as u64);
    for net in nl.inputs() {
        h.word(u64::from(net.0));
    }
    h.word(nl.outputs().len() as u64);
    for (name, net) in nl.outputs() {
        h.str(name);
        h.word(u64::from(net.0));
    }
    h.word(nl.dffs().len() as u64);
    for g in nl.dffs() {
        h.word(u64::from(g.0));
    }
    h.word(nl.topo().len() as u64);
    for g in nl.topo() {
        h.word(u64::from(g.0));
    }
    let soa = nl.soa();
    for g in 0..nl.num_gates() as u32 {
        h.word(u64::from(soa.level_of(g)));
    }
    h.word(soa.comb_order().len() as u64);
    for &g in soa.comb_order() {
        h.word(u64::from(g));
    }
    for net in 0..nl.num_nets() as u32 {
        let fan = soa.fanout(net);
        h.word(fan.len() as u64);
        for &g in fan {
            h.word(u64::from(g));
        }
    }
    h.0
}

/// (design, width, external controller, gate count, fingerprint).
/// Update deliberately when the benchmark designs or the expansion
/// change — never to absorb a storage or levelization refactor, which
/// must be structurally neutral.
const GOLDEN: &[(&str, u32, bool, usize, u64)] = &[
    ("figure1", 4, false, 203, 0x1c7ce189bf0e3b53),
    ("figure1", 4, true, 156, 0x3545960a9f42dd42),
    ("figure1", 8, false, 347, 0x0e53eb94c0c443f4),
    ("figure1", 8, true, 300, 0x92903ac8a3fb4d81),
    ("diffeq", 4, false, 404, 0x19f0571eefce2c2a),
    ("diffeq", 4, true, 265, 0x52ec33ea6b67c8f4),
    ("diffeq", 8, false, 736, 0xf7a8beba3c224206),
    ("diffeq", 8, true, 597, 0xfc131110f3edd3fe),
    ("ewf", 4, false, 849, 0x3a611ec5b7207b73),
    ("ewf", 4, true, 289, 0x3a6f2594b44ebb3a),
    ("ewf", 8, false, 1201, 0x573b7fa74d7dab4b),
    ("ewf", 8, true, 641, 0x87112864144b519b),
    ("fir8", 4, false, 476, 0xe529c16a19fb6ba0),
    ("fir8", 4, true, 209, 0x83e5d842590dff09),
    ("fir8", 8, false, 756, 0x67abb9a221b57708),
    ("fir8", 8, true, 489, 0xb7e056ecf6f0ee8f),
    ("ar_lattice", 4, false, 293, 0xe453f7e27cd2a7b6),
    ("ar_lattice", 4, true, 187, 0x330749b3d3a4a626),
    ("ar_lattice", 8, false, 553, 0x94212e7ddcddf4c3),
    ("ar_lattice", 8, true, 447, 0xa15332663877af8b),
    ("iir_biquad", 4, false, 296, 0x44a3c459560d2343),
    ("iir_biquad", 4, true, 173, 0x827852ac876f5d9d),
    ("iir_biquad", 8, false, 544, 0xe5f466285793e13e),
    ("iir_biquad", 8, true, 421, 0x5536e7a7fdaf1126),
    ("tseng", 4, false, 222, 0xc598ef87db643e1d),
    ("tseng", 4, true, 178, 0xf78247c069753722),
    ("tseng", 8, false, 390, 0x26d4612c52128a92),
    ("tseng", 8, true, 346, 0x0fc23c98410c3cf3),
    ("gcd", 4, false, 306, 0x9ae60cfb3d9377df),
    ("gcd", 4, true, 243, 0x3d467bbbff76992a),
    ("gcd", 8, false, 526, 0x1b9a062a8c2be269),
    ("gcd", 8, true, 463, 0xfd90148627b6af25),
    ("dct_lite", 4, false, 338, 0x3dff8796c176a848),
    ("dct_lite", 4, true, 223, 0x81775e3284f2529d),
    ("dct_lite", 8, false, 630, 0xa5d584246ba67447),
    ("dct_lite", 8, true, 515, 0xf5e1145c988c6e0f),
];

#[test]
fn every_expansion_matches_its_structural_fingerprint() {
    let mut got = Vec::new();
    for g in benchmarks::all() {
        for width in [4, 8] {
            for external in [false, true] {
                let mode = if external {
                    ControllerMode::External
                } else {
                    ControllerMode::Expanded
                };
                let d = SynthesisFlow::new(g.clone())
                    .strategy(DftStrategy::GateLevelPartialScan)
                    .width(width)
                    .controller(mode)
                    .run()
                    .unwrap();
                let nl = &d.expanded.netlist;
                got.push((
                    g.name().to_string(),
                    width,
                    external,
                    nl.num_gates(),
                    fingerprint(nl),
                ));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(n, w, e, gates, fp)| format!("    (\"{n}\", {w}, {e}, {gates}, {fp:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for (row, want) in got.iter().zip(GOLDEN) {
        let (n, w, e, gates, fp) = row;
        assert_eq!(
            (n.as_str(), *w, *e, *gates, *fp),
            *want,
            "golden table:\n{table}"
        );
    }
}

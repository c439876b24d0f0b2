//! Unified testability report.

use std::fmt;

use hlstb_netlist::stats::GradeStats;
use hlstb_trace::json::{escape, number_f64, Obj};

/// Result of the optional post-synthesis fault-grading pass
/// ([`crate::flow::SynthesisFlow::grade_random`]): pseudorandom
/// full-scan coverage of the expanded netlist plus the engine's run
/// instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct GradingSummary {
    /// Stuck-at coverage of the collapsed fault universe, in percent.
    pub coverage_percent: f64,
    /// Random patterns applied.
    pub patterns: usize,
    /// Engine work and timing counters.
    pub stats: GradeStats,
}

/// Result of the optional deterministic top-up pass
/// ([`crate::flow::SynthesisFlow::grade_atpg`]): PODEM targets the
/// faults the pseudorandom pass left undetected (or the whole collapsed
/// universe when no grading ran first).
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgSummary {
    /// Faults handed to the generator (the residual universe).
    pub targeted: usize,
    /// Faults detected by generation or by fault-dropping simulation.
    pub detected: usize,
    /// Faults PODEM found no test for with unscanned flops held at `X`.
    /// Not a redundancy proof: `full-scan` leaves the controller's state
    /// flops unscanned, and random grading (which drives every flop)
    /// can detect such faults.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Deterministic patterns generated.
    pub patterns: usize,
    /// PODEM decision count.
    pub decisions: u64,
    /// PODEM backtrack count.
    pub backtracks: u64,
    /// Coverage of the *full* collapsed universe after both passes
    /// (random-detected plus ATPG-detected), in percent.
    pub combined_coverage_percent: f64,
}

/// Structural and testability metrics of a synthesized design — the
//  common vocabulary of all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct TestabilityReport {
    /// Design name.
    pub name: String,
    /// Control steps per iteration.
    pub period: u32,
    /// Total data-path registers (delay stages included).
    pub registers: usize,
    /// Registers hosting primary I/O.
    pub io_registers: usize,
    /// Functional units.
    pub fus: usize,
    /// Registers marked for scan.
    pub scan_registers: usize,
    /// Non-self loops in the register S-graph before scan.
    pub sgraph_cycles: usize,
    /// Whether removing the scan registers leaves the S-graph acyclic
    /// (self-loops tolerated).
    pub sgraph_acyclic_after_scan: bool,
    /// Size of a minimum feedback vertex set of the pre-scan S-graph
    /// (the gate-level partial-scan baseline).
    pub mfvs_size: usize,
    /// Maximum sequential depth from input registers (post-scan).
    pub max_control_depth: u32,
    /// Maximum sequential depth to output registers (post-scan).
    pub max_observe_depth: u32,
    /// Gate count of the expanded netlist.
    pub gates: usize,
    /// Area estimate in gate equivalents.
    pub area: f64,
    /// Register-area overhead of a shared BIST configuration of this
    /// data path, in percent — reported for every run (the §5 cost
    /// axis), whether or not a BIST strategy was selected.
    pub bist_overhead_percent: f64,
    /// Fault-grading result, when the flow was asked to grade
    /// ([`crate::flow::SynthesisFlow::grade_random`]); `None` for the
    /// default flow.
    pub grading: Option<GradingSummary>,
    /// Deterministic top-up result, when the flow was asked to run ATPG
    /// ([`crate::flow::SynthesisFlow::grade_atpg`]).
    pub atpg: Option<AtpgSummary>,
}

impl TestabilityReport {
    /// Renders the report as a pretty-printed JSON object (the CLI's
    /// `--json` output). Hand-written on the shared [`hlstb_trace::json`]
    /// writers: the workspace builds offline and the report is a flat
    /// struct, so no serialization framework is warranted.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field("name", escape(&self.name));
        field("period", self.period.to_string());
        field("registers", self.registers.to_string());
        field("io_registers", self.io_registers.to_string());
        field("fus", self.fus.to_string());
        field("scan_registers", self.scan_registers.to_string());
        field("sgraph_cycles", self.sgraph_cycles.to_string());
        field(
            "sgraph_acyclic_after_scan",
            self.sgraph_acyclic_after_scan.to_string(),
        );
        field("mfvs_size", self.mfvs_size.to_string());
        field("max_control_depth", self.max_control_depth.to_string());
        field("max_observe_depth", self.max_observe_depth.to_string());
        field("gates", self.gates.to_string());
        field("area", number_f64(self.area));
        field(
            "bist_overhead_percent",
            number_f64(self.bist_overhead_percent),
        );
        match &self.grading {
            Some(g) => {
                let mut o = Obj::new();
                o.number_f64("coverage_percent", g.coverage_percent)
                    .number_u64("patterns", g.patterns as u64)
                    .raw("stats", &g.stats.to_json());
                field("grading", o.finish());
            }
            None => field("grading", "null".into()),
        }
        match &self.atpg {
            Some(a) => {
                let mut o = Obj::new();
                o.number_u64("targeted", a.targeted as u64)
                    .number_u64("detected", a.detected as u64)
                    .number_u64("untestable", a.untestable as u64)
                    .number_u64("aborted", a.aborted as u64)
                    .number_u64("patterns", a.patterns as u64)
                    .number_u64("decisions", a.decisions)
                    .number_u64("backtracks", a.backtracks)
                    .number_f64("combined_coverage_percent", a.combined_coverage_percent);
                field("atpg", o.finish());
            }
            None => field("atpg", "null".into()),
        }
        out.pop(); // trailing newline
        out.pop(); // trailing comma
        out.push_str("\n}");
        out
    }
}

impl fmt::Display for TestabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design {}", self.name)?;
        writeln!(f, "  period            : {} steps", self.period)?;
        writeln!(
            f,
            "  registers         : {} total, {} I/O, {} scan",
            self.registers, self.io_registers, self.scan_registers
        )?;
        writeln!(f, "  functional units  : {}", self.fus)?;
        writeln!(
            f,
            "  S-graph           : {} cycles, MFVS {}, acyclic after scan: {}",
            self.sgraph_cycles, self.mfvs_size, self.sgraph_acyclic_after_scan
        )?;
        writeln!(
            f,
            "  sequential depth  : control {} / observe {}",
            self.max_control_depth, self.max_observe_depth
        )?;
        write!(
            f,
            "  gates             : {} ({:.0} GE)\n  BIST overhead     : {:.1}% (shared plan)",
            self.gates, self.area, self.bist_overhead_percent
        )?;
        if let Some(g) = &self.grading {
            write!(
                f,
                "\n  fault grading     : {:.1}% of {} faults at {} patterns ({})",
                g.coverage_percent, g.stats.faults, g.patterns, g.stats
            )?;
        }
        if let Some(a) = &self.atpg {
            write!(
                f,
                "\n  atpg top-up       : {} targeted, {} detected, {} untestable, \
                 {} aborted, {} patterns -> {:.1}% combined",
                a.targeted,
                a.detected,
                a.untestable,
                a.aborted,
                a.patterns,
                a.combined_coverage_percent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_trace::json;

    fn base() -> TestabilityReport {
        TestabilityReport {
            name: "x".into(),
            period: 4,
            registers: 10,
            io_registers: 5,
            fus: 3,
            scan_registers: 2,
            sgraph_cycles: 1,
            sgraph_acyclic_after_scan: true,
            mfvs_size: 1,
            max_control_depth: 2,
            max_observe_depth: 3,
            gates: 500,
            area: 1234.5,
            bist_overhead_percent: 12.5,
            grading: None,
            atpg: None,
        }
    }

    #[test]
    fn display_mentions_key_metrics() {
        let r = base();
        let s = r.to_string();
        assert!(s.contains("10 total"));
        assert!(s.contains("MFVS 1"));
        assert!(s.contains("1235 GE") || s.contains("1234 GE"));
        assert!(s.contains("BIST overhead"), "{s}");
        let j = r.to_json();
        assert!(j.contains("\"grading\": null"), "{j}");
        assert!(j.contains("\"atpg\": null"), "{j}");
        assert!(j.contains("\"bist_overhead_percent\": 12.5"), "{j}");
    }

    #[test]
    fn grading_shows_up_in_text_and_json() {
        let mut r = base();
        r.grading = Some(GradingSummary {
            coverage_percent: 92.5,
            patterns: 256,
            stats: GradeStats {
                faults: 40,
                frames: 4,
                ..GradeStats::default()
            },
        });
        let s = r.to_string();
        assert!(s.contains("fault grading"), "{s}");
        assert!(s.contains("92.5%"), "{s}");
        let j = r.to_json();
        assert!(j.contains("\"coverage_percent\": 92.5"), "{j}");
        assert!(j.contains("\"patterns\": 256"), "{j}");
    }

    #[test]
    fn atpg_shows_up_in_text_and_json() {
        let mut r = base();
        r.atpg = Some(AtpgSummary {
            targeted: 12,
            detected: 10,
            untestable: 2,
            aborted: 0,
            patterns: 7,
            decisions: 100,
            backtracks: 3,
            combined_coverage_percent: 99.0,
        });
        let s = r.to_string();
        assert!(s.contains("atpg top-up"), "{s}");
        assert!(s.contains("99.0% combined"), "{s}");
        let j = r.to_json();
        assert!(j.contains("\"targeted\": 12"), "{j}");
        assert!(j.contains("\"combined_coverage_percent\": 99.0"), "{j}");
    }

    #[test]
    fn json_output_parses_with_the_shared_parser() {
        let mut r = base();
        r.name = "a\"b\\c\nd".into();
        r.grading = Some(GradingSummary {
            coverage_percent: 50.0,
            patterns: 64,
            stats: GradeStats::default(),
        });
        let v = json::parse(&r.to_json()).expect("report JSON parses");
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("a\"b\\c\nd"));
        assert_eq!(v.get("gates").and_then(|n| n.as_f64()), Some(500.0));
        let g = v.get("grading").expect("grading present");
        assert_eq!(
            g.get("coverage_percent").and_then(|n| n.as_f64()),
            Some(50.0)
        );
    }
}

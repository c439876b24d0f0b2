//! Output checks shared by the sweep workloads: a sampled point is
//! re-run through the flow's own composition and its netlist is
//! simulated against the behavioral interpreter.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hlstb::cdfg::Cdfg;
use hlstb::flow::{SynthesisFlow, SynthesizedDesign};
use hlstb::hls::expand::simulate_hw;
use hlstb_dse::{Point, PointRecord, SweepSpec};
use rand::rngs::StdRng;
use rand::Rng;

/// Iterations of stimulus per behavioral-equivalence check.
const ITERATIONS: usize = 6;

/// The flow a sweep point describes, graded as the point asks.
fn point_flow(spec: &SweepSpec, p: Point) -> SynthesisFlow {
    let flow = SynthesisFlow::new(spec.designs[p.design].clone())
        .scheduler(p.scheduler)
        .register_policy(p.policy)
        .strategy(p.strategy)
        .width(p.width)
        .reset_controller(spec.reset_controller);
    if p.patterns > 0 {
        flow.grade_random(p.patterns)
    } else {
        flow
    }
}

/// Re-runs point `p` through [`SynthesisFlow::run_ref`] and compares
/// every report field and the coverage with the sweep's record, then
/// checks the synthesized netlist against [`Cdfg::evaluate`].
pub fn sweep_point(
    spec: &SweepSpec,
    p: Point,
    record: &PointRecord,
    rng: &mut StdRng,
) -> Result<(), String> {
    let what = format!(
        "point {} ({} / {} / {} / {} / w{} / {} patterns)",
        p.index,
        record.design,
        record.scheduler,
        record.policy,
        record.strategy,
        p.width,
        p.patterns
    );
    let metrics = record
        .outcome
        .as_ref()
        .map_err(|e| format!("{what}: the sweep reported {e}"))?;
    let design = point_flow(spec, p)
        .run_ref()
        .map_err(|e| format!("{what}: run_ref failed: {e}"))?;
    let mut report = design.report.clone();
    let coverage = report.grading.take().map(|g| g.coverage_percent);
    if report != metrics.report {
        return Err(format!(
            "{what}: report differs from run_ref\n sweep: {}\n flow:  {}",
            metrics.report.to_json(),
            report.to_json()
        ));
    }
    if coverage != metrics.coverage_percent {
        return Err(format!(
            "{what}: coverage {:?} differs from run_ref's {coverage:?}",
            metrics.coverage_percent
        ));
    }
    behavior_matches(&spec.designs[p.design], &design, p.width, rng)
        .map_err(|e| format!("{what}: {e}"))
}

/// Simulates the gate-level design cycle-accurately on seeded stimulus
/// and compares every primary output with the behavioral interpreter.
pub fn behavior_matches(
    cdfg: &Cdfg,
    design: &SynthesizedDesign,
    width: u32,
    rng: &mut StdRng,
) -> Result<(), String> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let streams: HashMap<String, Vec<u64>> = cdfg
        .inputs()
        .map(|v| {
            let values = (0..ITERATIONS).map(|_| rng.gen::<u64>() & mask).collect();
            (v.name.clone(), values)
        })
        .collect();
    let reference = cdfg.evaluate(&streams, &HashMap::new(), width);
    let hw = catch_unwind(AssertUnwindSafe(|| {
        simulate_hw(&design.expanded, &design.datapath, &streams)
    }))
    .map_err(|_| "simulate_hw panicked".to_string())?;
    for o in cdfg.outputs() {
        if hw.get(&o.name) != reference.get(&o.name) {
            return Err(format!(
                "output {} diverges: netlist {:?}, behavior {:?}",
                o.name,
                hw.get(&o.name),
                reference.get(&o.name)
            ));
        }
    }
    Ok(())
}

/// A seeded sample of `n` distinct indices below `len`, ascending.
pub fn sample_indices(len: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(n.min(len));
    while picked.len() < n.min(len) {
        let i = rng.gen_range(0..len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

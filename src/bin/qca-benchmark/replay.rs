//! Direct, uncontended calls to the public layer functions, with the
//! exact arguments the service uses for a job. The replayed histogram
//! must equal the one the service returned over the wire: the per-shot
//! RNG contract makes that hold for any shard split or coalescing.

use crate::client::Histogram;
use crate::workload::{Job, Workload};
use openql::{Compiler, CompilerOptions};
use qca_core::QubitKind;
use qxsim::{EngineSelect, Simulator};
use std::time::{Duration, Instant};

/// How long each layer took for one job, and what it produced.
#[derive(Debug, Clone)]
pub struct Replay {
    pub histogram: Histogram,
    /// Layer name and elapsed time, in call order.
    pub stages: [(&'static str, Duration); 5],
    pub swaps: usize,
    pub gates_out: usize,
    pub kernels: u64,
}

/// Replays `job` through parse → OpenQL → plan compile → engine
/// selection → a single-threaded run.
pub fn replay(workload: &Workload, job: &Job) -> Result<Replay, String> {
    let t0 = Instant::now();
    let program = cqasm::Program::parse(&job.circuit).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let platform = workload.platform(program.qubit_count());
    let compiled = Compiler::with_options(platform, CompilerOptions::default())
        .compile_cqasm(&program)
        .map_err(|e| format!("openql: {e}"))?;
    let t2 = Instant::now();
    let plan = Simulator::with_model(QubitKind::Perfect.to_model())
        .compile(&compiled.program)
        .map_err(|e| format!("plan: {e}"))?;
    let t3 = Instant::now();
    let sim = Simulator::with_model(QubitKind::Perfect.to_model())
        .with_seed(job.seed)
        .with_engine_select(EngineSelect::Auto);
    sim.plan_engine(&plan).map_err(|e| format!("engine: {e}"))?;
    let t4 = Instant::now();
    let histogram = sim
        .run_shots_planned(&plan, job.shots, 1)
        .map_err(|e| format!("run: {e}"))?;
    let t5 = Instant::now();
    Ok(Replay {
        histogram: histogram.iter().collect(),
        stages: [
            ("cqasm.parse", t1 - t0),
            ("openql.compile", t2 - t1),
            ("plan.compile", t3 - t2),
            ("engine.select", t4 - t3),
            ("engine.run", t5 - t4),
        ],
        swaps: compiled.report.swaps_inserted,
        gates_out: compiled.report.output_stats.gates,
        kernels: plan.fusion_stats().gates_after,
    })
}

//! Stack-wide differential conformance: every engine in the stack must
//! agree on every generated program — bit for bit on the state-vector
//! paths (reference oracle, interpreter, compiled plan, sharded ranges,
//! and the serving runtime), statistically on the density-matrix engine.
//!
//! The corpus includes the non-unitary shapes — mid-circuit measurement
//! and binary-controlled (`c-`) gates — whose compilation is covered by
//! the per-branch differential pass verifier; each case is also compiled
//! with verification enabled, so this suite exercises that verifier on
//! hundreds of real pipelines. A failing case prints its seed; replay it
//! with `qca-conform --replay <seed>`.

use cqasm::Program;
use openql::{Compiler, CompilerOptions, Platform};
use qca_core::conform::{generate_case, reference_histogram, run_campaign, CaseShape};
use qca_service::{JobSpec, Service, ServiceConfig};
use qxsim::{EngineSelect, ShotHistogram, Simulator};
use std::time::Duration;

/// The headline campaign: 200 seeded cases through every engine.
#[test]
fn campaign_of_200_seeded_cases_is_conformant() {
    let report = run_campaign(0xC0FFEE, 200);
    assert_eq!(report.cases, 200);
    assert_eq!(
        report.passed,
        200,
        "diverging case seeds (replay with `qca-conform --replay <seed>`): {:?}",
        report
            .failures
            .iter()
            .map(|f| (f.seed, f.shape, f.detail.clone()))
            .collect::<Vec<_>>()
    );
}

/// The corpus must keep covering the hard shapes: conditional gates and
/// mid-circuit measurement, not just unitary-then-measure programs.
#[test]
fn campaign_corpus_covers_conditional_and_mid_measure_shapes() {
    let mut conditional = 0u32;
    let mut mid_measure = 0u32;
    for i in 0..200u64 {
        let seed = 0xC0FFEEu64.wrapping_add(i.wrapping_mul(qca_core::chaos::CASE_SEED_STRIDE));
        match generate_case(seed).shape {
            CaseShape::Conditional => conditional += 1,
            CaseShape::MidMeasure => mid_measure += 1,
            _ => {}
        }
    }
    assert!(
        conditional >= 20,
        "expected ≥ 20 conditional cases in 200, got {conditional}"
    );
    assert!(
        mid_measure >= 10,
        "expected ≥ 10 mid-measure cases in 200, got {mid_measure}"
    );
}

/// The serving runtime is a fifth engine: submitting a conformance case
/// as a job (through the plan cache, the worker pool, and shot sharding)
/// must reproduce the local compile-and-run bit for bit — and therefore
/// the reference oracle, since the campaign pins the local engines to it.
#[test]
fn service_path_is_bit_identical_to_local_runs() {
    // Low shard threshold so even the small conformance shot counts are
    // split across workers and merged.
    let service = Service::with_config(ServiceConfig {
        workers: 2,
        shard_min_shots: 16,
        ..ServiceConfig::default()
    });
    let handle = service.handle();

    let mut checked = 0u32;
    for i in 0..24u64 {
        let seed = 0x05E1_71CEu64.wrapping_add(i.wrapping_mul(qca_core::chaos::CASE_SEED_STRIDE));
        let case = generate_case(seed);
        let program = Program::parse(&case.source).expect("generated source parses");

        let id = handle
            .submit(
                JobSpec::new(case.source.clone())
                    .with_seed(seed)
                    .with_shots(case.shots),
            )
            .expect("submit");
        let outcome = handle.wait(id, Duration::from_secs(120)).expect("job runs");

        // Mirror the service's own pipeline locally: same platform
        // choice (perfect, sized to the program), same default options,
        // same seed.
        let out = Compiler::with_options(
            Platform::perfect(program.qubit_count()),
            CompilerOptions::default(),
        )
        .compile_cqasm(&program)
        .expect("local compile");
        let local = Simulator::perfect()
            .with_seed(seed)
            .run_shots(&out.program, case.shots)
            .expect("local run");
        assert_eq!(
            outcome.histogram, local,
            "service diverged from local run on case seed {seed} ({:?}):\n{}",
            case.shape, case.source
        );

        // And both must equal the independent oracle on the compiled
        // program.
        let oracle = reference_histogram(&out.program, case.shots, seed);
        assert_eq!(
            outcome.histogram, oracle,
            "service diverged from reference oracle on case seed {seed}"
        );
        checked += 1;
    }
    service.shutdown();
    assert_eq!(checked, 24);
}

/// Exact Born-rule probabilities of `program`'s pre-measurement state.
fn exact_distribution(program: &Program) -> Vec<f64> {
    let n = program.qubit_count();
    let mut state = qxsim::StateVector::zero_state(n);
    for ins in program.flat_instructions() {
        if let cqasm::Instruction::Gate(g) = ins {
            let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
            qxsim::state::reference::apply_gate(&mut state, &g.kind, &idx);
        }
    }
    state.amplitudes().iter().map(|a| a.norm_sqr()).collect()
}

fn total_variation(hist: &ShotHistogram, expected: &[f64], shots: u64) -> f64 {
    0.5 * expected
        .iter()
        .enumerate()
        .map(|(b, p)| (hist.count(b as u64) as f64 / shots as f64 - p).abs())
        .sum::<f64>()
}

/// Differential satellite: the density-matrix engine on noiseless Bell
/// and GHZ states must agree statistically with the state-vector Born
/// probabilities. Seeds are fixed, so this is deterministic.
#[test]
fn density_engine_matches_state_vector_statistics_on_bell_and_ghz() {
    const SHOTS: u64 = 4096;
    let cases = [
        ("bell", "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n"),
        (
            "ghz3",
            "qubits 3\nh q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\nmeasure_all\n",
        ),
        (
            "ghz5",
            "qubits 5\nh q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\ncnot q[2], q[3]\ncnot q[3], q[4]\nmeasure_all\n",
        ),
    ];
    for (name, src) in cases {
        let program = Program::parse(src).expect("parse");
        let expected = exact_distribution(&program);
        let sim = Simulator::perfect()
            .with_seed(0xD0_5E_ED)
            .with_engine_select(EngineSelect::Density);
        let plan = sim.compile(&program).expect("compile");
        let hist = sim.run_shots_planned(&plan, SHOTS, 1).expect("density run");
        let tv = total_variation(&hist, &expected, SHOTS);
        assert!(
            tv < 0.05,
            "{name}: density statistics diverge from Born probabilities: TV = {tv:.4}"
        );
        // GHZ-type states only ever produce the two extreme outcomes;
        // the density engine must respect that support exactly.
        let dim = expected.len() as u64;
        assert_eq!(
            hist.count(0) + hist.count(dim - 1),
            SHOTS,
            "{name}: density engine produced outcomes outside the GHZ support"
        );
    }
}

/// Replaying a single case by seed (the `--replay` path) must reproduce
/// the campaign's verdict and the exact generated program.
#[test]
fn replay_by_seed_reproduces_the_case() {
    let seed = 0xC0FFEEu64.wrapping_add(17u64.wrapping_mul(qca_core::chaos::CASE_SEED_STRIDE));
    let a = qca_core::conform::run_case(seed);
    let b = qca_core::conform::run_case(seed);
    assert_eq!(a.source, b.source);
    assert_eq!(a.passed(), b.passed());
    assert!(a.passed(), "campaign seed {seed} must pass: {:?}", a.detail);
}

//! Differential conformance corpus: seeded program generation plus an
//! independent reference oracle, executed through every state-vector
//! engine in the stack and compared **bit for bit**.
//!
//! The paper's central promise is that one quantum program means one
//! thing everywhere in the stack — interpreter, compiled plan, sharded
//! service execution. This module machine-checks that promise on randomly
//! generated programs covering the full instruction set, *including* the
//! non-unitary shapes (mid-circuit measurement, binary-controlled gates)
//! that the differential pass verifier also covers per branch:
//!
//! - **oracle** — a from-scratch interpreter built on the dense
//!   [`qxsim::state::reference`] kernels (no [`cqasm::KernelClass`]
//!   specialisation, no compiled plan, no fast paths), replaying the
//!   executor's exact per-shot RNG streams;
//! - **interpreter** — [`qxsim::Simulator`] with the sampling fast path
//!   disabled (full per-shot re-simulation of the compiled plan);
//! - **compiled plan** — the default simulator (gate fusion on), taking
//!   the terminal sampling fast paths whenever the plan qualifies;
//! - **unfused plan** — the same simulator with the fusion stage
//!   disabled, so fused and unfused compilation are pinned to the oracle
//!   independently;
//! - **sharded** — the same plan split into shot ranges via
//!   [`qxsim::Simulator::run_shot_range`] (the service's shard primitive)
//!   and merged out of order;
//! - **tableau** — the CHP stabilizer executor, forced via
//!   [`qxsim::EngineSelect::Tableau`], on every Clifford-class case;
//! - **Pauli frames** — the bit-packed frame sampler, forced via
//!   [`qxsim::EngineSelect::PauliFrame`], on every feedback-free
//!   (`CliffordTerminal`) case — plus auto-dispatched contiguous
//!   worker-style splits at 1, 2 and 4 workers, merged out of order.
//!
//! All engines must produce *identical* histograms: per-shot RNG streams
//! are seeded independently of the execution strategy, and every kernel
//! specialisation is exact (no floating-point tolerance anywhere). Each
//! case is then compiled through the OpenQL pipeline with differential
//! pass verification enabled — exercising the per-branch `Cond` verifier
//! on real pipelines — and the engines must agree on the compiled program
//! too. Density-matrix statistics are checked separately (the engine is
//! statistically, not bitwise, equivalent) against the oracle's exact
//! outcome distribution under a total-variation bound.
//!
//! Campaigns are bit-reproducible: case `i` of a campaign with seed `s`
//! has seed `s + i * CASE_SEED_STRIDE`, and a failing case can be
//! replayed alone from that seed (`qca-conform --replay <seed>`).

use crate::chaos::CASE_SEED_STRIDE;
use cqasm::{Instruction, Program};
use openql::{Compiler, CompilerOptions, Platform};
use qxsim::state::reference;
use qxsim::{CircuitClass, EngineSelect, ShotHistogram, Simulator, StateVector, SHOT_SEED_STRIDE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shots drawn when checking the density-matrix engine's statistics.
const DENSITY_SHOTS: u64 = 2048;

/// Total-variation bound for the density check: for at most 2^5 outcomes
/// and [`DENSITY_SHOTS`] draws the expected distance is ≈ 0.1; the bound
/// leaves slack while still catching any systematic divergence.
const DENSITY_TV_BOUND: f64 = 0.2;

/// The measurement structure of a generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseShape {
    /// Gates only — no measurement (every engine must report all-zero
    /// bits).
    Unitary,
    /// Gates then one `measure_all`.
    TerminalAll,
    /// Gates then a run of per-qubit `measure`s in scrambled order.
    TerminalRun,
    /// A mid-circuit measurement with unitary work after it.
    MidMeasure,
    /// Mid-circuit measurement feeding binary-controlled gates.
    Conditional,
    /// Mid-circuit `prep_z` resets between general gate work.
    PrepZ,
    /// A Clifford-only circuit: gates drawn from the Clifford generators
    /// with measures interleaved — sometimes feedback-free (Pauli-frame
    /// eligible), sometimes with conditioned corrections (tableau only).
    Clifford,
    /// Error-syndrome-measurement rounds of a small stabilizer code
    /// (repetition or Steane), with Pauli errors injected on data qubits.
    EsmRound,
}

impl CaseShape {
    /// Whether the density-matrix engine supports this shape (it needs a
    /// unitary prefix and a terminal measurement).
    fn density_eligible(self) -> bool {
        matches!(self, CaseShape::TerminalAll | CaseShape::TerminalRun)
    }

    /// Whether the shape is Clifford-class by construction (always lowers
    /// to stabilizer ops), for `--clifford-only` campaigns.
    pub fn clifford_family(self) -> bool {
        matches!(self, CaseShape::Clifford | CaseShape::EsmRound)
    }
}

/// One generated conformance case.
#[derive(Debug, Clone)]
pub struct ConformCase {
    /// The case seed (generation is a pure function of it).
    pub seed: u64,
    /// The measurement structure generated.
    pub shape: CaseShape,
    /// The generated cQASM source (always noise-free: bit-identity across
    /// engines is only claimed for exact evolution).
    pub source: String,
    /// Shots per engine run.
    pub shots: u64,
}

/// Generates the conformance case for `seed`. Pure: the same seed always
/// yields the same case.
pub fn generate_case(seed: u64) -> ConformCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = match rng.gen_range(0..12u8) {
        0 => CaseShape::Unitary,
        1 | 2 => CaseShape::TerminalAll,
        3 => CaseShape::TerminalRun,
        4 => CaseShape::MidMeasure,
        5 | 6 => CaseShape::Conditional,
        7 => CaseShape::PrepZ,
        8..=10 => CaseShape::Clifford,
        _ => CaseShape::EsmRound,
    };
    let (source, shots) = match shape {
        CaseShape::Clifford => clifford_source(&mut rng),
        CaseShape::EsmRound => esm_source(&mut rng),
        _ => general_source(&mut rng, shape),
    };
    ConformCase {
        seed,
        shape,
        source,
        shots,
    }
}

/// The general generator: full gate set (Clifford and non-Clifford),
/// fusion-stress tails, and the requested measurement structure.
fn general_source(rng: &mut StdRng, shape: CaseShape) -> (String, u64) {
    let n = rng.gen_range(2..=5usize);
    let mut src = format!("version 1.0\nqubits {n}\n");
    if rng.gen_bool(0.3) {
        let iters = rng.gen_range(2..=3u64);
        src.push_str(&format!(".body({iters})\n"));
    }
    for _ in 0..rng.gen_range(3..=10usize) {
        src.push_str(&gate_line(rng, n));
    }
    if rng.gen_bool(0.15) {
        src.push_str(&format!("wait {}\n", rng.gen_range(1..=5u64)));
    }
    // Fusion-stress tails: a same-qubit 1q run and/or a diagonal chain,
    // the shapes the plan fuser collapses hardest. The measurement and
    // conditional sections below then land exactly on fusion boundaries
    // (measure and `c-` break a fusion run), so the corpus keeps probing
    // both the fused kernels and the places fusion must stop.
    if rng.gen_bool(0.5) {
        let q = rng.gen_range(0..n);
        for _ in 0..rng.gen_range(2..=6usize) {
            let g = ["h", "x", "s", "t", "z"][rng.gen_range(0..5usize)];
            src.push_str(&format!("{g} q[{q}]\n"));
        }
    }
    if rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(2..=6usize) {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..4u8) {
                0 => src.push_str(&format!("t q[{q}]\n")),
                1 => src.push_str(&format!(
                    "rz q[{q}], {:.4}\n",
                    rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)
                )),
                2 => src.push_str(&format!("cz q[{q}], q[{}]\n", (q + 1) % n)),
                _ => src.push_str(&format!(
                    "crk q[{q}], q[{}], {}\n",
                    (q + 1) % n,
                    rng.gen_range(2..=4u32)
                )),
            }
        }
    }
    match shape {
        CaseShape::Unitary => {}
        CaseShape::TerminalAll => src.push_str("measure_all\n"),
        CaseShape::TerminalRun => {
            let mut qs: Vec<usize> = (0..n).collect();
            for i in (1..qs.len()).rev() {
                let j = rng.gen_range(0..=i);
                qs.swap(i, j);
            }
            let k = rng.gen_range(1..=n);
            for &q in &qs[..k] {
                src.push_str(&format!("measure q[{q}]\n"));
            }
        }
        CaseShape::MidMeasure => {
            src.push_str(&format!("measure q[{}]\n", rng.gen_range(0..n)));
            for _ in 0..rng.gen_range(1..=4usize) {
                src.push_str(&gate_line(rng, n));
            }
            src.push_str("measure_all\n");
        }
        CaseShape::Conditional => {
            let mq = rng.gen_range(0..n);
            src.push_str(&format!("measure q[{mq}]\n"));
            for _ in 0..rng.gen_range(1..=3usize) {
                let mut t = rng.gen_range(0..n);
                if t == mq {
                    t = (mq + 1) % n;
                }
                let g = ["x", "y", "z", "h", "s"][rng.gen_range(0..5usize)];
                src.push_str(&format!("c-{g} b[{mq}], q[{t}]\n"));
            }
            for _ in 0..rng.gen_range(0..=2usize) {
                src.push_str(&gate_line(rng, n));
            }
            src.push_str("measure_all\n");
        }
        CaseShape::PrepZ => {
            // Mid-circuit resets between general gate work; the oracle's
            // `reset` path draws exactly one gen_bool per prep, like
            // every engine.
            src.push_str(&format!("prep_z q[{}]\n", rng.gen_range(0..n)));
            for _ in 0..rng.gen_range(1..=4usize) {
                src.push_str(&gate_line(rng, n));
            }
            if rng.gen_bool(0.5) {
                src.push_str(&format!("prep_z q[{}]\n", rng.gen_range(0..n)));
            }
            src.push_str("measure_all\n");
        }
        CaseShape::Clifford | CaseShape::EsmRound => unreachable!("dedicated generators"),
    }
    (src, rng.gen_range(32..=128u64))
}

/// One random Clifford-generator gate line.
fn clifford_line(rng: &mut StdRng, n: usize) -> String {
    let q = rng.gen_range(0..n);
    let two = |rng: &mut StdRng| {
        let mut p = rng.gen_range(0..n);
        if p == q {
            p = (q + 1) % n;
        }
        p
    };
    match rng.gen_range(0..13u8) {
        0 => format!("h q[{q}]\n"),
        1 => format!("x q[{q}]\n"),
        2 => format!("y q[{q}]\n"),
        3 => format!("z q[{q}]\n"),
        4 => format!("s q[{q}]\n"),
        5 => format!("sdag q[{q}]\n"),
        6 => format!("x90 q[{q}]\n"),
        7 => format!("y90 q[{q}]\n"),
        8 => format!("mx90 q[{q}]\n"),
        9 => format!("my90 q[{q}]\n"),
        10 => format!("cnot q[{q}], q[{}]\n", two(rng)),
        11 => format!("cz q[{q}], q[{}]\n", two(rng)),
        _ => format!("swap q[{q}], q[{}]\n", two(rng)),
    }
}

/// The Clifford-only generator: every case lowers to stabilizer ops, so
/// the tableau executor always engages; feedback-free variants engage the
/// Pauli-frame sampler too.
fn clifford_source(rng: &mut StdRng) -> (String, u64) {
    let n = rng.gen_range(2..=6usize);
    let mut src = format!("version 1.0\nqubits {n}\n");
    for _ in 0..rng.gen_range(4..=12usize) {
        src.push_str(&clifford_line(rng, n));
    }
    match rng.gen_range(0..4u8) {
        // Feedback-free measures interleaved with trailing Clifford work
        // (the scheduler-hoisted shape) — CliffordTerminal, frame-eligible.
        0 | 1 => {
            for _ in 0..rng.gen_range(1..=n) {
                src.push_str(&format!("measure q[{}]\n", rng.gen_range(0..n)));
                for _ in 0..rng.gen_range(0..=2usize) {
                    src.push_str(&clifford_line(rng, n));
                }
            }
        }
        // Pure terminal measure_all — frame-eligible, All mode.
        2 => src.push_str("measure_all\n"),
        // Measurement feedback: a conditioned Pauli correction — Clifford
        // class, tableau only.
        _ => {
            let mq = rng.gen_range(0..n);
            src.push_str(&format!("measure q[{mq}]\n"));
            let g = ["x", "z", "s", "h"][rng.gen_range(0..4usize)];
            src.push_str(&format!("c-{g} b[{mq}], q[{}]\n", (mq + 1) % n));
            for _ in 0..rng.gen_range(0..=3usize) {
                src.push_str(&clifford_line(rng, n));
            }
            src.push_str("measure_all\n");
        }
    }
    (src, rng.gen_range(64..=192u64))
}

/// The ESM generator: syndrome-measurement rounds of a small stabilizer
/// code with Pauli errors injected on data qubits. Always Clifford class
/// (prep_z + feedback-free measures), so the tableau executor engages;
/// the codes stay small enough for the dense oracle.
fn esm_source(rng: &mut StdRng) -> (String, u64) {
    let code = match rng.gen_range(0..4u8) {
        0 => qec::StabilizerCode::repetition(3),
        1 | 2 => qec::StabilizerCode::repetition(5),
        _ => qec::StabilizerCode::steane(),
    };
    let rounds = rng.gen_range(1..=2u64);
    let (program, layout) = qec::esm::esm_program_ancilla_first(&code, rounds);
    let src = program.to_string();
    // Inject X/Z data errors after the header so the syndromes vary.
    let mut errors = String::new();
    for i in 0..code.data_qubits() {
        if rng.gen_bool(0.25) {
            let g = if rng.gen_bool(0.5) { "x" } else { "z" };
            errors.push_str(&format!("{g} q[{}]\n", layout.data_qubit(i)));
        }
    }
    let header_end = src
        .find('\n')
        .and_then(|v| src[v + 1..].find('\n').map(|w| v + 1 + w + 1))
        .unwrap_or(src.len());
    let mut out = String::with_capacity(src.len() + errors.len());
    out.push_str(&src[..header_end]);
    out.push_str(&errors);
    out.push_str(&src[header_end..]);
    (out, rng.gen_range(32..=96u64))
}

/// One random gate line over the full gate set (including Toffoli, so the
/// `apply_controlled_1q` path is exercised differentially).
fn gate_line(rng: &mut StdRng, n: usize) -> String {
    let q = rng.gen_range(0..n);
    let two = |rng: &mut StdRng| {
        let mut p = rng.gen_range(0..n);
        if p == q {
            p = (q + 1) % n;
        }
        p
    };
    match rng.gen_range(0..12u8) {
        0 => format!("h q[{q}]\n"),
        1 => format!("x q[{q}]\n"),
        2 => format!("y q[{q}]\n"),
        3 => format!("s q[{q}]\n"),
        4 => format!("t q[{q}]\n"),
        5 => format!(
            "rz q[{q}], {:.4}\n",
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)
        ),
        6 => format!(
            "rx q[{q}], {:.4}\n",
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI)
        ),
        7 => format!("cnot q[{q}], q[{}]\n", two(rng)),
        8 => format!("cz q[{q}], q[{}]\n", two(rng)),
        9 => format!("swap q[{q}], q[{}]\n", two(rng)),
        10 if n >= 3 => {
            let a = two(rng);
            let mut b = rng.gen_range(0..n);
            while b == q || b == a {
                b = (b + 1) % n;
            }
            format!("toffoli q[{q}], q[{a}], q[{b}]\n")
        }
        _ => format!("z q[{q}]\n"),
    }
}

/// Executes `program` on the independent reference oracle: dense
/// [`reference`] kernels, direct instruction walk (no plan), and the
/// executor's exact per-shot RNG streams
/// (`seed + shot * `[`SHOT_SEED_STRIDE`]). Bit-identical to the noise-free
/// interpreter by construction: measurement collapse and sampling use the
/// shared [`StateVector`] primitives while gate application is
/// independently dense.
pub fn reference_histogram(program: &Program, shots: u64, seed: u64) -> ShotHistogram {
    let n = program.qubit_count();
    let mut hist = ShotHistogram::new();
    for shot in 0..shots {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(shot.wrapping_mul(SHOT_SEED_STRIDE)));
        let mut state = StateVector::zero_state(n);
        let mut bits = 0u64;
        for ins in program.flat_instructions() {
            oracle_step(ins, &mut state, &mut bits, &mut rng);
        }
        hist.record(bits);
    }
    hist
}

fn oracle_step(ins: &Instruction, state: &mut StateVector, bits: &mut u64, rng: &mut StdRng) {
    match ins {
        Instruction::Gate(g) => {
            let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
            reference::apply_gate(state, &g.kind, &idx);
        }
        Instruction::Cond(bit, g) => {
            if (*bits >> bit.index()) & 1 == 1 {
                let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
                reference::apply_gate(state, &g.kind, &idx);
            }
        }
        Instruction::Measure(q) => {
            let outcome = state.measure(q.index(), rng);
            set_bit(bits, q.index(), outcome);
        }
        Instruction::MeasureAll => {
            let basis = state.measure_all(rng);
            for q in 0..state.qubit_count() {
                set_bit(bits, q, (basis >> q) & 1 == 1);
            }
        }
        Instruction::PrepZ(q) => state.reset(q.index(), rng),
        Instruction::Bundle(instrs) => {
            for inner in instrs {
                oracle_step(inner, state, bits, rng);
            }
        }
        Instruction::Wait(_) | Instruction::Display => {}
    }
}

fn set_bit(bits: &mut u64, index: usize, value: bool) {
    if value {
        *bits |= 1 << index;
    } else {
        *bits &= !(1 << index);
    }
}

/// Which optional engines a case exercised (the state-vector engines and
/// shard merge always run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCoverage {
    /// The CHP tableau executor ran (Clifford-class plan).
    pub tableau: bool,
    /// The Pauli-frame sampler ran (`CliffordTerminal` plan).
    pub frame: bool,
}

impl EngineCoverage {
    fn union(self, other: EngineCoverage) -> EngineCoverage {
        EngineCoverage {
            tableau: self.tableau || other.tableau,
            frame: self.frame || other.frame,
        }
    }
}

/// The report for one case: `detail` is `None` on pass, otherwise a
/// human-readable description of the first divergence.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed (replay handle).
    pub seed: u64,
    /// The generated shape.
    pub shape: CaseShape,
    /// The generated source.
    pub source: String,
    /// Shots per engine.
    pub shots: u64,
    /// Which stabilizer engines the case exercised.
    pub coverage: EngineCoverage,
    /// `None` = pass; `Some` = first divergence found.
    pub detail: Option<String>,
}

impl CaseReport {
    /// Whether every engine agreed.
    pub fn passed(&self) -> bool {
        self.detail.is_none()
    }
}

/// Runs one conformance case end to end.
pub fn run_case(seed: u64) -> CaseReport {
    let case = generate_case(seed);
    let (coverage, detail) = match check_case(&case) {
        Ok(cov) => (cov, None),
        Err(e) => (EngineCoverage::default(), Some(e)),
    };
    CaseReport {
        seed: case.seed,
        shape: case.shape,
        source: case.source,
        shots: case.shots,
        coverage,
        detail,
    }
}

/// Renders the first difference between two histograms.
fn diff_histograms(what: &str, expect: &ShotHistogram, got: &ShotHistogram) -> Result<(), String> {
    if expect == got {
        return Ok(());
    }
    let mut keys: Vec<u64> = expect.iter().map(|(b, _)| b).collect();
    keys.extend(got.iter().map(|(b, _)| b));
    keys.sort_unstable();
    keys.dedup();
    for b in keys {
        let (e, g) = (expect.count(b), got.count(b));
        if e != g {
            return Err(format!(
                "{what}: histogram differs at bits {b:#b}: expected {e}, got {g}"
            ));
        }
    }
    Err(format!("{what}: histograms differ in shot totals"))
}

fn check_case(case: &ConformCase) -> Result<EngineCoverage, String> {
    let program = Program::parse(&case.source)
        .map_err(|e| format!("generated source failed to parse: {e}"))?;
    let raw = check_engines("raw", &program, case.shots, case.seed)?;

    // Compile through the same pipeline the service uses (perfect sized
    // platform, default options) with differential pass verification on —
    // this is where the per-branch Cond verifier runs on real pipelines.
    let compiler = Compiler::with_options(
        Platform::perfect(program.qubit_count()),
        CompilerOptions::default(),
    )
    .with_verification(true);
    let out = compiler
        .compile_cqasm(&program)
        .map_err(|e| format!("compile (with verification): {e}"))?;
    let compiled = check_engines("compiled", &out.program, case.shots, case.seed)?;

    if case.shape.density_eligible() {
        check_density(&program, case.seed)?;
    }
    Ok(raw.union(compiled))
}

/// Runs `program` through oracle, interpreter, fused compiled plan,
/// unfused compiled plan, and sharded ranges — plus, on Clifford-class
/// plans, the tableau executor, the Pauli-frame sampler and
/// worker-geometry shard splits. Every histogram must be identical.
fn check_engines(
    stage: &str,
    program: &Program,
    shots: u64,
    seed: u64,
) -> Result<EngineCoverage, String> {
    let oracle = reference_histogram(program, shots, seed);

    let interp = Simulator::perfect()
        .with_seed(seed)
        .with_sampling_fast_path(false)
        .run_shots(program, shots)
        .map_err(|e| format!("{stage}/interpreter: {e}"))?;
    diff_histograms(&format!("{stage}/interpreter vs oracle"), &oracle, &interp)?;

    let fast = Simulator::perfect()
        .with_seed(seed)
        .run_shots(program, shots)
        .map_err(|e| format!("{stage}/plan: {e}"))?;
    diff_histograms(&format!("{stage}/compiled plan vs oracle"), &oracle, &fast)?;

    // The fused plan above is the default; this engine pins the *unfused*
    // plan too, so a fusion bug cannot hide behind an identical bug in
    // the unfused path (and vice versa).
    let unfused = Simulator::perfect()
        .with_seed(seed)
        .with_fusion(false)
        .run_shots(program, shots)
        .map_err(|e| format!("{stage}/unfused plan: {e}"))?;
    diff_histograms(
        &format!("{stage}/unfused plan vs oracle"),
        &oracle,
        &unfused,
    )?;

    let sim = Simulator::perfect().with_seed(seed);
    let plan = sim
        .compile(program)
        .map_err(|e| format!("{stage}/shard compile: {e}"))?;
    let cut_a = shots / 3;
    let cut_b = shots - shots / 4;
    let mut sharded = ShotHistogram::new();
    // Merge out of order: shard identity must not depend on range order.
    for (lo, hi) in [(cut_b, shots), (0, cut_a), (cut_a, cut_b)] {
        if lo < hi {
            let part = sim
                .run_shot_range(&plan, lo, hi)
                .map_err(|e| format!("{stage}/shard {lo}..{hi}: {e}"))?;
            sharded.merge(&part);
        }
    }
    diff_histograms(&format!("{stage}/sharded vs oracle"), &oracle, &sharded)?;

    // Stabilizer engines, where the plan class admits them. Forced
    // selection pins each engine to the oracle on its own; the auto
    // worker splits then pin the dispatched engine under the service's
    // shard geometry at 1, 2 and 4 workers.
    let mut coverage = EngineCoverage::default();
    if plan.circuit_class() != CircuitClass::General {
        let tab = Simulator::perfect()
            .with_seed(seed)
            .with_engine_select(EngineSelect::Tableau)
            .run_shots(program, shots)
            .map_err(|e| format!("{stage}/tableau: {e}"))?;
        diff_histograms(&format!("{stage}/tableau vs oracle"), &oracle, &tab)?;
        coverage.tableau = true;

        if plan.circuit_class() == CircuitClass::CliffordTerminal {
            let frames = Simulator::perfect()
                .with_seed(seed)
                .with_engine_select(EngineSelect::PauliFrame)
                .run_shots(program, shots)
                .map_err(|e| format!("{stage}/pauli-frame: {e}"))?;
            diff_histograms(&format!("{stage}/pauli-frame vs oracle"), &oracle, &frames)?;
            coverage.frame = true;
        }

        for workers in [1u64, 2, 4] {
            let per = shots / workers;
            let mut merged = ShotHistogram::new();
            for w in (0..workers).rev() {
                let lo = w * per;
                let hi = if w == workers - 1 {
                    shots
                } else {
                    (w + 1) * per
                };
                if lo < hi {
                    let part = sim
                        .run_shot_range(&plan, lo, hi)
                        .map_err(|e| format!("{stage}/stabilizer shard {lo}..{hi}: {e}"))?;
                    merged.merge(&part);
                }
            }
            diff_histograms(
                &format!("{stage}/stabilizer {workers}-worker split vs oracle"),
                &oracle,
                &merged,
            )?;
        }
    }
    Ok(coverage)
}

/// Checks the density-matrix engine's statistics against the oracle's
/// exact outcome distribution under a total-variation bound.
fn check_density(program: &Program, seed: u64) -> Result<(), String> {
    let n = program.qubit_count();
    // Exact distribution: evolve the unitary prefix once on the oracle
    // kernels, then marginalise onto the measured qubits.
    let mut state = StateVector::zero_state(n);
    let mut measured = 0u64;
    for ins in program.flat_instructions() {
        match ins {
            Instruction::Gate(g) => {
                let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
                reference::apply_gate(&mut state, &g.kind, &idx);
            }
            Instruction::Measure(q) => measured |= 1 << q.index(),
            Instruction::MeasureAll => measured = (1 << n) - 1,
            Instruction::Bundle(instrs) => {
                for inner in instrs {
                    if let Instruction::Gate(g) = inner {
                        let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
                        reference::apply_gate(&mut state, &g.kind, &idx);
                    }
                }
            }
            _ => {}
        }
    }
    let dim = 1usize << n;
    let mut expected = vec![0.0f64; dim];
    for (i, a) in state.amplitudes().iter().enumerate() {
        expected[i & measured as usize] += a.norm_sqr();
    }

    let sim = Simulator::perfect()
        .with_seed(seed)
        .with_engine_select(EngineSelect::Density);
    let plan = sim
        .compile(program)
        .map_err(|e| format!("density compile: {e}"))?;
    let hist = match sim.run_shots_planned(&plan, DENSITY_SHOTS, 1) {
        Ok(h) => h,
        // The density engine legitimately rejects some generated shapes
        // (three-qubit kernels, repeated subcircuits whose measurements
        // land mid-stream). That is a supported-surface boundary, not a
        // conformance failure — skip, don't fail.
        Err(qxsim::ExecuteError::Invalid(_)) => return Ok(()),
        Err(e) => return Err(format!("density run: {e}")),
    };
    let mut tv = 0.0f64;
    for (b, p) in expected.iter().enumerate() {
        let emp = hist.count(b as u64) as f64 / DENSITY_SHOTS as f64;
        tv += (emp - p).abs();
    }
    tv *= 0.5;
    if tv > DENSITY_TV_BOUND {
        return Err(format!(
            "density engine diverges from exact distribution: TV = {tv:.4} > {DENSITY_TV_BOUND}"
        ));
    }
    Ok(())
}

/// A campaign summary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Cases run.
    pub cases: u64,
    /// Cases where every engine agreed.
    pub passed: u64,
    /// Cases that exercised the CHP tableau executor.
    pub tableau_cases: u64,
    /// Cases that exercised the Pauli-frame sampler.
    pub frame_cases: u64,
    /// The failing cases, in run order.
    pub failures: Vec<CaseReport>,
}

/// Runs `cases` conformance cases derived from `seed` (case `i` has seed
/// `seed + i * CASE_SEED_STRIDE`, the same derivation the chaos campaign
/// uses). Bit-reproducible.
pub fn run_campaign(seed: u64, cases: u64) -> CampaignReport {
    run_campaign_filtered(seed, cases, false)
}

/// Like [`run_campaign`], optionally restricted to the Clifford-family
/// shapes ([`CaseShape::clifford_family`]). The restriction works by
/// rejection over the same seed derivation, so a failing case's seed
/// replays identically with `run_case` / `qca-conform --replay`.
pub fn run_campaign_filtered(seed: u64, cases: u64, clifford_only: bool) -> CampaignReport {
    let mut report = CampaignReport {
        cases: 0,
        passed: 0,
        tableau_cases: 0,
        frame_cases: 0,
        failures: Vec::new(),
    };
    // The Clifford family is ~1/3 of the shape weight; a generous scan
    // bound keeps the loop finite without ever truncating a realistic
    // campaign.
    let scan_limit = cases.saturating_mul(20);
    let mut i = 0u64;
    while report.cases < cases && i < scan_limit {
        let case_seed = seed.wrapping_add(i.wrapping_mul(CASE_SEED_STRIDE));
        i += 1;
        if clifford_only && !generate_case(case_seed).shape.clifford_family() {
            continue;
        }
        let r = run_case(case_seed);
        report.cases += 1;
        if r.coverage.tableau {
            report.tableau_cases += 1;
        }
        if r.coverage.frame {
            report.frame_cases += 1;
        }
        if r.passed() {
            report.passed += 1;
        } else {
            report.failures.push(r);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(42);
        let b = generate_case(42);
        assert_eq!(a.source, b.source);
        assert_eq!(a.shots, b.shots);
        assert_eq!(a.shape, b.shape);
    }

    #[test]
    fn all_shapes_are_generated() {
        let mut seen = [false; 8];
        for seed in 0..160u64 {
            seen[match generate_case(seed).shape {
                CaseShape::Unitary => 0,
                CaseShape::TerminalAll => 1,
                CaseShape::TerminalRun => 2,
                CaseShape::MidMeasure => 3,
                CaseShape::Conditional => 4,
                CaseShape::PrepZ => 5,
                CaseShape::Clifford => 6,
                CaseShape::EsmRound => 7,
            }] = true;
        }
        assert_eq!(seen, [true; 8], "160 seeds must cover every shape");
    }

    #[test]
    fn oracle_matches_engines_on_a_small_campaign() {
        let report = run_campaign(11, 40);
        assert_eq!(report.cases, 40);
        assert!(
            report.failures.is_empty(),
            "failing seeds: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.detail.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn clifford_campaign_exercises_both_stabilizer_engines() {
        let report = run_campaign_filtered(3, 12, true);
        assert_eq!(report.cases, 12);
        assert!(
            report.failures.is_empty(),
            "failing seeds: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.detail.clone()))
                .collect::<Vec<_>>()
        );
        // Every Clifford-family case runs the tableau executor; the
        // feedback-free subset runs the frame sampler too.
        assert_eq!(report.tableau_cases, 12);
        assert!(report.frame_cases > 0, "no frame-eligible case in 12");
    }

    #[test]
    fn oracle_is_bit_reproducible() {
        let case = generate_case(7);
        let p = Program::parse(&case.source).unwrap();
        let a = reference_histogram(&p, case.shots, case.seed);
        let b = reference_histogram(&p, case.shots, case.seed);
        assert_eq!(a, b);
    }

    #[test]
    fn a_seeded_divergence_would_be_reported() {
        // Sanity-check the comparator itself: two different histograms
        // must produce a diff, equal ones must not.
        let mut a = ShotHistogram::new();
        a.record_many(0b01, 3);
        let mut b = ShotHistogram::new();
        b.record_many(0b01, 2);
        b.record_many(0b10, 1);
        assert!(diff_histograms("t", &a, &b).is_err());
        assert!(diff_histograms("t", &a, &a).is_ok());
    }
}

//! The QX execution engine: runs cQASM programs on the state-vector,
//! stabilizer or density-matrix engine under a chosen qubit model.
//!
//! This realises the execution loop of Fig 3 in the paper: the (simulated)
//! micro-architectural layer sends each quantum instruction to QX, which
//! executes it, measures qubit states on demand and returns results to the
//! classical side.
//!
//! Programs are lowered once into a [`CompiledProgram`] (kernels
//! classified, operands unpacked, idle sets precomputed as bitmasks), and
//! every multi-shot run then takes one path.
//! [`Simulator::run_shots_planned`] applies the fault budget, resolves the
//! engine and prepares the sweep once — the evolved noise-free prefix with
//! its cumulative table or measure-cascade base state, the Pauli-frame
//! layout, the tableau op list, the density-matrix diagonal, or the plan
//! itself for the per-shot interpreter — and splits the shot range across
//! threads. [`Simulator::run_shot_range`] is the same preparation over one
//! range: the serving layer's shard primitive. Each shot draws its
//! randomness from its own counter-derived stream, so every thread split
//! and every shard cover of `0..shots` reproduces the single-thread
//! histogram bit for bit.

use crate::density::{kernel_unitary, DensityMatrix, KernelUnitary, MAX_DENSITY_QUBITS};
use crate::error_model::flip_readout;
use crate::histogram::ShotHistogram;
use crate::plan::{
    CircuitClass, CompiledProgram, FusionStats, PlanOptions, PlannedGate, PlannedOp, StabOp,
    TerminalMeasure, MAX_SIM_QUBITS,
};
use crate::qubit_model::QubitModel;
use crate::stabilizer::{self, set_bit, EngineSelect, FrameSampler};
use crate::state::{auto_threads, par_min_qubits, StateVector};
use cqasm::{KernelClass, Program};
use qca_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// Per-run kernel-dispatch counts, one bucket per [`KernelClass`] (indexed
/// by [`KernelClass::class_index`]). Accumulated locally per worker and
/// summed, so the totals are independent of the thread split.
type KernelCounts = [u64; KernelClass::COUNT];

/// When telemetry is enabled, every `N`-th dispatch of each kernel class
/// (starting with its first) is wall-clock timed and recorded under the
/// `qxsim.kernel_ns.<class>` value series. Sampling keeps the `Instant`
/// reads off the overwhelming majority of gate applications while still
/// yielding per-class latency distributions.
const KERNEL_TIMING_SAMPLE_EVERY: u64 = 64;

/// Largest cumulative table the sampling fast path counts into a dense
/// per-basis-state bucket array (see [`Simulator::sweep_range`]).
const MAX_BUCKETS: usize = 1 << 20;

/// Errors from executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// The program failed semantic validation before execution.
    Invalid(String),
    /// The program addresses more qubits than the state-vector engine can
    /// allocate (see [`crate::plan::MAX_SIM_QUBITS`]).
    TooManyQubits {
        /// Qubits the program needs.
        needed: usize,
        /// Qubits the engine supports.
        max: usize,
    },
    /// A configured fault fired (see [`FaultInjection::fail_at_shot`]).
    InjectedFault {
        /// The shot index at which the fault fired.
        shot: u64,
    },
    /// A worker thread of a parallel run died.
    Worker(String),
    /// A forced engine (see [`crate::Simulator::with_engine_select`])
    /// cannot execute the plan's circuit class.
    EngineMismatch {
        /// The engine that was forced (its stable name).
        engine: String,
        /// Why the plan is outside the engine's class.
        detail: String,
    },
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Invalid(m) => write!(f, "program invalid: {m}"),
            ExecuteError::TooManyQubits { needed, max } => write!(
                f,
                "program needs {needed} qubits but the simulator supports at most {max}"
            ),
            ExecuteError::InjectedFault { shot } => {
                write!(f, "injected fault fired at shot {shot}")
            }
            ExecuteError::Worker(m) => write!(f, "worker thread failed: {m}"),
            ExecuteError::EngineMismatch { engine, detail } => {
                write!(
                    f,
                    "engine mismatch: {engine} cannot run this plan: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ExecuteError {}

/// Deterministic executor-level fault injection, for exercising the
/// stack's failure paths (used by the chaos harness and tests).
///
/// Both faults are deterministic functions of the configuration, never of
/// timing: campaigns replay bit-for-bit from a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Execute at most this many shots per multi-shot run. A run asked for
    /// more shots returns a *degraded-but-valid* histogram over the budget
    /// (models a control computer cutting a run short).
    pub shot_budget: Option<u64>,
    /// Fail the whole run with [`ExecuteError::InjectedFault`] when this
    /// shot index would execute (models a mid-run kernel failure).
    pub fail_at_shot: Option<u64>,
}

impl FaultInjection {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultInjection::default()
    }
}

/// Outcome of one shot: the final quantum state and the classical register.
#[derive(Debug, Clone)]
pub struct ShotResult {
    /// The post-execution quantum state.
    pub state: StateVector,
    /// Final classical bits (bit `i` = `b[i]`).
    pub bits: u64,
}

/// The multiplier deriving shot `s`'s RNG seed from the simulator seed:
/// `seed + s * GOLDEN` (wrapping). The odd 64-bit golden-ratio constant
/// spreads consecutive shot indices across the seed space. Public so
/// independent oracles (the conformance harness) can replay the exact
/// per-shot RNG streams.
pub const SHOT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The QX simulator: a state-vector executor with a pluggable qubit model.
///
/// # Example
///
/// ```
/// use cqasm::Program;
/// use qxsim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Program::parse("qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n")?;
/// let hist = Simulator::perfect().run_shots(&p, 200)?;
/// // Only |00> and |11> appear for a Bell pair.
/// assert_eq!(hist.count(0b01) + hist.count(0b10), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    model: QubitModel,
    seed: u64,
    sampling_fast_path: bool,
    plan_options: PlanOptions,
    faults: FaultInjection,
    telemetry: Telemetry,
    engine_select: EngineSelect,
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::perfect()
    }
}

impl Simulator {
    /// A simulator over perfect qubits (the application-development model).
    pub fn perfect() -> Self {
        Simulator::with_model(QubitModel::Perfect)
    }

    /// A simulator over the given qubit model.
    pub fn with_model(model: QubitModel) -> Self {
        Simulator {
            model,
            seed: 0xC0FFEE,
            sampling_fast_path: true,
            plan_options: PlanOptions::default(),
            faults: FaultInjection::none(),
            telemetry: Telemetry::disabled(),
            engine_select: EngineSelect::Auto,
        }
    }

    /// A simulator configured from the program's own `error_model`
    /// directive (the QX convention of declaring noise inside the cQASM
    /// file). Falls back to perfect qubits when the program declares no
    /// model or the model name is unknown.
    pub fn for_program(program: &Program) -> Self {
        let model = program
            .error_model()
            .and_then(QubitModel::from_spec)
            .unwrap_or(QubitModel::Perfect);
        Simulator::with_model(model)
    }

    /// Replaces the random seed (execution is deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs an executor-level fault-injection configuration (see
    /// [`FaultInjection`]). The default injects nothing.
    pub fn with_fault_injection(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a telemetry handle. Multi-shot runs then record spans
    /// (plan compilation vs. shot execution), the kernel-dispatch
    /// histogram, sampling fast-path hits/misses, the parallel-sweep
    /// decision, and fault-injection events. The default is a disabled
    /// handle: every instrumentation point is a single branch and the hot
    /// kernel paths are untouched.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless installed via
    /// [`Simulator::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enables or disables the multi-shot sampling fast path (enabled by
    /// default). The fast path is bit-for-bit identical to full per-shot
    /// re-simulation; the switch exists so tests and benchmarks can compare
    /// the two directly.
    pub fn with_sampling_fast_path(mut self, enabled: bool) -> Self {
        self.sampling_fast_path = enabled;
        self
    }

    /// Selects the simulation engine (see [`EngineSelect`]). The default,
    /// [`EngineSelect::Auto`], routes each compiled plan to the cheapest
    /// engine that is provably exact for its
    /// [`CircuitClass`](crate::plan::CircuitClass); forcing an engine onto
    /// a plan outside its class yields a typed
    /// [`ExecuteError::EngineMismatch`].
    pub fn with_engine_select(mut self, engine: EngineSelect) -> Self {
        self.engine_select = engine;
        self
    }

    /// The configured engine selection policy.
    pub fn engine_select(&self) -> EngineSelect {
        self.engine_select
    }

    /// Enables or disables the plan-compilation fusion stage (enabled by
    /// default). Fused plans apply exactly-composed kernels and agree with
    /// unfused plans up to floating-point association; the switch exists so
    /// differential tests and benchmarks can compare the two directly.
    pub fn with_fusion(mut self, enabled: bool) -> Self {
        self.plan_options.fusion = enabled;
        self
    }

    /// The plan-compilation options [`Simulator::compile`] uses.
    pub fn plan_options(&self) -> PlanOptions {
        self.plan_options
    }

    /// The active qubit model.
    pub fn model(&self) -> &QubitModel {
        &self.model
    }

    /// Validates `program` and lowers it into a [`CompiledProgram`] for
    /// this simulator's qubit model. [`Simulator::run_once`] and
    /// [`Simulator::run_shots`] compile internally; compile once and call
    /// [`Simulator::run_shots_planned`] or [`Simulator::run_shot_range`]
    /// to amortise compilation across your own execution loop.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Invalid`] if the program fails validation.
    pub fn compile(&self, program: &Program) -> Result<CompiledProgram, ExecuteError> {
        let plan = CompiledProgram::compile_with(program, &self.model, self.plan_options)?;
        self.record_fusion_stats(&plan.fusion_stats());
        Ok(plan)
    }

    /// Runs the program once and returns the final state and bits.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Invalid`] if the program fails validation.
    pub fn run_once(&self, program: &Program) -> Result<ShotResult, ExecuteError> {
        let plan = self.compile(program)?;
        Self::check_state_capacity(&plan)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok(self.run_compiled(&plan, &mut rng))
    }

    /// Single-shot entry points return a [`ShotResult`] holding a full
    /// [`StateVector`], so they are capped at [`MAX_SIM_QUBITS`] even for
    /// Clifford plans the multi-shot engines could execute.
    fn check_state_capacity(plan: &CompiledProgram) -> Result<(), ExecuteError> {
        if plan.qubit_count() > MAX_SIM_QUBITS {
            return Err(ExecuteError::TooManyQubits {
                needed: plan.qubit_count(),
                max: MAX_SIM_QUBITS,
            });
        }
        Ok(())
    }

    /// Compiles the program and runs it `shots` times on the calling
    /// thread: [`Simulator::run_shots_planned`] with one thread.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Invalid`] if the program fails validation,
    /// and otherwise the errors of [`Simulator::run_shots_planned`].
    pub fn run_shots(&self, program: &Program, shots: u64) -> Result<ShotHistogram, ExecuteError> {
        let _run_span = self.telemetry.span("qxsim", "run_shots");
        let plan = {
            let _span = self.telemetry.span("qxsim", "plan_compile");
            self.compile(program)?
        };
        self.run_planned(&plan, shots, 1)
    }

    /// Runs a compiled plan `shots` times across `threads` workers (`0`
    /// runs on the calling thread, like `1`) — the single multi-shot path,
    /// and the compile-once/run-many entry point the serving layer uses to
    /// reuse one [`CompiledProgram`] across requests.
    ///
    /// The run applies the fault-injection budget, resolves the engine
    /// (see [`Simulator::plan_engine`]), prepares the sweep once and
    /// splits `0..shots` into one contiguous range per thread. Shots draw
    /// from per-shot RNG streams, so the histogram is the same for every
    /// thread count and equals any merged cover of
    /// [`Simulator::run_shot_range`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::InjectedFault`] when the configured failing
    /// shot falls inside the budget, [`ExecuteError::EngineMismatch`] when
    /// a forced engine cannot run the plan, [`ExecuteError::Invalid`] or
    /// [`ExecuteError::TooManyQubits`] for plans outside the density
    /// engine's support, and [`ExecuteError::Worker`] when a worker thread
    /// dies.
    pub fn run_shots_planned(
        &self,
        plan: &CompiledProgram,
        shots: u64,
        threads: usize,
    ) -> Result<ShotHistogram, ExecuteError> {
        let _run_span = self.telemetry.span("qxsim", "run_shots");
        self.run_planned(plan, shots, threads)
    }

    fn run_planned(
        &self,
        plan: &CompiledProgram,
        shots: u64,
        threads: usize,
    ) -> Result<ShotHistogram, ExecuteError> {
        self.telemetry.incr("qxsim.runs", 1);
        self.telemetry.incr("qxsim.shots.requested", shots);
        let shots = self.effective_shots(shots)?;
        self.telemetry.incr("qxsim.shots.executed", shots);
        let sweep = self.prepare(plan)?;
        let _span = self
            .telemetry
            .span("qxsim", self.record_run(plan, &sweep, shots));
        self.split(&sweep, shots, threads)
    }

    /// Executes exactly shots `lo..hi` of a multi-shot run on a
    /// pre-compiled plan, returning their partial histogram: the same
    /// engine resolution and sweep preparation as
    /// [`Simulator::run_shots_planned`], over one range.
    ///
    /// Shots draw from the same counter-derived per-shot streams, so
    /// merging the partial histograms of any disjoint cover of `0..shots`
    /// (see [`ShotHistogram::merge`]) reproduces the single-call histogram
    /// bit-for-bit — the sharding primitive the serving runtime uses to
    /// split one large job across a worker pool.
    ///
    /// Fault injection is *not* applied here: a sharding coordinator
    /// truncates or fails the whole run before splitting (as
    /// [`Simulator::run_shots_planned`] does).
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::EngineMismatch`] when a forced engine
    /// cannot run the plan, and [`ExecuteError::Invalid`] or
    /// [`ExecuteError::TooManyQubits`] for plans outside the density
    /// engine's support.
    pub fn run_shot_range(
        &self,
        plan: &CompiledProgram,
        lo: u64,
        hi: u64,
    ) -> Result<ShotHistogram, ExecuteError> {
        let sweep = self.prepare(plan)?;
        Ok(self.sweep_range(&sweep, lo, hi))
    }

    /// Applies the fault-injection configuration to a `shots`-shot run:
    /// truncates to the shot budget (degraded-but-valid) and errors if the
    /// configured failing shot would execute.
    fn effective_shots(&self, shots: u64) -> Result<u64, ExecuteError> {
        let effective = match self.faults.shot_budget {
            Some(budget) => shots.min(budget),
            None => shots,
        };
        if effective < shots {
            self.telemetry
                .incr("qxsim.faults.budget_truncated_shots", shots - effective);
        }
        if let Some(fail_at) = self.faults.fail_at_shot {
            if fail_at < effective {
                self.telemetry.incr("qxsim.faults.injected", 1);
                return Err(ExecuteError::InjectedFault { shot: fail_at });
            }
        }
        Ok(effective)
    }

    /// The concrete engine this simulator's [`EngineSelect`] resolves to
    /// for a plan — what a sweep of it actually runs on. `Auto` picks the
    /// cheapest engine that is provably exact for the plan's circuit class
    /// and never picks [`EngineSelect::Density`]. Lets dispatchers (the
    /// service) pre-flight forced selections and label telemetry before
    /// committing a sharded sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::EngineMismatch`] when a forced engine
    /// cannot execute the plan: the state-vector engine past
    /// [`MAX_SIM_QUBITS`] qubits, the tableau executor on a `General`
    /// plan, or the Pauli-frame sampler on anything but a
    /// `CliffordTerminal` plan. The density engine's limits surface when
    /// its sweep is prepared, as [`ExecuteError::TooManyQubits`] or
    /// [`ExecuteError::Invalid`].
    pub fn plan_engine(&self, plan: &CompiledProgram) -> Result<EngineSelect, ExecuteError> {
        let class = plan.circuit_class();
        let detail = match self.engine_select {
            EngineSelect::Auto => {
                return Ok(match class {
                    CircuitClass::CliffordTerminal => EngineSelect::PauliFrame,
                    CircuitClass::Clifford => EngineSelect::Tableau,
                    CircuitClass::General => EngineSelect::StateVector,
                })
            }
            EngineSelect::StateVector if plan.qubit_count() > MAX_SIM_QUBITS => format!(
                "plan needs {} qubits but the state-vector engine supports at most {}",
                plan.qubit_count(),
                MAX_SIM_QUBITS
            ),
            EngineSelect::Tableau if plan.stab_ops().is_none() => format!(
                "plan class is {}; the tableau engine requires a Clifford plan",
                class.name()
            ),
            EngineSelect::PauliFrame if class != CircuitClass::CliffordTerminal => format!(
                "plan class is {}; the Pauli-frame sampler requires a \
                 terminally-measured Clifford plan",
                class.name()
            ),
            forced => return Ok(forced),
        };
        Err(ExecuteError::EngineMismatch {
            engine: self.engine_select.name().to_string(),
            detail,
        })
    }

    /// Resolves the engine and does all of a run's once-per-run work, so
    /// that [`Simulator::sweep_range`] pays only per-shot costs.
    fn prepare<'p>(&self, plan: &'p CompiledProgram) -> Result<Sweep<'p>, ExecuteError> {
        let engine = self.plan_engine(plan)?;
        let n = plan.qubit_count();
        let kind = match (engine, plan.stab_ops()) {
            (EngineSelect::Density, _) => self.density_sweep(plan)?,
            // The frame layout falls back to the (bit-identical) tableau
            // when its shape does not qualify or it needs more than 64
            // random variables.
            (EngineSelect::PauliFrame, Some(ops)) => match FrameSampler::build(ops, n) {
                Some(sampler) => SweepKind::Frames(sampler),
                None => SweepKind::Tableau(ops, n),
            },
            (EngineSelect::Tableau, Some(ops)) => SweepKind::Tableau(ops, n),
            (EngineSelect::Tableau | EngineSelect::PauliFrame, None) => {
                return Err(ExecuteError::EngineMismatch {
                    engine: engine.name().to_string(),
                    detail: "plan has no stabilizer lowering".to_string(),
                })
            }
            (EngineSelect::StateVector | EngineSelect::Auto, _) => {
                match plan.sampling_measures().filter(|_| self.sampling_fast_path) {
                    Some(TerminalMeasure::All) => {
                        SweepKind::Table(self.evolve_prefix(plan).cumulative_probabilities())
                    }
                    Some(TerminalMeasure::Run(qs)) => {
                        SweepKind::Cascade(self.evolve_prefix(plan), qs)
                    }
                    None => SweepKind::Interpreter(plan),
                }
            }
        };
        Ok(Sweep { engine, kind })
    }

    /// Records a run's engine and sweep telemetry, and returns the name of
    /// the span its shots execute under.
    fn record_run(&self, plan: &CompiledProgram, sweep: &Sweep, shots: u64) -> &'static str {
        let tel = &self.telemetry;
        if tel.is_enabled() {
            tel.incr_labeled("qxsim.engine", sweep.engine.name(), 1);
            tel.incr_labeled("qxsim.engine.class", plan.circuit_class().name(), 1);
        }
        match &sweep.kind {
            SweepKind::Table(_) => {
                self.record_sweep_decision(plan.qubit_count());
                tel.incr_labeled("qxsim.sampling_fast_path", "hit", 1);
                "sample_shots"
            }
            SweepKind::Cascade(..) => {
                self.record_sweep_decision(plan.qubit_count());
                tel.incr_labeled("qxsim.sampling_fast_path", "hit", 1);
                tel.incr("qxsim.sampling_fast_path.measure_run", 1);
                "sample_shots"
            }
            SweepKind::Interpreter(_) => {
                self.record_sweep_decision(plan.qubit_count());
                tel.incr_labeled("qxsim.sampling_fast_path", "miss", 1);
                "shot_execution"
            }
            SweepKind::Tableau(..) => {
                if sweep.engine == EngineSelect::PauliFrame {
                    tel.incr("qxsim.stab.frame_fallback", 1);
                }
                tel.incr("qxsim.stab.tableau_shots", shots);
                "stab_tableau"
            }
            SweepKind::Frames(_) => {
                tel.incr("qxsim.stab.frame_shots", shots);
                tel.incr("qxsim.stab.frame_words", FrameSampler::words(shots));
                "stab_frames"
            }
            SweepKind::Density { .. } => {
                tel.incr("qxsim.density.runs", 1);
                tel.incr("qxsim.density.shots", shots);
                "density_shots"
            }
        }
    }

    /// Splits shots `0..shots` into `threads` contiguous ranges, sweeps
    /// each on its own scoped thread and merges the partial histograms.
    /// With one thread (or none) the whole range runs inline on the
    /// calling thread.
    fn split(
        &self,
        sweep: &Sweep,
        shots: u64,
        threads: usize,
    ) -> Result<ShotHistogram, ExecuteError> {
        if threads <= 1 {
            return Ok(self.sweep_range(sweep, 0, shots));
        }
        let threads = threads as u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = shots * t / threads;
                    let hi = shots * (t + 1) / threads;
                    scope.spawn(move || self.sweep_range(sweep, lo, hi))
                })
                .collect();
            let mut total = ShotHistogram::new();
            for h in handles {
                total.merge(&h.join().map_err(worker_error)?);
            }
            Ok(total)
        })
    }

    /// Executes shots `lo..hi` of a prepared sweep into a partial
    /// histogram. Each shot consumes its own RNG stream exactly as full
    /// per-shot re-simulation would (see [`SweepKind`]), so disjoint
    /// ranges merge to the single-range histogram in any order.
    fn sweep_range(&self, sweep: &Sweep, lo: u64, hi: u64) -> ShotHistogram {
        let mut hist = ShotHistogram::new();
        match &sweep.kind {
            SweepKind::Table(cum) => {
                // Once a range has at least as many shots as the table has
                // entries, counting into a dense bucket array and folding
                // it once beats a map update per shot.
                if cum.len() <= MAX_BUCKETS && hi.saturating_sub(lo) >= cum.len() as u64 {
                    let mut buckets = vec![0u64; cum.len()];
                    for shot in lo..hi {
                        let r = self.shot_draw(shot);
                        buckets[StateVector::sample_from_cumulative(cum, r) as usize] += 1;
                    }
                    for (bits, &count) in buckets.iter().enumerate() {
                        hist.record_many(bits as u64, count);
                    }
                } else {
                    for shot in lo..hi {
                        hist.record(StateVector::sample_from_cumulative(
                            cum,
                            self.shot_draw(shot),
                        ));
                    }
                }
            }
            SweepKind::Cascade(state, qs) => {
                let mut cascade = MeasureCascade::new(state, qs);
                for shot in lo..hi {
                    hist.record(cascade.sample(&mut self.shot_rng(shot)));
                }
            }
            SweepKind::Interpreter(plan) => {
                let counting = self.telemetry.is_enabled();
                let mut counts: KernelCounts = [0; KernelClass::COUNT];
                for shot in lo..hi {
                    let mut rng = self.shot_rng(shot);
                    let bits = self
                        .run_compiled_counted(plan, &mut rng, counting.then_some(&mut counts))
                        .bits;
                    hist.record(bits);
                }
                self.record_kernel_counts(&counts);
            }
            SweepKind::Tableau(ops, n) => {
                // With telemetry on, one shot in every
                // KERNEL_TIMING_SAMPLE_EVERY is wall-clock timed.
                let timing = self.telemetry.is_enabled();
                for shot in lo..hi {
                    let mut rng = self.shot_rng(shot);
                    let start = (timing && (shot - lo).is_multiple_of(KERNEL_TIMING_SAMPLE_EVERY))
                        .then(Instant::now);
                    let bits = stabilizer::tableau_shot(ops, *n, &mut rng);
                    if let Some(start) = start {
                        self.telemetry.record_value_labeled(
                            "qxsim.stab.shot_ns",
                            "tableau",
                            start.elapsed().as_nanos() as f64,
                        );
                    }
                    hist.record(bits);
                }
            }
            SweepKind::Frames(sampler) => {
                return sampler.sample_range(self.seed, SHOT_SEED_STRIDE, lo, hi)
            }
            SweepKind::Density { cum, targets } => {
                let readout = self.model.readout_error();
                for shot in lo..hi {
                    let mut rng = self.shot_rng(shot);
                    let r: f64 = rng.gen();
                    let pattern = StateVector::sample_from_cumulative(cum, r);
                    let mut bits = 0u64;
                    for (j, &q) in targets.iter().enumerate() {
                        let outcome = (pattern >> j) & 1 == 1;
                        set_bit(&mut bits, q, flip_readout(outcome, readout, &mut rng));
                    }
                    hist.record(bits);
                }
            }
        }
        hist
    }

    /// Records the threads-vs-serial dispatch decision the state-vector
    /// kernels will make for this plan (uniform across a run: it depends
    /// only on the qubit count, the [`par_min_qubits`] threshold and the
    /// probed host parallelism).
    fn record_sweep_decision(&self, qubits: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let threshold = par_min_qubits();
        let kernel_threads = auto_threads();
        let parallel = qubits >= threshold && kernel_threads > 1;
        self.telemetry.incr_labeled(
            "qxsim.parallel_sweep",
            if parallel { "parallel" } else { "serial" },
            1,
        );
        self.telemetry
            .record_value("qxsim.parallel_sweep.qubits", qubits as f64);
        self.telemetry
            .record_value("qxsim.parallel_sweep.par_min_qubits", threshold as f64);
        self.telemetry.record_value(
            "qxsim.parallel_sweep.kernel_threads",
            if parallel { kernel_threads as f64 } else { 1.0 },
        );
    }

    /// Folds a run's kernel-dispatch counts into the telemetry histogram.
    fn record_kernel_counts(&self, counts: &KernelCounts) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (index, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.telemetry.incr_labeled(
                    "qxsim.kernel_dispatch",
                    KernelClass::class_name(index),
                    count,
                );
            }
        }
    }

    /// Folds one compilation's fusion decisions into telemetry: gate counts
    /// entering/leaving the fusion stage plus a histogram of what fused.
    fn record_fusion_stats(&self, stats: &FusionStats) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .incr("qxsim.fusion.gates_before", stats.gates_before);
        self.telemetry
            .incr("qxsim.fusion.gates_after", stats.gates_after);
        self.telemetry
            .incr_labeled("qxsim.fusion", "fused_1q_runs", stats.fused_1q_runs);
        self.telemetry.incr_labeled(
            "qxsim.fusion",
            "fused_diag_batches",
            stats.fused_diag_batches,
        );
        self.telemetry
            .incr_labeled("qxsim.fusion", "fused_blocks", stats.fused_blocks);
        self.telemetry
            .incr_labeled("qxsim.fusion", "fused_1q_layers", stats.fused_1q_layers);
    }

    /// Applies the unitary gate prefix of a sampling-eligible plan to a
    /// fresh zero state, folding the kernel-dispatch counts into telemetry
    /// once.
    fn evolve_prefix(&self, plan: &CompiledProgram) -> StateVector {
        let mut state = StateVector::zero_state(plan.qubit_count());
        let mut counts: KernelCounts = [0; KernelClass::COUNT];
        let counting = self.telemetry.is_enabled();
        for op in plan.ops() {
            if let PlannedOp::Gate(g) = op {
                if counting {
                    let idx = g.kernel.class_index();
                    counts[idx] += 1;
                    if counts[idx] % KERNEL_TIMING_SAMPLE_EVERY == 1 {
                        let start = Instant::now();
                        state.apply_kernel(&g.kernel, &g.qubits);
                        self.telemetry.record_value_labeled(
                            "qxsim.kernel_ns",
                            KernelClass::class_name(idx),
                            start.elapsed().as_nanos() as f64,
                        );
                        continue;
                    }
                }
                state.apply_kernel(&g.kernel, &g.qubits);
            }
        }
        self.record_kernel_counts(&counts);
        state
    }

    /// Prepares a density-matrix sweep: evolves the full density matrix
    /// through the plan's unitary/idle prefix with *exact* channel
    /// semantics (no trajectory sampling), then tabulates the measured
    /// qubits' joint distribution from its diagonal.
    ///
    /// Deterministic per seed (same per-shot streams as the other
    /// engines), but *not* trajectory-compatible: a noisy state-vector run
    /// samples one Kraus branch per shot while this engine averages the
    /// channel exactly, so histograms agree in distribution, not per shot.
    ///
    /// Supported plans: unitary gates, `skip`/`wait` idling, and a terminal
    /// measurement (`measure_all` or a trailing `measure` run) on at most
    /// [`MAX_DENSITY_QUBITS`] qubits. Mid-circuit measurement,
    /// conditionals and `prep_z` would require trajectory branching and
    /// are rejected as [`ExecuteError::Invalid`].
    fn density_sweep(&self, plan: &CompiledProgram) -> Result<SweepKind<'static>, ExecuteError> {
        let n = plan.qubit_count();
        if n > MAX_DENSITY_QUBITS {
            return Err(ExecuteError::TooManyQubits {
                needed: n,
                max: MAX_DENSITY_QUBITS,
            });
        }
        let (targets, suffix_len) = match plan.terminal_measurement() {
            Some(TerminalMeasure::All) => ((0..n).collect::<Vec<_>>(), 1),
            Some(TerminalMeasure::Run(qs)) => (qs.clone(), qs.len()),
            None => {
                return Err(ExecuteError::Invalid(
                    "density engine requires a program ending in measurements".to_string(),
                ))
            }
        };
        // A run can repeat a qubit, so its length (not the register size)
        // bounds the pattern table.
        if targets.len() > 2 * MAX_DENSITY_QUBITS {
            return Err(ExecuteError::Invalid(
                "terminal measure run too long for the density engine".to_string(),
            ));
        }
        let mut rho = DensityMatrix::zero_state(n);
        let idle = self.model.idle_channel();
        for op in &plan.ops()[..plan.ops().len() - suffix_len] {
            match op {
                PlannedOp::Gate(g) => {
                    match kernel_unitary(&g.kernel) {
                        Some(KernelUnitary::Identity) => {}
                        Some(KernelUnitary::One(m)) => rho.apply_1q(&m, g.qubits[0]),
                        Some(KernelUnitary::Two(m)) => rho.apply_2q(&m, g.qubits[0], g.qubits[1]),
                        Some(KernelUnitary::Diag(d)) => rho.apply_fused_diag(&d, &g.qubits),
                        Some(KernelUnitary::Block(b)) => rho.apply_block(&b, &g.qubits),
                        None => {
                            return Err(ExecuteError::Invalid(
                                "density engine cannot apply three-qubit kernels; decompose first"
                                    .to_string(),
                            ))
                        }
                    }
                    let channel = self.model.gate_channel(g.arity);
                    if !channel.is_none() {
                        for &q in &g.qubits {
                            rho.apply_channel(&channel, q);
                        }
                    }
                }
                PlannedOp::Idle(mask) => {
                    for q in 0..n {
                        if (mask >> q) & 1 == 1 {
                            rho.apply_channel(&idle, q);
                        }
                    }
                }
                PlannedOp::Wait(cycles) => {
                    for _ in 0..*cycles {
                        for q in 0..n {
                            rho.apply_channel(&idle, q);
                        }
                    }
                }
                PlannedOp::PrepZ(_)
                | PlannedOp::Measure(_)
                | PlannedOp::MeasureAll
                | PlannedOp::Cond(..) => {
                    return Err(ExecuteError::Invalid(
                        "density engine supports only unitary and idle operations before the \
                         terminal measurement"
                            .to_string(),
                    ))
                }
            }
        }
        // Marginalise the diagonal onto the measured qubits: pattern bit
        // `j` is the outcome of `targets[j]` (for `measure_all`, the
        // pattern is the basis state itself).
        let mut joint = vec![0.0f64; 1usize << targets.len()];
        for (basis, p) in rho.diagonal_probabilities().iter().enumerate() {
            let mut pattern = 0usize;
            for (j, &q) in targets.iter().enumerate() {
                pattern |= ((basis >> q) & 1) << j;
            }
            joint[pattern] += p;
        }
        Ok(SweepKind::Density {
            cum: cumulative(&joint),
            targets,
        })
    }

    /// The RNG stream for shot `shot` of a multi-shot run.
    fn shot_rng(&self, shot: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_add(shot.wrapping_mul(SHOT_SEED_STRIDE)))
    }

    /// The first `f64` of shot `shot`'s stream, identical to
    /// `self.shot_rng(shot).gen::<f64>()` but skipping the unused half of
    /// the generator state. The terminal-sampling fast path consumes
    /// exactly this one draw per shot (the draw `measure_all` would make).
    #[inline]
    fn shot_draw(&self, shot: u64) -> f64 {
        StdRng::first_f64(self.seed.wrapping_add(shot.wrapping_mul(SHOT_SEED_STRIDE)))
    }

    /// Executes a compiled plan once with the given RNG (the full
    /// interpreter path, used for single runs and noisy/measure-heavy
    /// programs).
    pub fn run_compiled<R: Rng + ?Sized>(&self, plan: &CompiledProgram, rng: &mut R) -> ShotResult {
        self.run_compiled_counted(plan, rng, None)
    }

    /// [`Simulator::run_compiled`] with optional kernel-dispatch counting.
    /// `counts` is `None` when telemetry is disabled, so the per-gate cost
    /// of the instrumentation is a single `Option` branch.
    fn run_compiled_counted<R: Rng + ?Sized>(
        &self,
        plan: &CompiledProgram,
        rng: &mut R,
        mut counts: Option<&mut KernelCounts>,
    ) -> ShotResult {
        let n = plan.qubit_count();
        let mut state = StateVector::zero_state(n);
        let mut bits: u64 = 0;
        for op in plan.ops() {
            match op {
                PlannedOp::PrepZ(q) => state.reset(*q, rng),
                PlannedOp::Gate(g) => {
                    self.dispatch_gate(&mut state, g, rng, counts.as_deref_mut());
                }
                PlannedOp::Cond(bit, g) => {
                    if (bits >> bit) & 1 == 1 {
                        self.dispatch_gate(&mut state, g, rng, counts.as_deref_mut());
                    }
                }
                PlannedOp::Measure(q) => {
                    let outcome = state.measure(*q, rng);
                    let reported = flip_readout(outcome, self.model.readout_error(), rng);
                    set_bit(&mut bits, *q, reported);
                }
                PlannedOp::MeasureAll => {
                    let basis = state.measure_all(rng);
                    for q in 0..n {
                        let outcome = (basis >> q) & 1 == 1;
                        let reported = flip_readout(outcome, self.model.readout_error(), rng);
                        set_bit(&mut bits, q, reported);
                    }
                }
                PlannedOp::Idle(mask) => {
                    let idle = self.model.idle_channel();
                    for q in 0..n {
                        if (mask >> q) & 1 == 1 {
                            idle.apply(&mut state, q, rng);
                        }
                    }
                }
                PlannedOp::Wait(cycles) => {
                    let idle = self.model.idle_channel();
                    for _ in 0..*cycles {
                        for q in 0..n {
                            idle.apply(&mut state, q, rng);
                        }
                    }
                }
            }
        }
        ShotResult { state, bits }
    }

    /// Applies one planned gate, counting its dispatch and — on every
    /// [`KERNEL_TIMING_SAMPLE_EVERY`]-th dispatch of its class — timing the
    /// application into the per-class latency series. `counts` is `None`
    /// when telemetry is disabled, making both instrumentation points free.
    fn dispatch_gate<R: Rng + ?Sized>(
        &self,
        state: &mut StateVector,
        g: &PlannedGate,
        rng: &mut R,
        counts: Option<&mut KernelCounts>,
    ) {
        if let Some(c) = counts {
            let idx = g.kernel.class_index();
            c[idx] += 1;
            if c[idx] % KERNEL_TIMING_SAMPLE_EVERY == 1 {
                let start = Instant::now();
                self.apply_planned_gate(state, g, rng);
                self.telemetry.record_value_labeled(
                    "qxsim.kernel_ns",
                    KernelClass::class_name(idx),
                    start.elapsed().as_nanos() as f64,
                );
                return;
            }
        }
        self.apply_planned_gate(state, g, rng);
    }

    fn apply_planned_gate<R: Rng + ?Sized>(
        &self,
        state: &mut StateVector,
        g: &PlannedGate,
        rng: &mut R,
    ) {
        state.apply_kernel(&g.kernel, &g.qubits);
        let channel = self.model.gate_channel(g.arity);
        if !channel.is_none() {
            for &q in &g.qubits {
                channel.apply(state, q, rng);
            }
        }
    }
}

/// One run's prepared sweep: the resolved engine plus everything its shots
/// share. Built once by [`Simulator::prepare`], then executed range by
/// range by [`Simulator::sweep_range`] — inline, across threads, or across
/// the serving layer's shards.
struct Sweep<'p> {
    /// The resolved engine. A Pauli-frame selection keeps its name when
    /// its layout falls back to the tableau.
    engine: EngineSelect,
    kind: SweepKind<'p>,
}

/// What a [`Sweep`] executes per shot.
enum SweepKind<'p> {
    /// A noise-free plan ending in `measure_all`: the cumulative
    /// probability table of the evolved prefix. A full shot would apply
    /// the same gates with no RNG draws, then consume exactly one `f64`
    /// inside `measure_all` (readout is exact, so `flip_readout` draws
    /// nothing); the binary search on the table returns the same basis
    /// state for that draw as the linear accumulation scan.
    Table(Vec<f64>),
    /// A noise-free plan ending in a per-qubit `measure` run: the evolved
    /// prefix state, replayed per shot through a [`MeasureCascade`], which
    /// computes each conditional probability by the interpreter's own
    /// collapse chain and consumes the same `gen_bool` draws.
    Cascade(StateVector, &'p [usize]),
    /// Any other state-vector plan (noisy, mid-circuit measurement,
    /// feedback, or the fast path switched off): the per-shot interpreter.
    Interpreter(&'p CompiledProgram),
    /// A Clifford plan's stabilizer lowering and qubit count, run per shot
    /// on a fresh CHP tableau.
    Tableau(&'p [StabOp], usize),
    /// A `CliffordTerminal` plan's bit-packed Pauli-frame layout.
    Frames(FrameSampler),
    /// The exact density-matrix engine: the cumulative joint distribution
    /// of the measured qubits, where pattern bit `j` reports register bit
    /// `targets[j]`. Each shot draws one `f64` for the pattern, then one
    /// readout flip per measured qubit.
    Density { cum: Vec<f64>, targets: Vec<usize> },
}

/// Lazily-memoised conditional measurement probabilities for a terminal
/// per-qubit `measure` run over a frozen pre-measurement state.
///
/// Sampling a run of `k` measurements walks a binary outcome tree of depth
/// `k`; each node's one-probability is computed once — by replaying the
/// exact collapse chain full re-simulation would perform for that outcome
/// prefix — and memoised under `(depth, prefix)`. Shots then only pay one
/// `HashMap` probe and one RNG draw per measured qubit. The run length is
/// capped at [`crate::plan::MAX_MEASURE_RUN_SAMPLING`] = 64 by plan
/// analysis (prefixes pack into a `u64`); since the outcome tree of a long
/// run can far exceed memory, the memo table is pruned on demand — cleared
/// when it reaches [`MAX_CASCADE_ENTRIES`] — trading recomputation for a
/// hard memory bound. Pruning is pure cache management: every probability
/// is recomputed by the identical collapse replay, so results are
/// unaffected.
struct MeasureCascade<'a> {
    base: &'a StateVector,
    qs: &'a [usize],
    /// `(depth, outcome-prefix bits)` → `P(qs[depth] = 1 | prefix)`.
    cache: HashMap<(usize, u64), f64>,
}

/// Memo-table bound for [`MeasureCascade`]: at `2^16` entries (~1.5 MiB)
/// the cache is cleared and rebuilt from the shots that follow.
const MAX_CASCADE_ENTRIES: usize = 1 << 16;

impl<'a> MeasureCascade<'a> {
    fn new(base: &'a StateVector, qs: &'a [usize]) -> Self {
        MeasureCascade {
            base,
            qs,
            cache: HashMap::new(),
        }
    }

    /// `P(qs[depth] = 1)` given the first `depth` outcomes in `prefix`
    /// (bit `i` of `prefix` = outcome of `qs[i]`), computed exactly as a
    /// full per-shot simulation would: collapse the measured qubits in
    /// order on a clone of the frozen state, then read the probability.
    fn p1(&mut self, depth: usize, prefix: u64) -> f64 {
        if let Some(&p) = self.cache.get(&(depth, prefix)) {
            return p;
        }
        let mut state = self.base.clone();
        for (i, &q) in self.qs[..depth].iter().enumerate() {
            state.collapse(q, (prefix >> i) & 1 == 1);
        }
        let p = state.probability_one(self.qs[depth]);
        if self.cache.len() >= MAX_CASCADE_ENTRIES {
            self.cache.clear();
        }
        self.cache.insert((depth, prefix), p);
        p
    }

    /// Draws one shot's classical bits, consuming exactly one `f64` from
    /// `rng` per measured qubit — the same draws, in the same order, as
    /// the full interpreter's `measure` handling.
    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let mut bits = 0u64;
        let mut prefix = 0u64;
        for depth in 0..self.qs.len() {
            let p1 = self.p1(depth, prefix);
            let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
            set_bit(&mut bits, self.qs[depth], outcome);
            if outcome {
                prefix |= 1 << depth;
            }
        }
        bits
    }
}

/// Running cumulative sum of a probability vector, for binary-search
/// sampling via [`StateVector::sample_from_cumulative`].
fn cumulative(probs: &[f64]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in probs {
        acc += p;
        cum.push(acc);
    }
    cum
}

/// Converts a worker thread's panic payload into a typed error so a dead
/// worker degrades into `Err(ExecuteError::Worker)` instead of aborting
/// the caller.
fn worker_error(payload: Box<dyn std::any::Any + Send>) -> ExecuteError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked with non-string payload".to_string());
    ExecuteError::Worker(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqasm::{GateKind, Instruction};

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    #[test]
    fn bell_pair_correlations() {
        let hist = Simulator::perfect().run_shots(&bell(), 500).unwrap();
        assert_eq!(hist.count(0b01), 0);
        assert_eq!(hist.count(0b10), 0);
        let p00 = hist.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.1, "p00 = {p00}");
    }

    #[test]
    fn deterministic_per_seed() {
        let sim = Simulator::perfect().with_seed(99);
        let a = sim.run_shots(&bell(), 50).unwrap();
        let b = sim.run_shots(&bell(), 50).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn conditional_gate_uses_measured_bit() {
        // Teleport-like: measure q0 after H, then flip q1 iff b0 == 1.
        // Final q1 always equals the measured bit; so b1 after measuring q1
        // equals b0.
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .instruction(Instruction::Cond(
                cqasm::Bit(0),
                cqasm::GateApp::new(GateKind::X, vec![cqasm::Qubit(1)]),
            ))
            .measure(1)
            .build();
        let hist = Simulator::perfect().run_shots(&p, 300).unwrap();
        for (bits, _) in hist.iter() {
            assert_eq!(bits & 1, (bits >> 1) & 1, "bits disagree: {bits:02b}");
        }
        // Both branches occur.
        assert!(hist.count(0b00) > 0 && hist.count(0b11) > 0);
    }

    #[test]
    fn prep_z_resets_mid_circuit() {
        let p = Program::builder(1)
            .gate(GateKind::X, &[0])
            .prep_z(0)
            .measure(0)
            .build();
        let hist = Simulator::perfect().run_shots(&p, 100).unwrap();
        assert_eq!(hist.count(1), 0);
    }

    #[test]
    fn readout_error_flips_outcomes() {
        let p = Program::builder(1).measure(0).build();
        let model = QubitModel::realistic_depolarizing(0.0, 0.0, 0.2);
        let hist = Simulator::with_model(model).run_shots(&p, 2000).unwrap();
        let rate = hist.probability(1);
        assert!((rate - 0.2).abs() < 0.05, "readout flip rate {rate}");
    }

    #[test]
    fn noisy_ghz_loses_parity() {
        let mut b = Program::builder(4).gate(GateKind::H, &[0]);
        for q in 0..3 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        let p = b.measure_all().build();
        let noisy = Simulator::with_model(QubitModel::realistic_depolarizing(0.05, 0.05, 0.0));
        let hist = noisy.run_shots(&p, 500).unwrap();
        // With 5% depolarizing on every operand, states other than the GHZ
        // branches must appear.
        let ghz_only = hist.count(0b0000) + hist.count(0b1111);
        assert!(ghz_only < hist.shots(), "noise produced no deviation");
        // But the GHZ branches still dominate.
        assert!(ghz_only > hist.shots() / 2);
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = Program::new(1);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::H, &[3]));
        p.push_subcircuit(s);
        assert!(matches!(
            Simulator::perfect().run_shots(&p, 1),
            Err(ExecuteError::Invalid(_))
        ));
    }

    #[test]
    fn wait_applies_idle_decay() {
        let model = QubitModel::Realistic(crate::qubit_model::RealisticParams {
            channel_1q: crate::error_model::ErrorChannel::None,
            channel_2q: crate::error_model::ErrorChannel::None,
            readout_error: 0.0,
            idle_channel: crate::error_model::ErrorChannel::AmplitudeDamping { gamma: 0.5 },
        });
        let p = Program::builder(1)
            .gate(GateKind::X, &[0])
            .instruction(Instruction::Wait(3))
            .measure(0)
            .build();
        let hist = Simulator::with_model(model).run_shots(&p, 1000).unwrap();
        // Survival after 3 cycles of gamma=0.5 damping: 0.125.
        let survive = hist.probability(1);
        assert!((survive - 0.125).abs() < 0.05, "survival = {survive}");
    }

    #[test]
    fn run_once_returns_state() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .build();
        let r = Simulator::perfect().run_once(&p).unwrap();
        assert!((r.state.probability_of(0b00) - 0.5).abs() < 1e-10);
        assert_eq!(r.bits, 0);
    }

    #[test]
    fn compile_once_run_many() {
        let sim = Simulator::perfect().with_seed(5);
        let plan = sim.compile(&bell()).unwrap();
        let mut hist = ShotHistogram::new();
        for shot in 0..100 {
            let mut rng = sim.shot_rng(shot);
            hist.record(sim.run_compiled(&plan, &mut rng).bits);
        }
        assert_eq!(hist, sim.run_shots(&bell(), 100).unwrap());
    }
}

#[cfg(test)]
mod error_model_directive_tests {
    use super::*;

    #[test]
    fn program_error_model_drives_the_simulator() {
        let noisy = Program::parse(
            "qubits 1\nerror_model depolarizing_channel, 0.2\nx q[0]\nmeasure q[0]\n",
        )
        .unwrap();
        let sim = Simulator::for_program(&noisy);
        assert!(sim.model().is_noisy());
        let hist = sim.run_shots(&noisy, 2000).unwrap();
        // Depolarizing at 0.2 flips the X outcome in a visible fraction.
        let wrong = hist.probability(0);
        assert!(wrong > 0.05 && wrong < 0.3, "wrong-rate {wrong}");
    }

    #[test]
    fn absent_or_unknown_models_mean_perfect() {
        let clean = Program::parse("qubits 1\nx q[0]\nmeasure q[0]\n").unwrap();
        assert!(!Simulator::for_program(&clean).model().is_noisy());
        let odd = Program::parse("qubits 1\nerror_model martian_noise, 0.5\nx q[0]\n").unwrap();
        assert!(!Simulator::for_program(&odd).model().is_noisy());
    }

    #[test]
    fn readout_parameter_is_honoured() {
        let p =
            Program::parse("qubits 1\nerror_model depolarizing_channel, 0.0, 0.25\nmeasure q[0]\n")
                .unwrap();
        let hist = Simulator::for_program(&p).run_shots(&p, 2000).unwrap();
        let flipped = hist.probability(1);
        assert!((flipped - 0.25).abs() < 0.04, "readout flip rate {flipped}");
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use cqasm::{GateKind, Instruction};

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    #[test]
    fn parallel_result_is_independent_of_thread_count() {
        let sim = Simulator::perfect().with_seed(77);
        let h1 = sim
            .run_shots_planned(&sim.compile(&bell()).unwrap(), 400, 1)
            .unwrap();
        let h4 = sim
            .run_shots_planned(&sim.compile(&bell()).unwrap(), 400, 4)
            .unwrap();
        let h7 = sim
            .run_shots_planned(&sim.compile(&bell()).unwrap(), 400, 7)
            .unwrap();
        assert_eq!(h1, h4);
        assert_eq!(h4, h7);
    }

    #[test]
    fn sequential_equals_parallel() {
        // One thread and five share per-shot RNG streams, for noisy (full
        // interpreter) programs too.
        let noisy = Simulator::with_model(QubitModel::realistic_depolarizing(0.02, 0.05, 0.01))
            .with_seed(11);
        let hs = noisy.run_shots(&bell(), 300).unwrap();
        let hp = noisy
            .run_shots_planned(&noisy.compile(&bell()).unwrap(), 300, 5)
            .unwrap();
        assert_eq!(hs, hp);
    }

    #[test]
    fn parallel_statistics_match_physics() {
        let sim = Simulator::perfect().with_seed(3);
        let h = sim
            .run_shots_planned(&sim.compile(&bell()).unwrap(), 2000, 4)
            .unwrap();
        assert_eq!(h.shots(), 2000);
        assert_eq!(h.count(0b01) + h.count(0b10), 0);
        let p00 = h.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn parallel_rejects_invalid_programs() {
        let mut p = Program::new(1);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::H, &[5]));
        p.push_subcircuit(s);
        assert!(matches!(
            Simulator::perfect().compile(&p),
            Err(ExecuteError::Invalid(_))
        ));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let sim = Simulator::perfect();
        let h = sim
            .run_shots_planned(&sim.compile(&bell()).unwrap(), 10, 0)
            .unwrap();
        assert_eq!(h.shots(), 10);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::*;
    use cqasm::GateKind;

    fn ghz(n: usize) -> Program {
        let mut b = Program::builder(n).gate(GateKind::H, &[0]);
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        b.measure_all().build()
    }

    /// The load-bearing regression test for the sampling fast path: for a
    /// Bell pair and a 10-qubit GHZ state, drawing shots from the frozen
    /// final distribution must produce the *identical* histogram (same
    /// outcome for every shot index) as re-simulating each shot from
    /// scratch.
    #[test]
    fn sampling_fast_path_matches_full_resimulation() {
        let bell = {
            Program::builder(2)
                .gate(GateKind::H, &[0])
                .gate(GateKind::Cnot, &[0, 1])
                .measure_all()
                .build()
        };
        for (name, p) in [("bell", bell), ("ghz10", ghz(10))] {
            let fast = Simulator::perfect().with_seed(123);
            let slow = fast.clone().with_sampling_fast_path(false);
            assert!(fast.compile(&p).unwrap().terminal_sampling(), "{name}");
            let hf = fast.run_shots(&p, 2000).unwrap();
            let hs = slow.run_shots(&p, 2000).unwrap();
            assert_eq!(hf, hs, "{name}: fast path diverged from re-simulation");
        }
    }

    #[test]
    fn fast_path_is_thread_count_independent() {
        let sim = Simulator::perfect().with_seed(9);
        let p = ghz(6);
        let h1 = sim
            .run_shots_planned(&sim.compile(&p).unwrap(), 1000, 1)
            .unwrap();
        let h3 = sim
            .run_shots_planned(&sim.compile(&p).unwrap(), 1000, 3)
            .unwrap();
        assert_eq!(h1, h3);
    }

    #[test]
    fn fast_path_not_taken_for_noisy_models() {
        let sim = Simulator::with_model(QubitModel::realistic_depolarizing(0.01, 0.01, 0.0));
        let plan = sim.compile(&ghz(3)).unwrap();
        assert!(!plan.terminal_sampling());
    }

    #[test]
    fn ghz_statistics_through_the_fast_path() {
        let p = ghz(10);
        let h = Simulator::perfect().run_shots(&p, 2000).unwrap();
        assert_eq!(h.count(0) + h.count((1 << 10) - 1), 2000);
        let p0 = h.probability(0);
        assert!((p0 - 0.5).abs() < 0.05, "p0 = {p0}");
    }
}

#[cfg(test)]
mod measure_run_fast_path_tests {
    use super::*;
    use crate::plan::{TerminalMeasure, MAX_MEASURE_RUN_SAMPLING};
    use cqasm::GateKind;

    /// A Bell pair measured qubit-by-qubit (not `measure_all`): the shape
    /// the measure-run fast path targets.
    fn bell_measured() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure(0)
            .measure(1)
            .build()
    }

    /// The load-bearing equivalence test for the satellite: sampling a
    /// terminal per-qubit measure run must reproduce full per-shot
    /// re-simulation bit for bit.
    #[test]
    fn measure_run_fast_path_matches_full_resimulation() {
        let ghz_measured = {
            let mut b = Program::builder(5).gate(GateKind::H, &[0]);
            for q in 0..4 {
                b = b.gate(GateKind::Cnot, &[q, q + 1]);
            }
            // Measure in scrambled order to exercise non-trivial cascades.
            b.measure(3)
                .measure(0)
                .measure(4)
                .measure(1)
                .measure(2)
                .build()
        };
        for (name, p) in [("bell", bell_measured()), ("ghz5", ghz_measured)] {
            let fast = Simulator::perfect().with_seed(123);
            let slow = fast.clone().with_sampling_fast_path(false);
            assert!(fast.compile(&p).unwrap().terminal_sampling(), "{name}");
            let hf = fast.run_shots(&p, 2000).unwrap();
            let hs = slow.run_shots(&p, 2000).unwrap();
            assert_eq!(hf, hs, "{name}: measure-run fast path diverged");
        }
    }

    #[test]
    fn measure_run_fast_path_is_thread_count_independent() {
        let sim = Simulator::perfect().with_seed(9);
        let p = bell_measured();
        let h1 = sim
            .run_shots_planned(&sim.compile(&p).unwrap(), 1000, 1)
            .unwrap();
        let h4 = sim
            .run_shots_planned(&sim.compile(&p).unwrap(), 1000, 4)
            .unwrap();
        assert_eq!(h1, h4);
    }

    #[test]
    fn partial_measure_run_leaves_unmeasured_bits_clear() {
        // Only q1 is measured; bit 0 must stay 0.
        let p = Program::builder(2)
            .gate(GateKind::X, &[1])
            .measure(1)
            .build();
        let hist = Simulator::perfect().run_shots(&p, 50).unwrap();
        assert_eq!(hist.count(0b10), 50);
    }

    #[test]
    fn repeated_qubit_in_run_agrees_with_itself() {
        let p = Program::builder(1)
            .gate(GateKind::H, &[0])
            .measure(0)
            .measure(0)
            .build();
        let fast = Simulator::perfect().with_seed(7);
        let slow = fast.clone().with_sampling_fast_path(false);
        assert_eq!(
            fast.run_shots(&p, 500).unwrap(),
            slow.run_shots(&p, 500).unwrap()
        );
    }

    /// The `MAX_MEASURE_RUN_SAMPLING = 64` boundary: the cap is on run
    /// *length* (outcome prefixes pack into a `u64`), not register width,
    /// so a repeated-measure run probes it cheaply. 63- and 64-long runs
    /// still sample, a 65-long run falls back to the interpreter, and both
    /// paths agree bit for bit on either side of the edge.
    #[test]
    fn measure_run_sampling_boundary_at_64() {
        for len in [63usize, 64, 65] {
            let mut b = Program::builder(2)
                .gate(GateKind::H, &[0])
                .gate(GateKind::Cnot, &[0, 1]);
            for i in 0..len {
                b = b.measure(i % 2);
            }
            let p = b.build();
            let fast = Simulator::perfect().with_seed(0xBEEF + len as u64);
            let slow = fast.clone().with_sampling_fast_path(false);
            let plan = fast.compile(&p).unwrap();
            assert_eq!(
                plan.terminal_sampling(),
                len <= MAX_MEASURE_RUN_SAMPLING,
                "len = {len}: fast-path eligibility at the boundary"
            );
            assert!(matches!(
                plan.terminal_measurement(),
                Some(TerminalMeasure::Run(qs)) if qs.len() == len
            ));
            let hf = fast.run_shots(&p, 8).unwrap();
            let hs = slow.run_shots(&p, 8).unwrap();
            assert_eq!(hf, hs, "len = {len}: paths diverged at the boundary");
        }
    }

    /// The lifted ceiling in action: a 20-qubit register measured qubit by
    /// qubit used to fall back to per-shot interpretation (old cap: 16);
    /// it now samples, and still matches the interpreter bit for bit.
    #[test]
    fn wide_measure_runs_take_the_fast_path() {
        let n = 20;
        let mut b = Program::builder(n).gate(GateKind::H, &[0]);
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        for q in 0..n {
            b = b.measure(q);
        }
        let p = b.build();
        let fast = Simulator::perfect().with_seed(42);
        let slow = fast.clone().with_sampling_fast_path(false);
        assert!(fast.compile(&p).unwrap().terminal_sampling());
        // Few shots: the slow side re-simulates a 2^20 state per shot.
        let hf = fast.run_shots(&p, 6).unwrap();
        let hs = slow.run_shots(&p, 6).unwrap();
        assert_eq!(hf, hs);
    }
}

#[cfg(test)]
mod fusion_execution_tests {
    use super::*;
    use cqasm::GateKind;

    /// A program exercising every fusion shape *and* every fusion barrier:
    /// 1q runs, a diagonal chain, a Toffoli cluster, a mid-circuit
    /// measurement and a conditional.
    fn stress(n: usize) -> Program {
        let mut b = Program::builder(n);
        for q in 0..n {
            b = b.gate(GateKind::H, &[q]);
        }
        b = b
            .gate(GateKind::T, &[0])
            .gate(GateKind::S, &[0])
            .gate(GateKind::Cz, &[0, 1])
            .gate(GateKind::CRk(2), &[1, 2])
            .gate(GateKind::Rz(0.3), &[1])
            .gate(GateKind::Toffoli, &[0, 1, 2])
            .gate(GateKind::Cnot, &[1, 2])
            .measure(0)
            .cond(0, GateKind::X, &[1])
            .gate(GateKind::H, &[2])
            .gate(GateKind::H, &[1]);
        b.measure_all().build()
    }

    /// Fused and unfused plans of the same program produce the same
    /// histogram under the same seed, through both the interpreter and the
    /// (non-)fast paths. Fusion is exact kernel composition, so the seeded
    /// outcome streams coincide.
    #[test]
    fn fused_and_unfused_plans_agree() {
        let p = stress(4);
        for fast_path in [true, false] {
            let fused = Simulator::perfect()
                .with_seed(99)
                .with_sampling_fast_path(fast_path);
            let unfused = fused.clone().with_fusion(false);
            let plan_f = fused.compile(&p).unwrap();
            let plan_u = unfused.compile(&p).unwrap();
            assert!(plan_f.fusion_stats().gates_after < plan_f.fusion_stats().gates_before);
            assert_eq!(plan_u.fusion_stats(), Default::default());
            let hf = fused.run_shots_planned(&plan_f, 500, 2).unwrap();
            let hu = unfused.run_shots_planned(&plan_u, 500, 2).unwrap();
            assert_eq!(hf, hu, "fast_path = {fast_path}");
        }
    }

    /// Fused plans run under realistic noise only when fusion was already
    /// suppressed at compile time — the channel-per-gate semantics must
    /// not change. The noisy histogram therefore matches a simulator with
    /// fusion explicitly off, shot for shot.
    #[test]
    fn noisy_runs_are_unchanged_by_the_fusion_flag() {
        let p = stress(3);
        let noisy = Simulator::with_model(QubitModel::realistic_depolarizing(0.02, 0.03, 0.01))
            .with_seed(7);
        let plan = noisy.compile(&p).unwrap();
        assert_eq!(plan.fusion_stats(), Default::default());
        let h_on = noisy.run_shots(&p, 300).unwrap();
        let h_off = noisy.clone().with_fusion(false).run_shots(&p, 300).unwrap();
        assert_eq!(h_on, h_off);
    }

    /// The density engine replays fused plans through `kernel_unitary`:
    /// 1q/2q fused kernels convert exactly, so density statistics match
    /// the state-vector engine on a fused diagonal-heavy program.
    #[test]
    fn density_engine_accepts_fused_two_qubit_kernels() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::H, &[1])
            .gate(GateKind::T, &[0])
            .gate(GateKind::Cz, &[0, 1])
            .gate(GateKind::CRk(2), &[0, 1])
            .gate(GateKind::H, &[1])
            .measure_all()
            .build();
        let sim = Simulator::perfect().with_seed(5);
        let plan = sim.compile(&p).unwrap();
        assert!(plan.fusion_stats().fused_diag_batches >= 1);
        let hd = sim
            .clone()
            .with_engine_select(EngineSelect::Density)
            .run_shots_planned(&plan, 2000, 1)
            .unwrap();
        let hs = sim.run_shots(&p, 2000).unwrap();
        for bits in 0..4u64 {
            assert!(
                (hd.probability(bits) - hs.probability(bits)).abs() < 0.05,
                "bits = {bits:02b}"
            );
        }
    }

    /// Kernel timing is sampled into `qxsim.kernel_ns.<class>` series when
    /// telemetry is attached.
    #[test]
    fn kernel_timing_series_are_recorded() {
        let tel = Telemetry::enabled();
        let sim = Simulator::perfect()
            .with_telemetry(tel.clone())
            .with_sampling_fast_path(false);
        let p = stress(3);
        sim.run_shots(&p, 50).unwrap();
        let snap = tel.snapshot();
        assert!(
            snap.values
                .keys()
                .any(|k| k.starts_with("qxsim.kernel_ns.")),
            "no kernel timing series in {:?}",
            snap.values.keys().collect::<Vec<_>>()
        );
    }

    /// Compilation folds fusion decisions into telemetry counters.
    #[test]
    fn fusion_stats_reach_telemetry() {
        let tel = Telemetry::enabled();
        let sim = Simulator::perfect().with_telemetry(tel.clone());
        sim.compile(&stress(3)).unwrap();
        let snap = tel.snapshot();
        assert!(snap.counters.get("qxsim.fusion.gates_before").copied() > Some(0));
        assert!(snap.counters.contains_key("qxsim.fusion.gates_after"));
    }
}

#[cfg(test)]
mod plan_reuse_tests {
    use super::*;
    use cqasm::GateKind;

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    #[test]
    fn planned_run_equals_fresh_run() {
        let sim = Simulator::perfect().with_seed(31);
        let plan = sim.compile(&bell()).unwrap();
        let planned = sim.run_shots_planned(&plan, 400, 2).unwrap();
        let fresh = sim.run_shots(&bell(), 400).unwrap();
        assert_eq!(planned, fresh);
    }

    #[test]
    fn shot_range_shards_merge_to_the_full_run() {
        // Any disjoint cover of 0..shots merges to the single-call
        // histogram — fast path, measure-run path and interpreter path.
        let programs = [
            bell(),
            Program::builder(2)
                .gate(GateKind::H, &[0])
                .gate(GateKind::Cnot, &[0, 1])
                .measure(0)
                .measure(1)
                .build(),
        ];
        let sims = [
            Simulator::perfect().with_seed(5),
            Simulator::with_model(QubitModel::realistic_depolarizing(0.02, 0.02, 0.01))
                .with_seed(5),
        ];
        for p in &programs {
            for sim in &sims {
                let plan = sim.compile(p).unwrap();
                let whole = sim.run_shots_planned(&plan, 300, 1).unwrap();
                let mut merged = ShotHistogram::new();
                for (lo, hi) in [(120, 300), (0, 77), (77, 120)] {
                    merged.merge(&sim.run_shot_range(&plan, lo, hi).unwrap());
                }
                assert_eq!(merged, whole);
            }
        }
    }

    #[test]
    fn empty_shot_range_is_empty() {
        let sim = Simulator::perfect();
        let plan = sim.compile(&bell()).unwrap();
        assert_eq!(sim.run_shot_range(&plan, 10, 10).unwrap().shots(), 0);
    }

    #[test]
    fn planned_run_applies_fault_injection() {
        let sim = Simulator::perfect().with_fault_injection(FaultInjection {
            shot_budget: None,
            fail_at_shot: Some(3),
        });
        let plan = sim.compile(&bell()).unwrap();
        assert_eq!(
            sim.run_shots_planned(&plan, 100, 1),
            Err(ExecuteError::InjectedFault { shot: 3 })
        );
    }
}

#[cfg(test)]
mod density_engine_tests {
    use super::*;
    use cqasm::GateKind;

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    fn density(model: QubitModel) -> Simulator {
        Simulator::with_model(model).with_engine_select(EngineSelect::Density)
    }

    #[test]
    fn density_bell_matches_state_vector_statistics() {
        let hist = density(QubitModel::Perfect)
            .run_shots(&bell(), 2000)
            .unwrap();
        assert_eq!(hist.count(0b01) + hist.count(0b10), 0);
        let p00 = hist.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn density_is_deterministic_per_seed() {
        let sim = density(QubitModel::Perfect).with_seed(17);
        assert_eq!(
            sim.run_shots(&bell(), 300).unwrap(),
            sim.run_shots(&bell(), 300).unwrap()
        );
    }

    #[test]
    fn density_measure_run_marginalises_correctly() {
        // |+>|1>: measuring q1 then q0 — q1 always 1, q0 uniform.
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::X, &[1])
            .measure(1)
            .measure(0)
            .build();
        let hist = density(QubitModel::Perfect).run_shots(&p, 1000).unwrap();
        assert_eq!(hist.count(0b00) + hist.count(0b01), 0);
        let p10 = hist.probability(0b10);
        assert!((p10 - 0.5).abs() < 0.06, "p10 = {p10}");
    }

    #[test]
    fn density_noise_is_exact_not_sampled() {
        // Depolarizing at p on X|0> leaves P(1) = 1 - 2p/3 exactly; the
        // density engine must land near it even with heavy noise.
        let p = Program::builder(1)
            .gate(GateKind::X, &[0])
            .measure(0)
            .build();
        let sim = density(QubitModel::realistic_depolarizing(0.3, 0.0, 0.0));
        let hist = sim.run_shots(&p, 4000).unwrap();
        let p1 = hist.probability(1);
        assert!((p1 - 0.8).abs() < 0.03, "p1 = {p1}");
    }

    #[test]
    fn density_rejects_mid_circuit_measurement() {
        let p = Program::builder(1)
            .gate(GateKind::H, &[0])
            .measure(0)
            .gate(GateKind::X, &[0])
            .measure(0)
            .build();
        assert!(matches!(
            density(QubitModel::Perfect).run_shots(&p, 10),
            Err(ExecuteError::Invalid(_))
        ));
    }

    #[test]
    fn density_rejects_oversized_registers() {
        let mut b = Program::builder(MAX_DENSITY_QUBITS + 1);
        b = b.gate(GateKind::X, &[0]);
        let p = b.measure_all().build();
        assert!(matches!(
            density(QubitModel::Perfect).run_shots(&p, 10),
            Err(ExecuteError::TooManyQubits { .. })
        ));
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use cqasm::GateKind;

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    #[test]
    fn shot_budget_degrades_but_stays_valid() {
        let sim = Simulator::perfect()
            .with_seed(4)
            .with_fault_injection(FaultInjection {
                shot_budget: Some(120),
                fail_at_shot: None,
            });
        let hist = sim.run_shots(&bell(), 1000).unwrap();
        assert_eq!(hist.shots(), 120);
        // Budget truncation is a prefix of the full run: same per-shot
        // streams, so it equals an un-faulted 120-shot run exactly.
        let clean = Simulator::perfect()
            .with_seed(4)
            .run_shots(&bell(), 120)
            .unwrap();
        assert_eq!(hist, clean);
    }

    #[test]
    fn budget_larger_than_request_changes_nothing() {
        let faulty = Simulator::perfect().with_fault_injection(FaultInjection {
            shot_budget: Some(10_000),
            fail_at_shot: None,
        });
        let clean = Simulator::perfect();
        assert_eq!(
            faulty.run_shots(&bell(), 50).unwrap(),
            clean.run_shots(&bell(), 50).unwrap()
        );
    }

    #[test]
    fn fail_at_shot_yields_typed_error() {
        let sim = Simulator::perfect().with_fault_injection(FaultInjection {
            shot_budget: None,
            fail_at_shot: Some(7),
        });
        assert_eq!(
            sim.run_shots(&bell(), 100),
            Err(ExecuteError::InjectedFault { shot: 7 })
        );
        // The fault also fires through the parallel path and the slow path.
        let slow = sim.clone().with_sampling_fast_path(false);
        assert_eq!(
            slow.run_shots_planned(&slow.compile(&bell()).unwrap(), 100, 4),
            Err(ExecuteError::InjectedFault { shot: 7 })
        );
    }

    #[test]
    fn fail_at_shot_beyond_run_is_harmless() {
        let sim = Simulator::perfect().with_fault_injection(FaultInjection {
            shot_budget: None,
            fail_at_shot: Some(500),
        });
        assert!(sim.run_shots(&bell(), 100).is_ok());
    }

    #[test]
    fn budget_can_mask_the_failing_shot() {
        // The budget truncates the run before the failing shot would
        // execute, so the run degrades instead of erroring.
        let sim = Simulator::perfect().with_fault_injection(FaultInjection {
            shot_budget: Some(5),
            fail_at_shot: Some(7),
        });
        let hist = sim.run_shots(&bell(), 100).unwrap();
        assert_eq!(hist.shots(), 5);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let mk = || {
            Simulator::perfect()
                .with_seed(21)
                .with_fault_injection(FaultInjection {
                    shot_budget: Some(33),
                    fail_at_shot: None,
                })
        };
        assert_eq!(
            mk().run_shots(&bell(), 64).unwrap(),
            mk().run_shots(&bell(), 64).unwrap()
        );
    }
}

#[cfg(test)]
mod stabilizer_engine_tests {
    use super::*;
    use crate::plan::MAX_STAB_QUBITS;
    use cqasm::GateKind;

    /// A Clifford circuit with mid-circuit measurement and a conditioned
    /// Pauli correction: quantum teleportation of |+i> across a Bell pair.
    fn clifford_mid_measure() -> Program {
        Program::builder(3)
            .gate(GateKind::H, &[0])
            .gate(GateKind::S, &[0])
            .gate(GateKind::H, &[1])
            .gate(GateKind::Cnot, &[1, 2])
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::H, &[0])
            .measure(0)
            .measure(1)
            .cond(1, GateKind::X, &[2])
            .cond(0, GateKind::Z, &[2])
            .gate(GateKind::Sdag, &[2])
            .gate(GateKind::H, &[2])
            .measure(2)
            .build()
    }

    fn ghz(n: usize) -> Program {
        let mut b = Program::builder(n).gate(GateKind::H, &[0]);
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        b.measure_all().build()
    }

    fn sim(engine: EngineSelect) -> Simulator {
        Simulator::perfect()
            .with_seed(99)
            .with_engine_select(engine)
    }

    #[test]
    fn tableau_matches_statevector_on_mid_measure_clifford() {
        let p = clifford_mid_measure();
        let sv = sim(EngineSelect::StateVector).run_shots(&p, 400).unwrap();
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 400).unwrap();
        let auto = sim(EngineSelect::Auto).run_shots(&p, 400).unwrap();
        assert_eq!(sv, tab);
        assert_eq!(sv, auto);
        // Teleportation is deterministic on the payload: bit 2 is always 0.
        for (bits, _) in sv.iter() {
            assert_eq!((bits >> 2) & 1, 0, "payload survived teleportation");
        }
    }

    #[test]
    fn all_engines_agree_on_terminal_measure_all() {
        let p = ghz(5);
        let sv_sampled = sim(EngineSelect::StateVector).run_shots(&p, 300).unwrap();
        let sv_full = sim(EngineSelect::StateVector)
            .with_sampling_fast_path(false)
            .run_shots(&p, 300)
            .unwrap();
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 300).unwrap();
        let frames = sim(EngineSelect::PauliFrame).run_shots(&p, 300).unwrap();
        let auto = sim(EngineSelect::Auto).run_shots(&p, 300).unwrap();
        assert_eq!(sv_sampled, sv_full);
        assert_eq!(sv_sampled, tab);
        assert_eq!(sv_sampled, frames);
        assert_eq!(sv_sampled, auto);
        assert_eq!(tab.count(0) + tab.count(0b11111), 300);
    }

    #[test]
    fn all_engines_agree_on_terminal_measure_runs() {
        let mut b = Program::builder(4)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::Y90, &[2])
            .gate(GateKind::Cz, &[2, 3]);
        for q in [0usize, 1, 2, 0] {
            b = b.measure(q);
        }
        let p = b.build();
        let sv = sim(EngineSelect::StateVector).run_shots(&p, 300).unwrap();
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 300).unwrap();
        let frames = sim(EngineSelect::PauliFrame).run_shots(&p, 300).unwrap();
        assert_eq!(sv, tab);
        assert_eq!(sv, frames);
    }

    #[test]
    fn all_engines_agree_on_interleaved_measures() {
        // Scheduler-hoisted shape: measures interleaved with later gates
        // on other qubits, including a re-measure of an earlier qubit.
        let p = Program::builder(4)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure(1)
            .gate(GateKind::Y90, &[2])
            .measure(0)
            .gate(GateKind::Cz, &[2, 3])
            .gate(GateKind::H, &[0])
            .measure(2)
            .measure(0)
            .build();
        assert_eq!(
            sim(EngineSelect::Auto).compile(&p).unwrap().circuit_class(),
            CircuitClass::CliffordTerminal
        );
        let sv = sim(EngineSelect::StateVector).run_shots(&p, 300).unwrap();
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 300).unwrap();
        let frames = sim(EngineSelect::PauliFrame).run_shots(&p, 300).unwrap();
        assert_eq!(sv, tab);
        assert_eq!(sv, frames);
    }

    #[test]
    fn stab_engines_shard_bit_identically() {
        let p = clifford_mid_measure();
        let whole = sim(EngineSelect::Auto).run_shots(&p, 240).unwrap();
        let s = sim(EngineSelect::Auto);
        let plan = s.compile(&p).unwrap();
        let threaded = s.run_shots_planned(&plan, 240, 4).unwrap();
        assert_eq!(whole, threaded);
        // Out-of-order shard merge via run_shot_range.
        let mut merged = s.run_shot_range(&plan, 160, 240).unwrap();
        merged.merge(&s.run_shot_range(&plan, 0, 80).unwrap());
        merged.merge(&s.run_shot_range(&plan, 80, 160).unwrap());
        assert_eq!(whole, merged);

        let g = ghz(6);
        let whole = sim(EngineSelect::PauliFrame).run_shots(&g, 500).unwrap();
        let plan = sim(EngineSelect::PauliFrame).compile(&g).unwrap();
        let s = sim(EngineSelect::PauliFrame);
        // Shard boundaries that are not 64-aligned must not matter.
        let mut merged = s.run_shot_range(&plan, 130, 500).unwrap();
        merged.merge(&s.run_shot_range(&plan, 0, 33).unwrap());
        merged.merge(&s.run_shot_range(&plan, 33, 130).unwrap());
        assert_eq!(whole, merged);
    }

    #[test]
    fn forced_engine_mismatch_is_a_typed_error() {
        let t_gate = Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::T, &[0])
            .measure_all()
            .build();
        match sim(EngineSelect::Tableau).run_shots(&t_gate, 16) {
            Err(ExecuteError::EngineMismatch { engine, .. }) => assert_eq!(engine, "tableau"),
            other => panic!("expected engine mismatch, got {other:?}"),
        }
        match sim(EngineSelect::PauliFrame).run_shots(&clifford_mid_measure(), 16) {
            Err(ExecuteError::EngineMismatch { engine, .. }) => assert_eq!(engine, "pauli_frame"),
            other => panic!("expected engine mismatch, got {other:?}"),
        }
        match sim(EngineSelect::StateVector).run_shots(&ghz_run(40, 8), 16) {
            Err(ExecuteError::EngineMismatch { engine, .. }) => assert_eq!(engine, "state_vector"),
            other => panic!("expected engine mismatch, got {other:?}"),
        }
    }

    /// GHZ over `n` qubits closed by a terminal measure run on the first
    /// `k` qubits (keeps measured indices inside the u64 register).
    fn ghz_run(n: usize, k: usize) -> Program {
        let mut b = Program::builder(n).gate(GateKind::H, &[0]);
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        for q in 0..k {
            b = b.measure(q);
        }
        b.build()
    }

    #[test]
    fn thousand_qubit_ghz_executes_past_the_statevector_ceiling() {
        let p = ghz_run(1000, 32);
        let plan = sim(EngineSelect::Auto).compile(&p).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::CliffordTerminal);
        assert!(plan.qubit_count() > MAX_SIM_QUBITS);
        assert!(plan.qubit_count() <= MAX_STAB_QUBITS);
        let hist = sim(EngineSelect::Auto)
            .run_shots_planned(&plan, 500, 4)
            .unwrap();
        // Perfect GHZ correlations: the first 32 qubits agree in every shot.
        let ones = (1u64 << 32) - 1;
        assert_eq!(hist.count(0) + hist.count(ones), 500);
        assert!(hist.count(0) > 0 && hist.count(ones) > 0);
        // Bit-identical across worker counts.
        let single = sim(EngineSelect::Auto).run_shots(&p, 500).unwrap();
        assert_eq!(hist, single);
        // The tableau engine agrees with the frame sampler.
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 500).unwrap();
        assert_eq!(hist, tab);
    }

    #[test]
    fn prep_z_resets_agree_across_engines() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .prep_z(0)
            .measure(0)
            .measure(1)
            .build();
        let sv = sim(EngineSelect::StateVector).run_shots(&p, 300).unwrap();
        let tab = sim(EngineSelect::Tableau).run_shots(&p, 300).unwrap();
        assert_eq!(sv, tab);
        // prep_z forces bit 0 low; bit 1 keeps the Bell marginal.
        for (bits, _) in sv.iter() {
            assert_eq!(bits & 1, 0);
        }
    }

    #[test]
    fn engine_telemetry_counts_runs() {
        let t = qca_telemetry::Telemetry::enabled();
        let s = Simulator::perfect().with_seed(5).with_telemetry(t.clone());
        s.run_shots(&ghz(4), 64).unwrap();
        s.run_shots(&clifford_mid_measure(), 64).unwrap();
        let snap = t.snapshot();
        let labeled = |family: &str, label: &str| -> u64 {
            snap.labeled
                .get(family)
                .and_then(|m| m.get(label))
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(labeled("qxsim.engine", "pauli_frame"), 1);
        assert_eq!(labeled("qxsim.engine", "tableau"), 1);
        assert_eq!(labeled("qxsim.engine.class", "clifford_terminal"), 1);
        assert_eq!(labeled("qxsim.engine.class", "clifford"), 1);
        assert_eq!(snap.counters.get("qxsim.stab.frame_shots"), Some(&64));
        assert_eq!(snap.counters.get("qxsim.stab.tableau_shots"), Some(&64));
    }

    #[test]
    fn run_once_still_caps_at_statevector_width() {
        let p = ghz_run(40, 4);
        match Simulator::perfect().run_once(&p) {
            Err(ExecuteError::TooManyQubits { needed: 40, max }) => {
                assert_eq!(max, MAX_SIM_QUBITS)
            }
            other => panic!("expected TooManyQubits, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod sweep_identity_tests {
    use super::*;
    use cqasm::GateKind;

    /// A 4-qubit non-Clifford prefix (so `Auto` keeps it on the state
    /// vector), closed by `measure_all` or a scrambled measure run.
    fn rotations(measure_all: bool) -> Program {
        let mut b = Program::builder(4)
            .gate(GateKind::H, &[0])
            .gate(GateKind::T, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::Ry(0.7), &[2])
            .gate(GateKind::Cnot, &[2, 3])
            .gate(GateKind::H, &[1]);
        if measure_all {
            b = b.measure_all();
        } else {
            for q in [2, 0, 3, 1] {
                b = b.measure(q);
            }
        }
        b.build()
    }

    /// Teleportation-style Clifford circuit with mid-circuit measurement
    /// and feedback: the tableau's class.
    fn clifford_feedback() -> Program {
        Program::builder(3)
            .gate(GateKind::H, &[0])
            .gate(GateKind::H, &[1])
            .gate(GateKind::Cnot, &[1, 2])
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::H, &[0])
            .measure(0)
            .measure(1)
            .cond(1, GateKind::X, &[2])
            .cond(0, GateKind::Z, &[2])
            .measure(2)
            .build()
    }

    fn ghz(n: usize) -> Program {
        let mut b = Program::builder(n).gate(GateKind::H, &[0]);
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cnot, &[q, q + 1]);
        }
        b.measure_all().build()
    }

    /// 70 fresh coin flips on one qubit: terminally measured Clifford, but
    /// past the frame layout's 64 random variables.
    fn many_coins() -> Program {
        let mut b = Program::builder(2);
        for _ in 0..70 {
            b = b.gate(GateKind::H, &[0]).measure(0);
        }
        b.measure(1).build()
    }

    /// Every sweep: `run_shots_planned` at 1, 2 and 3 threads equals an
    /// out-of-order merge of `run_shot_range` cuts. The 7-shot cut is
    /// narrower than the 16-entry table, so both table counting modes
    /// run.
    #[test]
    fn every_sweep_is_thread_and_shard_invariant() {
        let perfect = Simulator::perfect().with_seed(0x5EED);
        let transmon =
            Simulator::with_model(QubitModel::real_from_rates(1e-3, 1e-2, 2e-2, 20.0, 20.0))
                .with_seed(0x5EED);
        let noisy_density =
            Simulator::with_model(QubitModel::realistic_depolarizing(0.05, 0.05, 0.1))
                .with_seed(0x5EED)
                .with_engine_select(EngineSelect::Density);
        type Case = (
            &'static str,
            Simulator,
            Program,
            EngineSelect,
            fn(&SweepKind) -> bool,
        );
        let cases: [Case; 8] = [
            (
                "measure_all table",
                perfect.clone(),
                rotations(true),
                EngineSelect::StateVector,
                |k| matches!(k, SweepKind::Table(_)),
            ),
            (
                "measure-run cascade",
                perfect.clone(),
                rotations(false),
                EngineSelect::StateVector,
                |k| matches!(k, SweepKind::Cascade(..)),
            ),
            (
                "interpreter, fast path off",
                perfect.clone().with_sampling_fast_path(false),
                rotations(true),
                EngineSelect::StateVector,
                |k| matches!(k, SweepKind::Interpreter(_)),
            ),
            (
                "noisy transmon interpreter",
                transmon,
                rotations(false),
                EngineSelect::StateVector,
                |k| matches!(k, SweepKind::Interpreter(_)),
            ),
            (
                "tableau",
                perfect.clone(),
                clifford_feedback(),
                EngineSelect::Tableau,
                |k| matches!(k, SweepKind::Tableau(..)),
            ),
            (
                "pauli frame",
                perfect.clone(),
                ghz(6),
                EngineSelect::PauliFrame,
                |k| matches!(k, SweepKind::Frames(_)),
            ),
            (
                "frame -> tableau fallback",
                perfect,
                many_coins(),
                EngineSelect::PauliFrame,
                |k| matches!(k, SweepKind::Tableau(..)),
            ),
            (
                "density",
                noisy_density,
                rotations(false),
                EngineSelect::Density,
                |k| matches!(k, SweepKind::Density { .. }),
            ),
        ];
        let shots = 200;
        for (name, sim, program, engine, expected_kind) in cases {
            let plan = sim.compile(&program).unwrap();
            let sweep = sim.prepare(&plan).unwrap();
            assert_eq!(sweep.engine, engine, "{name}");
            assert!(expected_kind(&sweep.kind), "{name}: unexpected sweep kind");
            let whole = sim.run_shots_planned(&plan, shots, 1).unwrap();
            assert_eq!(whole.shots(), shots, "{name}");
            for threads in [2, 3] {
                let split = sim.run_shots_planned(&plan, shots, threads).unwrap();
                assert_eq!(split, whole, "{name}: {threads} threads");
            }
            let mut merged = ShotHistogram::new();
            for (lo, hi) in [(130, shots), (0, 7), (7, 130)] {
                merged.merge(&sim.run_shot_range(&plan, lo, hi).unwrap());
            }
            assert_eq!(merged, whole, "{name}: shard merge");
        }
    }

    /// `run_shot_range` reports a forced engine that cannot run the plan
    /// instead of silently switching engines.
    #[test]
    fn shot_range_reports_forced_engine_mismatch() {
        let sim = Simulator::perfect().with_engine_select(EngineSelect::PauliFrame);
        let plan = sim.compile(&rotations(true)).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::General);
        match sim.run_shot_range(&plan, 0, 10) {
            Err(ExecuteError::EngineMismatch { engine, .. }) => assert_eq!(engine, "pauli_frame"),
            other => panic!("expected engine mismatch, got {other:?}"),
        }
    }
}

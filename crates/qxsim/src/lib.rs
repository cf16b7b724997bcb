//! # qxsim — the QX quantum simulator
//!
//! A Rust implementation of the QX simulator layer from Bertels et al.,
//! *"Quantum Computer Architecture: Towards Full-Stack Quantum
//! Accelerators"* (DATE 2020, §2.7). QX executes any quantum logic expressed
//! in cQASM on a dense state-vector engine and supports the paper's three
//! qubit models:
//!
//! - **perfect qubits** — no decoherence, no gate errors: the model offered
//!   to application developers;
//! - **realistic qubits** — configurable error channels (depolarizing and
//!   beyond: bit/phase flip, amplitude damping) plus readout errors;
//! - **real qubits** — realistic models instantiated from hardware
//!   calibration numbers.
//!
//! The engine scales with host memory exactly like the paper's C++ QX
//! (which reaches ~35 fully-entangled qubits on a laptop): state size is
//! `2^n` amplitudes.
//!
//! Execution has one path: [`Simulator::compile`] lowers a program into a
//! [`CompiledProgram`], then [`Simulator::run_shots_planned`] runs any
//! number of shots across any number of threads, and
//! [`Simulator::run_shot_range`] runs one shard of them. Both resolve the
//! engine ([`EngineSelect`]: state vector, CHP tableau, Pauli frames, or
//! the exact density matrix) and prepare its once-per-run work a single
//! time. [`Simulator::run_shots`] is the compile-and-run shorthand;
//! [`Simulator::run_once`] and [`Simulator::run_compiled`] return the
//! final state of a single shot.
//!
//! # Example
//!
//! ```
//! use cqasm::Program;
//! use qxsim::{QubitModel, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::parse(
//!     "qubits 2\n.bell\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n",
//! )?;
//!
//! // Application development: perfect qubits.
//! let perfect = Simulator::perfect().run_shots(&program, 100)?;
//! assert_eq!(perfect.count(0b01) + perfect.count(0b10), 0);
//!
//! // Architecture studies: realistic qubits at today's ~1e-2 error rates.
//! let noisy = Simulator::with_model(QubitModel::realistic_depolarizing(0.01, 0.02, 0.01));
//! let hist = noisy.run_shots(&program, 100)?;
//! assert_eq!(hist.shots(), 100);
//! # Ok(())
//! # }
//! ```

// Library paths must return typed errors, never abort (CI gates these
// lints); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod density;
pub mod error_model;
pub mod executor;
pub mod histogram;
pub mod observable;
pub mod plan;
pub mod qubit_model;
pub mod stabilizer;
pub mod state;

pub use density::{DensityMatrix, MAX_DENSITY_QUBITS};
pub use error_model::ErrorChannel;
pub use executor::{ExecuteError, FaultInjection, ShotResult, Simulator, SHOT_SEED_STRIDE};
pub use histogram::ShotHistogram;
pub use observable::{Pauli, PauliString, PauliSum};
pub use plan::{
    CircuitClass, CliffordGate, CompiledProgram, FusionStats, PlanOptions, PlannedGate, PlannedOp,
    StabOp, TerminalMeasure, MAX_FUSED_BLOCK_QUBITS, MAX_FUSED_DIAG_QUBITS,
    MAX_MEASURE_RUN_SAMPLING, MAX_SIM_QUBITS, MAX_STAB_QUBITS,
};
pub use qubit_model::{QubitModel, RealisticParams};
pub use stabilizer::EngineSelect;
pub use state::{
    par_min_qubits, parse_par_min_qubits, StateVector, MAX_1Q_LAYER_QUBITS, PAR_MIN_QUBITS,
};

//! The four workloads: what each one submits, how its clients loop, and
//! why it is in the benchmark.
//!
//! Every input is a function of `--seed` alone, through `StdRng`. The
//! service only ever sees the generated cQASM text.

use cqasm::{GateKind, Program};
use openql::Platform;
use qca_service::{PlatformSpec, ServiceConfig, TenantConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::sync::Arc;

/// Which generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Interactive,
    Variational,
    StateVector,
    Clifford,
}

/// How a workload's clients pace their submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// One submitter with jobs due at `rate_per_s` for the first
    /// `fixed_share` of the run, then submitting back to back with at
    /// most `window` jobs outstanding. Two more threads ask for and
    /// collect the results. A small window keeps the saturation phase
    /// from turning into a deep queue whose drain order, and so whose
    /// throughput, varies from run to run.
    Open {
        rate_per_s: f64,
        fixed_share: f64,
        window: u64,
    },
    /// `clients` callers, each waiting for its result before the next
    /// submit.
    Closed { clients: usize },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub pacing: Loop,
    /// The percentile reported as `latency_tail_ms`: the highest of
    /// p99/p95/p90 that leaves at least ten samples beyond it at this
    /// workload's sample count (see README.md and
    /// `stats::tail_percentile`).
    pub tail_pct: u32,
    pub why: &'static str,
}

/// The workloads, in `--all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "interactive-small",
        kind: Kind::Interactive,
        pacing: Loop::Open {
            rate_per_s: 2000.0,
            fixed_share: 0.6,
            window: 8,
        },
        tail_pct: 99,
        why: "open loop at 2000 jobs/s, then saturation, over 24 tiny warm jobs: time goes to \
              admission, coalescing, cache lookup, settlement and the wire",
    },
    Workload {
        name: "variational-grid9",
        kind: Kind::Variational,
        pacing: Loop::Closed { clients: 2 },
        tail_pct: 99,
        why: "closed loop QAOA p=2 on a 3x3 grid with fresh angles per job: every job misses \
              the plan cache, so parse, OpenQL routing and plan compile dominate",
    },
    Workload {
        name: "statevector-20q",
        kind: Kind::StateVector,
        pacing: Loop::Closed { clients: 2 },
        tail_pct: 90,
        why: "closed loop QFT-20 with 8192 shots in 2 shards on a warm cache: fused \
              state-vector kernels at 2^20 amplitudes dominate; compile and wire idle",
    },
    Workload {
        name: "clifford-qec",
        kind: Kind::Clifford,
        pacing: Loop::Closed { clients: 2 },
        tail_pct: 95,
        why: "closed loop d=5 surface-code ESM round, 256 shots below the shard threshold: \
              the per-shot CHP tableau dominates; state vector and compile idle",
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `ServiceConfig::default()` (2 workers) plus what the workload needs.
    pub fn service_config(&self) -> ServiceConfig {
        let mut config = ServiceConfig::default();
        match self.kind {
            Kind::Interactive => {
                config.tenants = vec![TenantConfig::new("batch", 1), TenantConfig::new("vip", 4)];
            }
            Kind::Variational => config.platform = PlatformSpec::Fixed(grid9()),
            Kind::StateVector | Kind::Clifford => {}
        }
        config
    }

    /// The compile platform the service picks for a `qubits`-qubit job.
    pub fn platform(&self, qubits: usize) -> Platform {
        match self.kind {
            Kind::Variational => grid9(),
            _ => Platform::perfect(qubits),
        }
    }

    /// Number of generator streams (one per submitting thread).
    pub fn streams(&self) -> usize {
        match self.pacing {
            Loop::Open { .. } => 1,
            Loop::Closed { clients } => clients,
        }
    }
}

fn grid9() -> Platform {
    Platform::superconducting_grid(3, 3)
}

/// One job as the generator hands it to a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// cQASM source text, sent as is.
    pub circuit: Arc<str>,
    pub shots: u64,
    pub seed: u64,
    pub tenant: Option<&'static str>,
    /// Jobs with the same key must return the same histogram, and one
    /// job per key is replayed against the layer functions. `None`: the
    /// job is not checked (variational jobs outside the 1-in-16 sample).
    pub check: Option<u64>,
}

/// Everything a workload draws its jobs from.
#[derive(Debug)]
pub struct Corpus {
    kind: Kind,
    shots: u64,
    /// The distinct jobs a warm workload draws from (empty when every
    /// job is fresh).
    pub distinct: Vec<Job>,
    /// One circuit per plan: what the warm-up pass compiles.
    pub warm_circuits: Vec<Arc<str>>,
    stream_seeds: Vec<u64>,
}

/// Variational jobs replay one in this many.
const VARIATIONAL_CHECK_EVERY: u64 = 16;

/// Simulation seeds stay below 2^53: the wire carries them as JSON
/// numbers, which are exact only up to there.
fn sim_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> 11
}

impl Corpus {
    /// Generates the workload's inputs from `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Corpus {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuits, seeds_per_circuit, shots): (Vec<String>, usize, u64) = match workload.kind {
            Kind::Interactive => (interactive_shapes(), 4, 256),
            Kind::Variational => (Vec::new(), 0, 512),
            Kind::StateVector => (vec![qft(20)], 8, 8192),
            Kind::Clifford => (vec![surface_d5_esm_round()], 8, 256),
        };
        let warm_circuits: Vec<Arc<str>> = circuits.into_iter().map(Arc::from).collect();
        let mut distinct = Vec::new();
        for circuit in &warm_circuits {
            for _ in 0..seeds_per_circuit {
                distinct.push(Job {
                    circuit: Arc::clone(circuit),
                    shots,
                    seed: sim_seed(&mut rng),
                    tenant: None,
                    check: Some(distinct.len() as u64),
                });
            }
        }
        let stream_seeds = (0..workload.streams()).map(|_| rng.gen::<u64>()).collect();
        Corpus {
            kind: workload.kind,
            shots,
            distinct,
            warm_circuits,
            stream_seeds,
        }
    }

    /// The job stream of submitting thread `client`.
    pub fn stream(self: &Arc<Self>, client: usize) -> JobStream {
        JobStream {
            corpus: Arc::clone(self),
            client,
            rng: StdRng::seed_from_u64(self.stream_seeds[client]),
            issued: 0,
        }
    }
}

/// A deterministic sequence of jobs for one submitting thread.
#[derive(Debug)]
pub struct JobStream {
    corpus: Arc<Corpus>,
    client: usize,
    rng: StdRng,
    issued: u64,
}

impl JobStream {
    /// The next job.
    pub fn next_job(&mut self) -> Job {
        let n = self.issued;
        self.issued += 1;
        let distinct = &self.corpus.distinct;
        match self.corpus.kind {
            Kind::Interactive => {
                let mut job = distinct[self.rng.gen_range(0..distinct.len())].clone();
                job.tenant = Some(if n.is_multiple_of(2) { "batch" } else { "vip" });
                job
            }
            Kind::Variational => {
                let angles = [0; 4].map(|_| self.rng.gen_range(0.0..PI));
                Job {
                    circuit: Arc::from(qaoa_grid9(angles)),
                    shots: self.corpus.shots,
                    seed: sim_seed(&mut self.rng),
                    tenant: None,
                    check: n
                        .is_multiple_of(VARIATIONAL_CHECK_EVERY)
                        .then_some(((self.client as u64) << 40) | n),
                }
            }
            // Each client draws from its own half of the seeds, so the two
            // clients never queue identical jobs, which would coalesce by
            // chance and make throughput depend on timing.
            Kind::StateVector | Kind::Clifford => {
                let half = distinct.len() / 2;
                distinct[self.client % 2 + 2 * self.rng.gen_range(0..half)].clone()
            }
        }
    }
}

/// The interactive mix: Bell, GHZ-3, GHZ-5, rotations-4, GHZ-48 with 8
/// measured qubits (Pauli-frame sampler) and teleportation with
/// measurement feedback (per-shot tableau).
fn interactive_shapes() -> Vec<String> {
    let ghz = |n: usize, measured: Option<usize>| {
        let mut s = format!("qubits {n}\nh q[0]\n");
        for q in 0..n - 1 {
            s.push_str(&format!("cnot q[{q}], q[{}]\n", q + 1));
        }
        match measured {
            None => s.push_str("measure_all\n"),
            Some(m) => (0..m).for_each(|q| s.push_str(&format!("measure q[{q}]\n"))),
        }
        s
    };
    let mut rotations = String::from("qubits 4\n");
    for q in 0..4 {
        rotations.push_str(&format!("rx q[{q}], 0.7853981633974483\n"));
        rotations.push_str(&format!("rz q[{q}], 1.5707963267948966\n"));
    }
    rotations.push_str("cnot q[0], q[2]\ncnot q[1], q[3]\nmeasure_all\n");
    let teleport = "qubits 3\nh q[1]\ncnot q[1], q[2]\ncnot q[0], q[1]\nh q[0]\n\
                    measure q[0]\nmeasure q[1]\nc-x b[1], q[2]\nc-z b[0], q[2]\nmeasure_all\n";
    vec![
        ghz(2, None),
        ghz(3, None),
        ghz(5, None),
        rotations,
        ghz(48, Some(8)),
        teleport.to_string(),
    ]
}

/// The QAOA cost graph: a ring over nine nodes plus three chords, so
/// routing on the 3x3 grid has to insert SWAPs.
const QAOA_EDGES: [(usize, usize); 12] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 4),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 8),
    (8, 0),
    (0, 4),
    (2, 6),
    (3, 7),
];

/// QAOA p=2 for MaxCut on [`QAOA_EDGES`], angles `[gamma1, beta1,
/// gamma2, beta2]`.
fn qaoa_grid9(angles: [f64; 4]) -> String {
    let mut b = Program::builder(9);
    for q in 0..9 {
        b = b.gate(GateKind::H, &[q]);
    }
    for layer in angles.chunks(2) {
        let (gamma, beta) = (layer[0], layer[1]);
        for &(u, v) in &QAOA_EDGES {
            b = b
                .gate(GateKind::Cnot, &[u, v])
                .gate(GateKind::Rz(2.0 * gamma), &[v])
                .gate(GateKind::Cnot, &[u, v]);
        }
        for q in 0..9 {
            b = b.gate(GateKind::Rx(2.0 * beta), &[q]);
        }
    }
    b.measure_all().build().to_string()
}

/// The textbook QFT on `n` qubits, closed by `measure_all`.
fn qft(n: usize) -> String {
    let mut b = Program::builder(n);
    for i in 0..n {
        b = b.gate(GateKind::H, &[i]);
        for j in i + 1..n {
            b = b.gate(GateKind::CRk((j - i + 1) as u32), &[j, i]);
        }
    }
    b.measure_all().build().to_string()
}

/// One error-syndrome-measurement round of the distance-5 surface code
/// (81 qubits, ancillas first so every syndrome bit fits the register).
fn surface_d5_esm_round() -> String {
    let code = qec::SurfaceCode::new(5).to_stabilizer_code();
    qec::esm::esm_program_ancilla_first(&code, 1).0.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(name: &str, seed: u64, n: usize) -> Vec<Job> {
        let w = find(name).unwrap();
        let corpus = Arc::new(Corpus::new(w, seed));
        (0..w.streams())
            .flat_map(|c| {
                let mut s = corpus.stream(c);
                (0..n).map(move |_| s.next_job())
            })
            .collect()
    }

    // The 20-qubit workload only changes simulation seeds with `--seed`;
    // its generator shares the clifford-qec path, which is checked here.
    #[test]
    fn same_seed_gives_the_same_jobs_and_another_seed_does_not() {
        for name in ["interactive-small", "variational-grid9", "clifford-qec"] {
            assert_eq!(jobs(name, 7, 40), jobs(name, 7, 40), "{name}");
            assert_ne!(jobs(name, 7, 40), jobs(name, 8, 40), "{name}");
        }
    }

    #[test]
    fn closed_loop_clients_never_share_a_job() {
        let a = jobs("clifford-qec", 3, 64);
        let (first, second) = a.split_at(64);
        for job in first {
            assert!(!second.iter().any(|other| other.check == job.check));
        }
    }

    #[test]
    fn every_generated_circuit_parses() {
        let w = find("interactive-small").unwrap();
        for circuit in &Corpus::new(w, 1).warm_circuits {
            Program::parse(circuit).unwrap();
        }
        for job in jobs("variational-grid9", 1, 2) {
            assert_eq!(Program::parse(&job.circuit).unwrap().qubit_count(), 9);
        }
        Program::parse(&surface_d5_esm_round()).unwrap();
    }
}

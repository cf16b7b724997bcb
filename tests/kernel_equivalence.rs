//! Property tests: every specialised gate kernel in `qxsim` must produce
//! the same amplitudes as the generic dense-matrix path
//! (`qxsim::state::reference`), for every gate in the cQASM library, on
//! random states and random operand assignments — the plan fuser must
//! preserve those amplitudes when it collapses runs, chains and clusters
//! into fused kernels — and evolving a kernel list by segments on any
//! thread count must reproduce the serial kernel loop exactly.

use cqasm::math::{Mat2, Mat4, C64};
use cqasm::{BlockUnitary, FusedDiagonal, GateKind, GateUnitary, KernelClass, Program};
use proptest::prelude::*;
use qxsim::state::reference;
use qxsim::{PlannedOp, Simulator, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense random (normalised) state on `n` qubits.
fn random_state(n: usize, seed: u64) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    StateVector::from_amplitudes(amps)
}

/// Any gate from the library, parameterised variants with random angles.
fn arb_gate() -> BoxedStrategy<GateKind> {
    prop_oneof![
        Just(GateKind::I),
        Just(GateKind::H),
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::Z),
        Just(GateKind::S),
        Just(GateKind::Sdag),
        Just(GateKind::T),
        Just(GateKind::Tdag),
        Just(GateKind::X90),
        Just(GateKind::Y90),
        Just(GateKind::Mx90),
        Just(GateKind::My90),
        (-3.2f64..3.2).prop_map(GateKind::Rx),
        (-3.2f64..3.2).prop_map(GateKind::Ry),
        (-3.2f64..3.2).prop_map(GateKind::Rz),
        Just(GateKind::Cnot),
        Just(GateKind::Cz),
        Just(GateKind::Swap),
        (-3.2f64..3.2).prop_map(GateKind::Cr),
        (1u32..8).prop_map(GateKind::CRk),
        Just(GateKind::Toffoli),
    ]
    .boxed()
}

/// Any single-qubit gate (the fusion pass 1 alphabet).
fn arb_1q_gate() -> BoxedStrategy<GateKind> {
    prop_oneof![
        Just(GateKind::I),
        Just(GateKind::H),
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::Z),
        Just(GateKind::S),
        Just(GateKind::Sdag),
        Just(GateKind::T),
        Just(GateKind::Tdag),
        (-3.2f64..3.2).prop_map(GateKind::Rx),
        (-3.2f64..3.2).prop_map(GateKind::Ry),
        (-3.2f64..3.2).prop_map(GateKind::Rz),
    ]
    .boxed()
}

/// Any diagonal-kernel gate (the fusion pass 2 alphabet: phases and
/// controlled phases, the QFT/QAOA tail shapes).
fn arb_diag_gate() -> BoxedStrategy<GateKind> {
    prop_oneof![
        Just(GateKind::Z),
        Just(GateKind::S),
        Just(GateKind::Sdag),
        Just(GateKind::T),
        Just(GateKind::Tdag),
        (-3.2f64..3.2).prop_map(GateKind::Rz),
        Just(GateKind::Cz),
        (-3.2f64..3.2).prop_map(GateKind::Cr),
        (1u32..8).prop_map(GateKind::CRk),
    ]
    .boxed()
}

/// Evolves a gates-only program on the independent reference kernels.
fn reference_evolution(p: &Program) -> StateVector {
    let mut s = StateVector::zero_state(p.qubit_count());
    for ins in p.flat_instructions() {
        if let cqasm::Instruction::Gate(g) = ins {
            let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
            reference::apply_gate(&mut s, &g.kind, &idx);
        }
    }
    s
}

/// Distinct operand indices on `n` qubits from three free draws; covers
/// every operand ordering (control above/below target, etc.).
fn operands(n: usize, r0: usize, r1: usize, r2: usize) -> [usize; 3] {
    let q0 = r0 % n;
    let q1 = (q0 + 1 + r1 % (n - 1)) % n;
    let mut q2 = (q1 + 1 + r2 % (n - 1)) % n;
    while q2 == q0 || q2 == q1 {
        q2 = (q2 + 1) % n;
    }
    [q0, q1, q2]
}

/// The thread counts the segment tests force: one chunk, two chunks (also
/// from three threads, which round down), four and eight.
const FORCED_THREADS: [usize; 5] = [1, 2, 3, 4, 8];

fn random_c64(rng: &mut StdRng) -> C64 {
    C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
}

/// A random 2x2 matrix: a library unitary (real ones like H and X take
/// the real-coefficient path), random real entries, or random complex
/// ones. The segment tests check identity of arithmetic, not unitarity.
fn random_mat2(rng: &mut StdRng) -> Mat2 {
    let gate = match rng.gen_range(0..6) {
        0 => GateKind::H,
        1 => GateKind::X,
        2 => GateKind::Ry(rng.gen_range(-3.2..3.2)),
        3 => GateKind::Rx(rng.gen_range(-3.2..3.2)),
        real => {
            let mut entry = || {
                let c = random_c64(rng);
                if real == 4 {
                    C64::real(c.re)
                } else {
                    c
                }
            };
            return Mat2([[entry(), entry()], [entry(), entry()]]);
        }
    };
    match gate.unitary() {
        GateUnitary::One(m) => m,
        _ => unreachable!("{gate} is a single-qubit gate"),
    }
}

/// `k` distinct operands of an `n`-qubit register, each drawn from the
/// top three qubits half the time, so kernels land on, straddle and stay
/// below every chunk split.
fn random_operands(k: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "{k} distinct operands on {n} qubits");
    let mut qubits = Vec::with_capacity(k);
    while qubits.len() < k {
        let q = if rng.gen_bool(0.5) {
            n - 1 - rng.gen_range(0..3usize)
        } else {
            rng.gen_range(0..n)
        };
        if !qubits.contains(&q) {
            qubits.push(q);
        }
    }
    qubits
}

/// A random kernel of class `class` (a `KernelClass::class_index`) on
/// random operands of an `n >= 4`-qubit register.
fn random_kernel(class: usize, n: usize, rng: &mut StdRng) -> (KernelClass, Vec<usize>) {
    let kernel = match class {
        0 => KernelClass::Identity,
        1 => KernelClass::Diagonal1q(random_c64(rng), random_c64(rng)),
        2 => KernelClass::AntiDiagonal1q(random_c64(rng), random_c64(rng)),
        3 => KernelClass::General1q(random_mat2(rng)),
        4 => KernelClass::Cnot,
        5 => KernelClass::Cz,
        6 => KernelClass::Swap,
        7 => KernelClass::ControlledPhase(random_c64(rng)),
        8 => KernelClass::General2q(Mat4(std::array::from_fn(|_| {
            std::array::from_fn(|_| random_c64(rng))
        }))),
        9 => KernelClass::ControlledControlled(random_mat2(rng)),
        10 => KernelClass::Fused1q(random_mat2(rng)),
        11 => {
            let k = rng.gen_range(1..=n.min(5));
            let entries = (0..1 << k).map(|_| random_c64(rng)).collect();
            KernelClass::FusedDiag(FusedDiagonal { entries })
        }
        12 => {
            let k = rng.gen_range(1..=3);
            let m = (0..1 << (2 * k)).map(|_| random_c64(rng)).collect();
            KernelClass::FusedBlock(BlockUnitary { k, m })
        }
        _ => {
            let k = rng.gen_range(1..=4);
            KernelClass::Fused1qLayer((0..k).map(|_| random_mat2(rng)).collect())
        }
    };
    let arity = match &kernel {
        KernelClass::Cnot
        | KernelClass::Cz
        | KernelClass::Swap
        | KernelClass::ControlledPhase(_)
        | KernelClass::General2q(_) => 2,
        KernelClass::ControlledControlled(_) => 3,
        KernelClass::FusedDiag(d) => d.support(),
        KernelClass::FusedBlock(b) => b.k,
        KernelClass::Fused1qLayer(mats) => mats.len(),
        _ => 1,
    };
    (kernel, random_operands(arity, n, rng))
}

/// Evolves `start` through `kernels` by segments on every forced thread
/// count and requires the serial `apply_kernel` loop's amplitudes, `==`
/// for `==`.
fn assert_segments_match_serial(
    kernels: &[(KernelClass, Vec<usize>)],
    start: &StateVector,
) -> Result<(), String> {
    let mut serial = start.clone();
    for (kernel, qubits) in kernels {
        serial.apply_kernel(kernel, qubits);
    }
    for threads in FORCED_THREADS {
        let mut evolved = start.clone();
        evolved.evolve(kernels.iter().map(|(k, q)| (k, q.as_slice())), threads);
        prop_assert!(
            serial.amplitudes() == evolved.amplitudes(),
            "{} threads: segment evolution differs from the serial loop",
            threads
        );
    }
    Ok(())
}

fn assert_amplitudes_match(
    fast: &StateVector,
    slow: &StateVector,
    what: &str,
) -> Result<(), String> {
    for (i, (a, b)) in fast.amplitudes().iter().zip(slow.amplitudes()).enumerate() {
        prop_assert!(
            (*a - *b).norm_sqr() < 1e-20,
            "{} amplitude {} differs: {:?} vs {:?}",
            what,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    /// The heart of the kernel-dispatch guarantee: specialised kernels
    /// (diagonal, anti-diagonal, CNOT/CZ/SWAP permutations, controlled
    /// phase, orbit-direct generic) are interchangeable with the original
    /// scan-and-skip dense path for every gate kind.
    #[test]
    fn specialised_kernels_match_generic_path(
        gate in arb_gate(),
        n in 3usize..7,
        r0 in 0usize..64,
        r1 in 0usize..64,
        r2 in 0usize..64,
        seed in 0u64..100_000
    ) {
        let qs = operands(n, r0, r1, r2);
        let ops = &qs[..gate.arity()];
        let mut fast = random_state(n, seed);
        let mut slow = fast.clone();
        fast.apply_gate(&gate, ops);
        reference::apply_gate(&mut slow, &gate, ops);
        assert_amplitudes_match(&fast, &slow, &format!("{gate} on {ops:?}"))?;
    }

    /// A kernel evolved on its own by segments is bit-identical to the
    /// serial kernel for any thread count (each amplitude's update is the
    /// same floating-point expression, only the executing thread changes).
    #[test]
    fn threaded_kernels_match_serial(
        n in 3usize..7,
        r0 in 0usize..64,
        r1 in 0usize..64,
        threads in 2usize..9,
        angle in -3.2f64..3.2,
        seed in 0u64..100_000
    ) {
        let qs = operands(n, r0, r1, 0);
        let m1 = match GateKind::Ry(angle).unitary() {
            cqasm::GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        let m2 = match GateKind::Cr(angle).unitary() {
            cqasm::GateUnitary::Two(m) => m,
            _ => unreachable!(),
        };
        let (k1, k2) = (KernelClass::General1q(m1), KernelClass::General2q(m2));
        let mut serial = random_state(n, seed);
        let mut threaded = serial.clone();
        serial.apply_1q(&m1, qs[0]);
        threaded.evolve(std::iter::once((&k1, &qs[..1])), threads);
        prop_assert_eq!(serial.amplitudes(), threaded.amplitudes());

        serial.apply_2q(&m2, qs[0], qs[1]);
        threaded.evolve(std::iter::once((&k2, &qs[..2])), threads);
        prop_assert_eq!(serial.amplitudes(), threaded.amplitudes());
    }

    /// Segment evolution is the serial kernel loop: random kernel lists
    /// holding every kernel class plus extra random ones, on 4–10 qubits,
    /// with operands on, across and below every chunk split (top-qubit
    /// kernels between segments, diagonals and controls spanning the
    /// split), evolve to exactly the serial amplitudes on 1, 2, 3, 4 and
    /// 8 threads.
    #[test]
    fn segment_evolution_equals_the_serial_kernel_loop(
        n in 4usize..11,
        extra in proptest::collection::vec(0usize..KernelClass::COUNT, 0..16),
        seed in 0u64..100_000
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut classes = extra;
        for class in 0..KernelClass::COUNT {
            let at = rng.gen_range(0..=classes.len());
            classes.insert(at, class);
        }
        let kernels: Vec<_> = classes.iter().map(|&c| random_kernel(c, n, &mut rng)).collect();
        assert_segments_match_serial(&kernels, &random_state(n, seed))?;
    }

    /// Fused plans compiled from random circuits on 4–10 qubits evolve by
    /// segments to exactly the serial loop's amplitudes on every forced
    /// thread count.
    #[test]
    fn segment_evolution_of_fused_plans_equals_the_serial_kernel_loop(
        n in 4usize..11,
        moves in proptest::collection::vec((arb_gate(), 0usize..64, 0usize..64, 0usize..64), 2..24),
        seed in 0u64..100_000
    ) {
        let mut b = Program::builder(n);
        for (gate, r0, r1, r2) in &moves {
            let qs = operands(n, *r0, *r1, *r2);
            b = b.gate(*gate, &qs[..gate.arity()]);
        }
        let plan = Simulator::perfect().compile(&b.build()).unwrap();
        let kernels: Vec<_> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                PlannedOp::Gate(g) => Some((g.kernel.clone(), g.qubits.clone())),
                _ => None,
            })
            .collect();
        assert_segments_match_serial(&kernels, &random_state(n, seed))?;
    }

    /// The compressed-counter multi-controlled kernel
    /// (`apply_controlled_1q`, the Toffoli path) matches the reference
    /// scan-and-skip implementation across whole random circuits — Toffoli
    /// applications interleaved with the rest of the gate library, on 3–5
    /// qubits, with every control/target assignment.
    #[test]
    fn controlled_1q_kernel_matches_reference_on_random_circuits(
        n in 3usize..6,
        moves in proptest::collection::vec((arb_gate(), 0usize..64, 0usize..64, 0usize..64), 1..12),
        seed in 0u64..100_000
    ) {
        let mut fast = random_state(n, seed);
        let mut slow = fast.clone();
        for (gate, r0, r1, r2) in &moves {
            let qs = operands(n, *r0, *r1, *r2);
            // Force a Toffoli between library gates so every circuit
            // exercises the multi-controlled kernel repeatedly.
            let x = match GateKind::X.unitary() {
                cqasm::GateUnitary::One(m) => m,
                _ => unreachable!(),
            };
            fast.apply_controlled_1q(&x, &qs[..2], qs[2]);
            reference::apply_controlled_1q(&mut slow, &x, &qs[..2], qs[2]);
            let ops = &qs[..gate.arity()];
            fast.apply_gate(gate, ops);
            reference::apply_gate(&mut slow, gate, ops);
        }
        assert_amplitudes_match(&fast, &slow, "controlled-1q circuit")?;
    }

    /// Fusion pass 1 (adjacent same-qubit 1q runs → one composed 2x2):
    /// the fused plan's final state matches the gate-by-gate reference
    /// oracle, and the unfused plan does too.
    #[test]
    fn fused_1q_runs_match_reference(
        n in 2usize..5,
        gates in proptest::collection::vec(arb_1q_gate(), 2..10),
        q in 0usize..5,
    ) {
        let q = q % n;
        let mut b = Program::builder(n);
        for g in &gates {
            b = b.gate(*g, &[q]);
        }
        let p = b.build();
        let fused_sim = Simulator::perfect();
        let stats = fused_sim.compile(&p).unwrap().fusion_stats();
        prop_assert!(stats.fused_1q_runs >= 1, "run of {} gates must fuse", gates.len());
        let slow = reference_evolution(&p);
        let fused = fused_sim.run_once(&p).unwrap().state;
        let unfused = Simulator::perfect().with_fusion(false).run_once(&p).unwrap().state;
        assert_amplitudes_match(&fused, &slow, "fused 1q run")?;
        assert_amplitudes_match(&unfused, &slow, "unfused 1q run")?;
    }

    /// Fusion pass 2 (consecutive diagonal gates → one strided table):
    /// a superposed prefix followed by a random diagonal chain evolves
    /// identically through the fused plan and the reference oracle.
    #[test]
    fn fused_diagonal_chains_match_reference(
        n in 2usize..6,
        chain in proptest::collection::vec((arb_diag_gate(), 0usize..64, 0usize..64), 2..12),
    ) {
        let mut b = Program::builder(n);
        for q in 0..n {
            b = b.gate(GateKind::H, &[q]);
        }
        for (g, r0, r1) in &chain {
            let q0 = r0 % n;
            let q1 = (q0 + 1 + r1 % (n - 1)) % n;
            let ops: Vec<usize> = if g.arity() == 1 { vec![q0] } else { vec![q0, q1] };
            b = b.gate(*g, &ops);
        }
        let p = b.build();
        let stats = Simulator::perfect().compile(&p).unwrap().fusion_stats();
        prop_assert!(stats.gates_after < stats.gates_before, "diagonal chain must shrink the plan");
        let slow = reference_evolution(&p);
        let fused = Simulator::perfect().run_once(&p).unwrap().state;
        assert_amplitudes_match(&fused, &slow, "fused diagonal chain")?;
    }

    /// Fusion pass 3 (small-support clusters → dense blocks) and all
    /// passes composed: arbitrary random circuits evolve identically
    /// through the fused plan, the unfused plan and the reference oracle.
    #[test]
    fn fused_plans_match_reference_on_random_circuits(
        n in 3usize..6,
        moves in proptest::collection::vec((arb_gate(), 0usize..64, 0usize..64, 0usize..64), 2..14),
    ) {
        let mut b = Program::builder(n);
        for (gate, r0, r1, r2) in &moves {
            let qs = operands(n, *r0, *r1, *r2);
            b = b.gate(*gate, &qs[..gate.arity()]);
        }
        let p = b.build();
        let slow = reference_evolution(&p);
        let fused = Simulator::perfect().run_once(&p).unwrap().state;
        let unfused = Simulator::perfect().with_fusion(false).run_once(&p).unwrap().state;
        assert_amplitudes_match(&fused, &slow, "fused random circuit")?;
        assert_amplitudes_match(&unfused, &slow, "unfused random circuit")?;
    }

    /// The strided marginal and the binary-search sampler agree with the
    /// original scan implementations on arbitrary states.
    #[test]
    fn probability_and_sampling_match_reference(
        n in 1usize..7,
        q in 0usize..7,
        seed in 0u64..100_000
    ) {
        let q = q % n;
        let s = random_state(n, seed);
        let fast = s.probability_one(q);
        let slow = reference::probability_one(&s, q);
        prop_assert!((fast - slow).abs() < 1e-12, "P(q{}=1): {} vs {}", q, fast, slow);

        let mut r1 = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        for _ in 0..16 {
            prop_assert_eq!(s.sample_all(&mut r1), reference::sample_all(&s, &mut r2));
        }
    }
}

//! Acceptance benchmark for the fast-path QX engine. Measures gate
//! throughput of the orbit-direct/specialised kernels against the original
//! scan-and-skip reference kernels, multi-shot sampling throughput of the
//! terminal-sampling fast path against full per-shot re-simulation, gate
//! fusion and the stabilizer engines, then writes the numbers to
//! `BENCH_qxsim.json`.
//!
//! Floors: ≥5x on 16-qubit CNOT application, ≥10x on noise-free 2000-shot
//! Bell sampling, ≥2x for fused over unfused plans on every fusion row and
//! ≥50x for a stabilizer engine over the state vector. The binary exits
//! with status 1, after writing the JSON, when any floor is missed.

use cqasm::{GateKind, GateUnitary, Program};
use qca_bench::{header, row};
use qxsim::state::reference;
use qxsim::{EngineSelect, Simulator, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Median-of-3 timing of `f`, each sample averaging `iters` calls.
fn time<F: FnMut()>(mut f: F, iters: u32) -> f64 {
    f(); // warm-up
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = start.elapsed().as_secs_f64() / iters as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

fn iters_for(n: usize) -> u32 {
    ((1u64 << 22) >> n).clamp(3, 1 << 12) as u32
}

fn dense_state(n: usize) -> StateVector {
    let mut s = StateVector::zero_state(n);
    for q in 0..n {
        s.apply_gate(&GateKind::H, &[q]);
        s.apply_gate(&GateKind::T, &[q]);
    }
    s
}

struct KernelRow {
    n: usize,
    gate: &'static str,
    new_gps: f64,
    ref_gps: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.new_gps / self.ref_gps
    }
}

/// The textbook QFT on `n` qubits: H on each line followed by the ladder
/// of controlled-phase rotations. Heavy on CRk chains, so the fusion pass
/// collapses the ladders into strided diagonal sweeps.
fn qft(n: usize) -> Program {
    let mut b = Program::builder(n);
    for i in 0..n {
        b = b.gate(GateKind::H, &[i]);
        for j in i + 1..n {
            b = b.gate(GateKind::CRk((j - i + 1) as u32), &[j, i]);
        }
    }
    b.build()
}

/// A GHZ chain: H then a CNOT ladder, closed by `measure_all`.
fn ghz(n: usize) -> Program {
    let mut b = Program::builder(n).gate(GateKind::H, &[0]);
    for q in 0..n - 1 {
        b = b.gate(GateKind::Cnot, &[q, q + 1]);
    }
    b.measure_all().build()
}

/// The wide GHZ the service acceptance test runs: 1000 qubits, with the
/// first 32 measured (the register ceiling caps `measure_all`).
fn ghz_wide(n: usize, measures: usize) -> Program {
    let mut b = Program::builder(n).gate(GateKind::H, &[0]);
    for q in 0..n - 1 {
        b = b.gate(GateKind::Cnot, &[q, q + 1]);
    }
    for q in 0..measures {
        b = b.measure(q);
    }
    b.build()
}

/// One row of the stabilizer-engine section.
struct StabRow {
    workload: &'static str,
    n: usize,
    shots: u64,
    engine: &'static str,
    shots_per_sec: f64,
    /// Speedup over the state-vector engine, when it can run the case.
    sv_speedup: Option<f64>,
}

/// A QAOA-style sweep on an `n`-qubit ring: `layers` alternations of a
/// diagonal cost layer (ring ZZ phases + local Rz) and an Rx mixer.
fn qaoa_sweep(n: usize, layers: usize) -> Program {
    let mut b = Program::builder(n);
    for q in 0..n {
        b = b.gate(GateKind::H, &[q]);
    }
    for layer in 0..layers {
        let gamma = 0.37 + 0.11 * layer as f64;
        let beta = 0.23 + 0.07 * layer as f64;
        for q in 0..n {
            b = b.gate(GateKind::Cr(gamma), &[q, (q + 1) % n]);
            b = b.gate(GateKind::Rz(-gamma / 2.0), &[q]);
        }
        for q in 0..n {
            b = b.gate(GateKind::Rx(2.0 * beta), &[q]);
        }
    }
    b.build()
}

struct FusionRow {
    circuit: &'static str,
    n: usize,
    gates_before: u64,
    gates_after: u64,
    fused_s: f64,
    unfused_s: f64,
    speedup: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times one full evolution of `program` through the fused and unfused
/// compiled plans, checking the two final states agree. The two plans run
/// in alternation, `pairs` times each after one warm-up pair, and the
/// speedup is the median of the per-pair ratios: a drift of the host's
/// speed between two measurements then moves both sides of a pair instead
/// of one side of the ratio.
fn fusion_row(circuit: &'static str, program: &Program, pairs: usize) -> FusionRow {
    let fused_sim = Simulator::perfect();
    let unfused_sim = Simulator::perfect().with_fusion(false);
    let fused_plan = fused_sim.compile(program).expect("fused plan compiles");
    let unfused_plan = unfused_sim.compile(program).expect("unfused plan compiles");
    let stats = fused_plan.fusion_stats();

    let fused_state = fused_sim
        .run_compiled(&fused_plan, &mut StdRng::seed_from_u64(1))
        .state;
    let unfused_state = unfused_sim
        .run_compiled(&unfused_plan, &mut StdRng::seed_from_u64(1))
        .state;
    for (a, b) in fused_state
        .amplitudes()
        .iter()
        .zip(unfused_state.amplitudes())
    {
        assert!(
            (*a - *b).norm_sqr() < 1e-18,
            "fused and unfused states must agree on {circuit}"
        );
    }

    let mut rng = StdRng::seed_from_u64(2);
    let mut evolve = |sim: &Simulator, plan| {
        let start = Instant::now();
        drop(sim.run_compiled(plan, &mut rng));
        start.elapsed().as_secs_f64()
    };
    let (mut fused, mut unfused, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..=pairs {
        let f = evolve(&fused_sim, &fused_plan);
        let u = evolve(&unfused_sim, &unfused_plan);
        if pair > 0 {
            fused.push(f);
            unfused.push(u);
            ratios.push(u / f);
        }
    }
    FusionRow {
        circuit,
        n: program.qubit_count(),
        gates_before: stats.gates_before,
        gates_after: stats.gates_after,
        fused_s: median(fused),
        unfused_s: median(unfused),
        speedup: median(ratios),
    }
}

fn main() {
    let sizes = [10usize, 16, 20];
    let mut rows: Vec<KernelRow> = Vec::new();

    println!("\n== QX kernel throughput (gates/sec, new vs reference) ==");
    header(&["n", "gate", "new g/s", "ref g/s", "speedup"]);
    for &n in &sizes {
        let iters = iters_for(n);
        let base = dense_state(n);
        let q = n / 2;
        let (hi, lo) = (n - 1, 1);

        let h = match GateKind::H.unitary() {
            GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        let cr = match GateKind::Cr(0.7).unitary() {
            GateUnitary::Two(m) => m,
            _ => unreachable!(),
        };

        // 1q: orbit/pair enumeration vs the reference strided kernel.
        let mut s = base.clone();
        let t_new = time(|| s.apply_1q(&h, q), iters);
        let mut s = base.clone();
        let t_ref = time(|| reference::apply_1q(&mut s, &h, q), iters);
        rows.push(KernelRow {
            n,
            gate: "h",
            new_gps: 1.0 / t_new,
            ref_gps: 1.0 / t_ref,
        });

        // 2q specialised: CNOT permutation kernel vs the scan-and-skip
        // dense 4x4 path the seed executed for every 2q gate.
        let mut s = base.clone();
        let t_new = time(|| s.apply_gate(&GateKind::Cnot, &[hi, lo]), iters);
        let mut s = base.clone();
        let t_ref = time(
            || reference::apply_gate(&mut s, &GateKind::Cnot, &[hi, lo]),
            iters,
        );
        rows.push(KernelRow {
            n,
            gate: "cnot",
            new_gps: 1.0 / t_new,
            ref_gps: 1.0 / t_ref,
        });

        // 2q generic: orbit-direct dense 4x4 vs scan-and-skip dense 4x4.
        let mut s = base.clone();
        let t_new = time(|| s.apply_2q(&cr, hi, lo), iters);
        let mut s = base.clone();
        let t_ref = time(|| reference::apply_2q(&mut s, &cr, hi, lo), iters);
        rows.push(KernelRow {
            n,
            gate: "cr(dense)",
            new_gps: 1.0 / t_new,
            ref_gps: 1.0 / t_ref,
        });
    }
    for r in &rows {
        row(&[
            r.n.to_string(),
            r.gate.to_string(),
            format!("{:.3e}", r.new_gps),
            format!("{:.3e}", r.ref_gps),
            format!("{:.2}x", r.speedup()),
        ]);
    }

    // Multi-shot sampling: terminal-sampling fast path vs full
    // re-simulation of every shot (identical histograms by construction;
    // asserted here as well).
    let bell = Program::builder(2)
        .gate(GateKind::H, &[0])
        .gate(GateKind::Cnot, &[0, 1])
        .measure_all()
        .build();
    let shots = 2000u64;
    // Pin to the state-vector engine: Bell is Clifford-terminal, so Auto
    // would route to the Pauli-frame sampler and this row stops measuring
    // the terminal-sampling fast path it documents.
    let fast_sim = Simulator::perfect()
        .with_seed(7)
        .with_engine_select(EngineSelect::StateVector);
    let slow_sim = fast_sim.clone().with_sampling_fast_path(false);
    assert_eq!(
        fast_sim.run_shots(&bell, shots).unwrap(),
        slow_sim.run_shots(&bell, shots).unwrap(),
        "fast path must be bit-identical to re-simulation"
    );
    let t_fast = time(|| drop(fast_sim.run_shots(&bell, shots).unwrap()), 20);
    let t_slow = time(|| drop(slow_sim.run_shots(&bell, shots).unwrap()), 3);
    let fast_sps = shots as f64 / t_fast;
    let slow_sps = shots as f64 / t_slow;
    let sampling_speedup = fast_sps / slow_sps;

    println!("\n== Bell 2000-shot sampling (shots/sec) ==");
    header(&["path", "shots/s", "speedup"]);
    row(&[
        "fast".into(),
        format!("{fast_sps:.3e}"),
        format!("{sampling_speedup:.1}x"),
    ]);
    row(&["full".into(), format!("{slow_sps:.3e}"), "1.0x".into()]);

    // Compiled-plan fusion: full-circuit evolution through the fused plan
    // (1q runs composed, diagonal chains batched, small clusters blocked)
    // against the same plan with fusion disabled.
    let fusion_rows = vec![
        fusion_row("qft-20", &qft(20), 9),
        fusion_row("qaoa-sweep-20", &qaoa_sweep(20, 4), 9),
    ];
    println!("\n== Compiled-plan fusion (full-circuit evolution) ==");
    header(&["circuit", "n", "gates", "fused s", "unfused s", "speedup"]);
    for r in &fusion_rows {
        row(&[
            r.circuit.to_string(),
            r.n.to_string(),
            format!("{}->{}", r.gates_before, r.gates_after),
            format!("{:.3}", r.fused_s),
            format!("{:.3}", r.unfused_s),
            format!("{:.2}x", r.speedup),
        ]);
    }

    // Stabilizer engines: the Clifford fast paths the dispatcher selects
    // by circuit class. GHZ-20 runs on the Pauli-frame sampler, the
    // tableau executor and the state-vector engine (all exact), pinning
    // the dispatch win where every engine can run; GHZ-1000 and the d=5
    // surface ESM round sit far beyond the state-vector qubit ceiling.
    let mut stab_rows: Vec<StabRow> = Vec::new();
    let shots = 2000u64;

    let ghz20 = ghz(20);
    let frame_sim = Simulator::perfect()
        .with_seed(7)
        .with_engine_select(EngineSelect::PauliFrame);
    let tab_sim = Simulator::perfect()
        .with_seed(7)
        .with_engine_select(EngineSelect::Tableau);
    let sv_sim = Simulator::perfect()
        .with_seed(7)
        .with_engine_select(EngineSelect::StateVector);
    let frame_hist = frame_sim.run_shots(&ghz20, shots).unwrap();
    assert_eq!(
        frame_hist,
        sv_sim.run_shots(&ghz20, shots).unwrap(),
        "stabilizer engines must be bit-identical to the state vector"
    );
    assert_eq!(frame_hist, tab_sim.run_shots(&ghz20, shots).unwrap());
    let t_frame = time(|| drop(frame_sim.run_shots(&ghz20, shots).unwrap()), 20);
    let t_tab = time(|| drop(tab_sim.run_shots(&ghz20, shots).unwrap()), 5);
    let t_sv = time(|| drop(sv_sim.run_shots(&ghz20, shots).unwrap()), 3);
    stab_rows.push(StabRow {
        workload: "ghz-20",
        n: 20,
        shots,
        engine: "pauli_frame",
        shots_per_sec: shots as f64 / t_frame,
        sv_speedup: Some(t_sv / t_frame),
    });
    stab_rows.push(StabRow {
        workload: "ghz-20",
        n: 20,
        shots,
        engine: "tableau",
        shots_per_sec: shots as f64 / t_tab,
        sv_speedup: Some(t_sv / t_tab),
    });

    let ghz1000 = ghz_wide(1000, 32);
    let auto_sim = Simulator::perfect().with_seed(5);
    let t_wide = time(|| drop(auto_sim.run_shots(&ghz1000, shots).unwrap()), 3);
    stab_rows.push(StabRow {
        workload: "ghz-1000",
        n: 1000,
        shots,
        engine: "pauli_frame",
        shots_per_sec: shots as f64 / t_wide,
        sv_speedup: None,
    });

    let code = qec::SurfaceCode::new(5).to_stabilizer_code();
    let (esm, _) = qec::esm::esm_program_ancilla_first(&code, 1);
    let esm_shots = 256u64;
    let t_esm = time(|| drop(auto_sim.run_shots(&esm, esm_shots).unwrap()), 3);
    stab_rows.push(StabRow {
        workload: "surface-d5-esm-round",
        n: esm.qubit_count(),
        shots: esm_shots,
        engine: "tableau",
        shots_per_sec: esm_shots as f64 / t_esm,
        sv_speedup: None,
    });

    // The QEC Monte-Carlo workload: circuit-level ESM trials on the
    // stabilizer tableau (error injection, syndrome extraction, decode).
    let trials = 2000u64;
    let t_monte = time(
        || {
            let _ = qec::monte::surface_circuit_error_rate(5, 0.01, trials, 21);
        },
        3,
    );
    stab_rows.push(StabRow {
        workload: "qec-monte-d5",
        n: 42,
        shots: trials,
        engine: "tableau",
        shots_per_sec: trials as f64 / t_monte,
        sv_speedup: None,
    });

    println!("\n== Stabilizer engines (Clifford dispatch) ==");
    header(&["workload", "n", "shots", "engine", "shots/s", "vs sv"]);
    for r in &stab_rows {
        row(&[
            r.workload.to_string(),
            r.n.to_string(),
            r.shots.to_string(),
            r.engine.to_string(),
            format!("{:.3e}", r.shots_per_sec),
            r.sv_speedup.map_or("n/a".into(), |s| format!("{s:.1}x")),
        ]);
    }

    let stab_speedup = stab_rows
        .iter()
        .filter_map(|r| r.sv_speedup)
        .fold(0.0f64, f64::max);

    let two_q_16 = rows
        .iter()
        .find(|r| r.n == 16 && r.gate == "cnot")
        .map(|r| r.speedup())
        .unwrap_or(0.0);
    let min_fusion = fusion_rows
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nAcceptance: 16-qubit 2q speedup {two_q_16:.2}x (target >= 5x), \
         Bell sampling speedup {sampling_speedup:.1}x (target >= 10x), \
         fusion speedup {min_fusion:.2}x (target >= 2x), \
         stabilizer vs state-vector {stab_speedup:.0}x (target >= 50x)"
    );

    let mut json = String::from("{\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"gate\": \"{}\", \"new_gates_per_sec\": {:.1}, \
             \"ref_gates_per_sec\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.n,
            r.gate,
            r.new_gps,
            r.ref_gps,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sampling\": {{\"program\": \"bell\", \"shots\": {shots}, \
         \"fast_shots_per_sec\": {fast_sps:.1}, \"full_shots_per_sec\": {slow_sps:.1}, \
         \"speedup\": {sampling_speedup:.3}}},\n"
    ));
    json.push_str("  \"fusion\": [\n");
    for (i, r) in fusion_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"n\": {}, \"gates_before\": {}, \"gates_after\": {}, \
             \"fused_sec\": {:.4}, \"unfused_sec\": {:.4}, \"speedup\": {:.3}}}{}\n",
            r.circuit,
            r.n,
            r.gates_before,
            r.gates_after,
            r.fused_s,
            r.unfused_s,
            r.speedup,
            if i + 1 == fusion_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"stabilizer\": [\n");
    for (i, r) in stab_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"n\": {}, \"shots\": {}, \"engine\": \"{}\", \
             \"shots_per_sec\": {:.1}, \"sv_speedup\": {}}}{}\n",
            r.workload,
            r.n,
            r.shots,
            r.engine,
            r.shots_per_sec,
            r.sv_speedup.map_or("null".into(), |s| format!("{s:.3}")),
            if i + 1 == stab_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"targets\": {{\"two_qubit_16q_speedup_min\": 5.0, \"two_qubit_16q_speedup\": {two_q_16:.3}, \
         \"bell_sampling_speedup_min\": 10.0, \"bell_sampling_speedup\": {sampling_speedup:.3}, \
         \"fusion_speedup_min\": 2.0, \"fusion_speedup\": {min_fusion:.3}, \
         \"stabilizer_speedup_min\": 50.0, \"stabilizer_speedup\": {stab_speedup:.3}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_qxsim.json", &json).expect("write BENCH_qxsim.json");
    println!("\nWrote BENCH_qxsim.json");

    let missed: Vec<&str> = [
        (two_q_16 >= 5.0, "16-qubit 2q speedup"),
        (sampling_speedup >= 10.0, "Bell sampling speedup"),
        (min_fusion >= 2.0, "fusion speedup"),
        (stab_speedup >= 50.0, "stabilizer vs state-vector"),
    ]
    .into_iter()
    .filter_map(|(held, floor)| (!held).then_some(floor))
    .collect();
    if !missed.is_empty() {
        eprintln!("floor missed: {}", missed.join(", "));
        std::process::exit(1);
    }
}

//! Stack-level telemetry integration tests: span nesting across layers,
//! counter determinism under threading, exporter round-trips, and the
//! sampling fast-path regression pins from the observability work.

use cqasm::Program;
use qca_core::telemetry::{json, validate_chrome_trace, Snapshot};
use qca_core::{ExecutionBackend, FullStack, QubitKind, Telemetry};
use qxsim::{EngineSelect, Simulator};

fn bell() -> Program {
    Program::parse("version 1.0\nqubits 2\n.bell\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n")
        .expect("bell parses")
}

fn ghz(n: usize) -> Program {
    let mut text = format!("version 1.0\nqubits {n}\n.ghz\nh q[0]\n");
    for q in 0..n - 1 {
        text.push_str(&format!("cnot q[{q}], q[{}]\n", q + 1));
    }
    text.push_str("measure_all\n");
    Program::parse(&text).expect("ghz parses")
}

/// Walks `span`'s parent chain and returns true if it passes through the
/// span at `ancestor`.
fn has_ancestor(snapshot: &Snapshot, mut index: usize, ancestor: usize) -> bool {
    while let Some(parent) = snapshot.spans[index].parent {
        if parent == ancestor {
            return true;
        }
        index = parent;
    }
    false
}

fn find_span(snapshot: &Snapshot, cat: &str, name: &str) -> usize {
    snapshot
        .spans
        .iter()
        .position(|s| s.cat == cat && s.name == name)
        .unwrap_or_else(|| panic!("no span {cat}/{name}"))
}

#[test]
fn spans_nest_across_all_stack_layers() {
    let telemetry = Telemetry::enabled();
    FullStack::superconducting(1, 2)
        .with_backend(ExecutionBackend::QxSimulator)
        .with_qubits(QubitKind::Perfect)
        .with_telemetry(telemetry.clone())
        .execute_cqasm(&bell(), 50)
        .expect("sim backend runs");
    FullStack::superconducting(1, 2)
        .with_qubits(QubitKind::Perfect)
        .with_telemetry(telemetry.clone())
        .execute_cqasm(&bell(), 2)
        .expect("microarch backend runs");

    let snap = telemetry.snapshot();
    let execute = find_span(&snap, "stack", "execute");
    let compile = find_span(&snap, "openql", "compile");
    let run_shots = find_span(&snap, "qxsim", "run_shots");
    let translate = find_span(&snap, "eqasm", "translate");

    assert_eq!(snap.spans[execute].depth, 0);
    assert!(has_ancestor(&snap, compile, execute));
    assert!(has_ancestor(&snap, run_shots, execute));
    // Every openql pass span nests under a compile span.
    for (i, span) in snap.spans.iter().enumerate() {
        if span.cat == "openql" && span.name != "compile" {
            let parent = span.parent.expect("pass spans have a parent");
            assert_eq!(snap.spans[parent].name, "compile");
            assert_eq!(span.depth, snap.spans[parent].depth + 1);
            assert!(i > parent);
        }
    }
    // The eqasm translation belongs to the second (micro-architecture)
    // stack execution.
    let root = {
        let mut at = translate;
        while let Some(p) = snap.spans[at].parent {
            at = p;
        }
        at
    };
    assert_eq!(snap.spans[root].cat, "stack");
    assert!(root > execute, "translate hangs off the second execute");
    assert!(snap.spans.iter().all(|s| s.closed));
}

#[test]
fn counters_are_bit_identical_across_thread_counts() {
    let program = ghz(6);
    let mut reports = Vec::new();
    for threads in [1usize, 2, 4] {
        let telemetry = Telemetry::enabled();
        // Disable the terminal-sampling shortcut so the threaded shot loop
        // (and its per-worker kernel-dispatch counters) actually runs.
        // Pin the state-vector engine: the GHZ chain is Clifford and
        // would otherwise auto-dispatch to the stabilizer fast path.
        let sim = Simulator::perfect()
            .with_seed(0xD15C0)
            .with_engine_select(EngineSelect::StateVector)
            .with_sampling_fast_path(false)
            .with_telemetry(telemetry.clone());
        let plan = sim.compile(&program).expect("compiles");
        let hist = sim.run_shots_planned(&plan, 600, threads).expect("runs");
        reports.push((hist, telemetry.counters_json()));
    }
    let (hist0, counters0) = &reports[0];
    for (hist, counters) in &reports[1..] {
        assert_eq!(hist, hist0, "histograms must not depend on threads");
        assert_eq!(counters, counters0, "counters must not depend on threads");
    }
    // The deterministic export carries the kernel-dispatch histogram. The
    // GHZ chain's leading H + CNOTs fuse into a dense block under the
    // default plan options, so the fused class shows up here.
    assert!(counters0.contains("qxsim.kernel_dispatch"));
    assert!(counters0.contains("FusedBlock"));
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let telemetry = Telemetry::enabled();
    FullStack::superconducting(1, 2)
        .with_backend(ExecutionBackend::QxSimulator)
        .with_qubits(QubitKind::Perfect)
        .with_telemetry(telemetry.clone())
        .execute_cqasm(&bell(), 20)
        .expect("runs");

    let trace = telemetry.export_chrome_trace();
    let check = validate_chrome_trace(&trace).expect("trace is schema-valid");
    assert!(check.events >= 4);
    assert!(check.categories.contains("openql"));
    assert!(check.categories.contains("qxsim"));

    // Independent structural check via the JSON parser: every event is a
    // complete "X" duration event.
    let value = json::parse(&trace).expect("trace parses as JSON");
    let events = match value.get("traceEvents") {
        Some(json::JsonValue::Array(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert_eq!(events.len(), check.events);
    for event in events {
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(event.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(event.get("dur").and_then(|v| v.as_f64()).is_some());
        assert!(event
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(|v| v.as_f64())
            .is_some());
    }
}

#[test]
fn metrics_report_round_trips_through_the_json_parser() {
    let telemetry = Telemetry::enabled();
    FullStack::superconducting(1, 2)
        .with_backend(ExecutionBackend::QxSimulator)
        .with_qubits(QubitKind::Perfect)
        .with_telemetry(telemetry.clone())
        .execute_cqasm(&bell(), 20)
        .expect("runs");

    let report = json::parse(&telemetry.export_json()).expect("metrics parse");
    assert_eq!(report.get("version").and_then(|v| v.as_f64()), Some(1.0));
    let counters = match report.get("counters") {
        Some(json::JsonValue::Object(map)) => map,
        other => panic!("counters missing: {other:?}"),
    };
    assert_eq!(
        counters
            .get("qxsim.shots.executed")
            .and_then(|v| v.as_f64()),
        Some(20.0)
    );
    let snap = telemetry.snapshot();
    assert_eq!(
        report.get("spans").map(|s| match s {
            json::JsonValue::Array(a) => a.len(),
            _ => 0,
        }),
        Some(snap.spans.len())
    );
}

/// Satellite regression: the `StdRng::first_f64` sampling shortcut and the
/// cumulative-table fast path must produce exactly the same shot
/// histograms as full per-shot re-simulation, in telemetry-enabled runs,
/// for a fixed seed.
#[test]
fn sampling_fast_path_matches_full_resimulation_bell() {
    let program = bell();
    let telemetry = Telemetry::enabled();
    // Bell is Clifford; pin the state-vector engine so the sampling
    // fast path (not the stabilizer sampler) is what gets exercised.
    let fast = Simulator::perfect()
        .with_seed(0xB311)
        .with_engine_select(EngineSelect::StateVector)
        .with_telemetry(telemetry.clone());
    let slow = fast.clone().with_sampling_fast_path(false);
    let fast_hist = fast.run_shots(&program, 2000).expect("fast path runs");
    let slow_hist = slow.run_shots(&program, 2000).expect("full path runs");
    assert_eq!(fast_hist, slow_hist);

    let snap = telemetry.snapshot();
    let paths = snap.labeled.get("qxsim.sampling_fast_path").expect("label");
    assert_eq!(paths.get("hit"), Some(&1));
    assert_eq!(paths.get("miss"), Some(&1));
}

#[test]
fn sampling_fast_path_matches_full_resimulation_ghz16() {
    let program = ghz(16);
    let telemetry = Telemetry::enabled();
    let fast = Simulator::perfect()
        .with_seed(0x61216)
        .with_engine_select(EngineSelect::StateVector)
        .with_telemetry(telemetry.clone());
    let slow = fast.clone().with_sampling_fast_path(false);
    let fast_hist = fast.run_shots(&program, 200).expect("fast path runs");
    let slow_hist = slow.run_shots(&program, 200).expect("full path runs");
    assert_eq!(fast_hist, slow_hist);
    // GHZ: only the all-zeros and all-ones strings may appear.
    for (bits, _) in fast_hist.iter() {
        assert!(bits == 0 || bits == (1 << 16) - 1);
    }
}

#[test]
fn stack_run_exposes_pass_metrics_and_kernel_dispatch() {
    let telemetry = Telemetry::enabled();
    let run = FullStack::superconducting(1, 4)
        .with_backend(ExecutionBackend::QxSimulator)
        .with_qubits(QubitKind::Perfect)
        .with_telemetry(telemetry)
        .execute_cqasm(&ghz(4), 100)
        .expect("runs");

    let names: Vec<&str> = run.compile.passes.iter().map(|p| p.name).collect();
    assert!(names.contains(&"decompose"));
    assert!(names.contains(&"route"));
    assert!(names.contains(&"schedule"));
    for pair in run.compile.passes.windows(2) {
        assert_eq!(pair[0].after, pair[1].before, "pass stats must chain");
    }
    assert!(run.compile.cycles_asap > 0);
    assert!(run.compile.cycles_alap > 0);

    let dispatch = run.kernel_dispatch();
    assert!(!dispatch.is_empty(), "kernel dispatch histogram is exposed");
    assert!(dispatch.values().all(|&v| v > 0));
}

/// Satellite (PR 7): the fault-tolerance counters are deterministic —
/// running the same seeded fault scenario twice produces the exact same
/// `service.retries.*` / `service.workers.*` counter values, and the
/// hardened front-end counters appear under their documented names.
#[test]
fn service_fault_counters_are_deterministic() {
    use qca_service::{JobFaults, JobSpec, RetryPolicy, Service, ServiceConfig};
    use std::time::Duration;

    let run_scenario = || -> (String, qxsim::ShotHistogram) {
        let telemetry = Telemetry::enabled();
        let service = Service::with_telemetry(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            telemetry.clone(),
        );
        let handle = service.handle();
        // One job that panics once then succeeds, one that burns two
        // transient faults, one that exhausts its budget.
        let healed = handle
            .submit(
                JobSpec::new("qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n")
                    .with_seed(7)
                    .with_shots(400)
                    .with_faults(JobFaults {
                        panic_attempts: 1,
                        fail_attempts: 0,
                    })
                    .with_retry(RetryPolicy::with_attempts(3, 0)),
            )
            .expect("submit");
        let retried = handle
            .submit(
                JobSpec::new("qubits 2\nh q[0]\nmeasure_all\n")
                    .with_seed(8)
                    .with_shots(300)
                    .with_faults(JobFaults {
                        panic_attempts: 0,
                        fail_attempts: 2,
                    })
                    .with_retry(RetryPolicy::with_attempts(3, 0)),
            )
            .expect("submit");
        let doomed = handle
            .submit(
                JobSpec::new("qubits 1\nx q[0]\nmeasure_all\n")
                    .with_seed(9)
                    .with_shots(200)
                    .with_faults(JobFaults {
                        panic_attempts: 0,
                        fail_attempts: 99,
                    })
                    .with_retry(RetryPolicy::with_attempts(2, 0)),
            )
            .expect("submit");

        let healed_outcome = handle
            .wait(healed, Duration::from_secs(30))
            .expect("healed job succeeds");
        assert_eq!(healed_outcome.attempts, 2);
        let retried_outcome = handle
            .wait(retried, Duration::from_secs(30))
            .expect("retried job succeeds");
        assert_eq!(retried_outcome.attempts, 3);
        assert!(handle.wait(doomed, Duration::from_secs(30)).is_err());
        // Let supervision finish before shutting down: a shutdown that
        // races the dying worker suppresses its respawn (by design), and
        // this test pins the exact healed-pool counter values.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while handle.stats().respawns < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "pool never respawned: {:?}",
                handle.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        service.shutdown();

        let counters = telemetry.counters_json();
        (counters, healed_outcome.histogram.clone())
    };

    let (counters_a, histogram_a) = run_scenario();
    let (counters_b, histogram_b) = run_scenario();

    let parsed = json::parse(&counters_a).expect("counters export is JSON");
    let count = |name: &str| -> f64 {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(qca_core::telemetry::json::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("missing counter {name} in {counters_a}"))
    };
    // healed: 1 panic retry; retried: 2 fault retries; doomed: 1 retry
    // then exhaustion.
    assert_eq!(count("service.retries.scheduled"), 4.0);
    assert_eq!(count("service.retries.exhausted"), 1.0);
    assert_eq!(count("service.workers.panics"), 1.0);
    assert_eq!(count("service.workers.respawns"), 1.0);

    assert_eq!(
        counters_a, counters_b,
        "seeded fault scenarios must produce identical counters"
    );
    assert_eq!(
        histogram_a, histogram_b,
        "seeded fault scenarios must produce identical histograms"
    );
}

/// The hardened TCP front-end counts shed connections, oversized frames
/// and read timeouts under stable names.
#[test]
fn tcp_hardening_counters_use_documented_names() {
    use qca_service::{Service, ServiceConfig, TcpConfig, TcpServer};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let telemetry = Telemetry::enabled();
    let service = Service::with_telemetry(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        telemetry.clone(),
    );
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        service.handle(),
        TcpConfig {
            max_request_bytes: 512,
            read_timeout: Some(Duration::from_millis(100)),
            ..TcpConfig::default()
        },
    )
    .expect("bind");

    // Oversized frame.
    let mut abuser = TcpStream::connect(server.local_addr()).expect("connect");
    abuser
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    abuser
        .write_all("y".repeat(2048).as_bytes())
        .and_then(|()| abuser.write_all(b"\n"))
        .expect("write");
    let mut response = String::new();
    BufReader::new(abuser.try_clone().expect("clone"))
        .read_line(&mut response)
        .expect("read");
    assert!(response.contains("frame_too_large"), "{response:?}");

    // Stalled client: wait for the server's read timeout to cut us off.
    let mut loris = TcpStream::connect(server.local_addr()).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    loris.write_all(b"{\"verb\":").expect("write");
    let mut buf = String::new();
    let n = BufReader::new(loris.try_clone().expect("clone"))
        .read_line(&mut buf)
        .expect("read");
    assert_eq!(n, 0, "stalled connection must be closed");

    server.stop();
    service.shutdown();

    let counters = telemetry.counters_json();
    let parsed = json::parse(&counters).expect("counters export is JSON");
    let count = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(qca_core::telemetry::json::JsonValue::as_f64)
    };
    assert_eq!(count("service.tcp.oversized"), Some(1.0), "{counters}");
    assert_eq!(count("service.tcp.timeouts"), Some(1.0), "{counters}");
}

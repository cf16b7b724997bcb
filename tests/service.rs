//! Integration tests for the serving runtime: determinism across worker
//! counts, warm-cache bit-identity (the plan cache must skip compilation
//! entirely), the TCP front-end, and fault tolerance — worker
//! supervision, seeded retry, shutdown draining and front-end hardening.

use qca_service::{
    JobFaults, JobId, JobSpec, JobStatus, RetryPolicy, Service, ServiceConfig, ServiceError,
    TcpConfig, TcpServer, TenantConfig,
};
use qca_telemetry::json::{self, JsonValue};
use qca_telemetry::Telemetry;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const BELL: &str = "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n";
const GHZ4: &str =
    "qubits 4\nh q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\ncnot q[2], q[3]\nmeasure_all\n";

fn mixed_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for seed in 0..4 {
        jobs.push(JobSpec::new(BELL).with_seed(seed).with_shots(3000));
        jobs.push(JobSpec::new(GHZ4).with_seed(seed).with_shots(2000));
    }
    // Large enough to shard on the multi-worker services.
    jobs.push(JobSpec::new(BELL).with_seed(99).with_shots(30_000));
    jobs
}

fn run_all(service: &Service, jobs: &[JobSpec]) -> Vec<qxsim::ShotHistogram> {
    let handle = service.handle();
    let ids: Vec<_> = jobs
        .iter()
        .map(|spec| handle.submit(spec.clone()).unwrap())
        .collect();
    ids.iter()
        .map(|&id| {
            handle
                .wait(id, Duration::from_secs(120))
                .unwrap()
                .histogram
                .clone()
        })
        .collect()
}

#[test]
fn histograms_are_bit_identical_across_worker_counts() {
    let jobs = mixed_jobs();
    let mut per_pool = Vec::new();
    for workers in [1usize, 2, 4] {
        let service = Service::with_config(ServiceConfig {
            workers,
            shard_min_shots: 4096,
            ..ServiceConfig::default()
        });
        per_pool.push(run_all(&service, &jobs));
        service.shutdown();
    }
    for pool in &per_pool[1..] {
        assert_eq!(
            &per_pool[0], pool,
            "worker count must not change any histogram"
        );
    }
}

fn compile_span_count(telemetry: &Telemetry) -> usize {
    telemetry
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "compile" || s.cat == "openql")
        .count()
}

#[test]
fn warm_cache_skips_compilation_and_reproduces_the_cold_run() {
    let telemetry = Telemetry::enabled();
    let service = Service::with_telemetry(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        telemetry.clone(),
    );
    let handle = service.handle();
    let spec = JobSpec::new(GHZ4).with_seed(1234).with_shots(5000);

    let cold = handle
        .wait(
            handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(60),
        )
        .unwrap();
    assert!(!cold.cache_hit);
    let spans_after_cold = compile_span_count(&telemetry);
    assert!(spans_after_cold > 0, "the cold run must compile");
    let hits_after_cold = handle.stats().cache.hits;

    let warm = handle
        .wait(handle.submit(spec).unwrap(), Duration::from_secs(60))
        .unwrap();
    assert!(
        warm.cache_hit,
        "second submission must be served from cache"
    );
    assert_eq!(
        handle.stats().cache.hits,
        hits_after_cold + 1,
        "the cache-hit counter must increment"
    );
    assert_eq!(
        compile_span_count(&telemetry),
        spans_after_cold,
        "a warm run must emit no compile span at all"
    );
    assert_eq!(
        telemetry.snapshot().counters.get("service.cache.hit"),
        Some(&1),
        "telemetry must record the cache hit"
    );
    assert_eq!(
        cold.histogram, warm.histogram,
        "same seed ⇒ cached and fresh-compiled runs are bit-identical"
    );
    service.shutdown();
}

#[test]
fn a_fresh_service_reproduces_a_warm_service_bit_for_bit() {
    let spec = JobSpec::new(BELL).with_seed(77).with_shots(4000);
    // Warm service: compile once, then serve the measured run from cache.
    let warm_service = Service::with_config(ServiceConfig::default());
    let handle = warm_service.handle();
    handle
        .wait(
            handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(60),
        )
        .unwrap();
    let warm = handle
        .wait(
            handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(60),
        )
        .unwrap();
    assert!(warm.cache_hit);
    warm_service.shutdown();
    // Cold service: fresh compile of the same job.
    let cold_service = Service::with_config(ServiceConfig::default());
    let cold_handle = cold_service.handle();
    let cold = cold_handle
        .wait(cold_handle.submit(spec).unwrap(), Duration::from_secs(60))
        .unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.histogram, warm.histogram);
    cold_service.shutdown();
}

struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        WireClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn ask(&mut self, line: &str) -> JsonValue {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        json::parse(&response).unwrap()
    }
}

fn wire_histogram(result: &JsonValue) -> BTreeMap<String, u64> {
    match result.get("histogram") {
        Some(JsonValue::Object(map)) => map
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap() as u64))
            .collect(),
        other => panic!("no histogram in {other:?}"),
    }
}

#[test]
fn tcp_front_end_round_trips_jobs_and_exposes_cache_stats() {
    let telemetry = Telemetry::enabled();
    let service = Service::with_telemetry(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        telemetry.clone(),
    );
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let mut client = WireClient::connect(server.local_addr());

    let bell_wire = "qubits 2\\nh q[0]\\ncnot q[0], q[1]\\nmeasure_all\\n";
    let submit =
        format!("{{\"verb\":\"submit\",\"circuit\":\"{bell_wire}\",\"shots\":2000,\"seed\":5}}");

    // Cold run over the wire.
    let response = client.ask(&submit);
    assert_eq!(
        response.get("ok"),
        Some(&JsonValue::Bool(true)),
        "{response:?}"
    );
    let job = response.get("job").and_then(JsonValue::as_f64).unwrap() as u64;
    let cold = client.ask(&format!(
        "{{\"verb\":\"result\",\"job\":{job},\"timeout_ms\":60000}}"
    ));
    assert_eq!(cold.get("cache_hit"), Some(&JsonValue::Bool(false)));
    assert_eq!(cold.get("shots").and_then(JsonValue::as_f64), Some(2000.0));
    let spans_after_cold = compile_span_count(&telemetry);

    // Warm run: identical submission must cache-hit, emit no compile span
    // and return a bit-identical histogram.
    let response = client.ask(&submit);
    let warm_job = response.get("job").and_then(JsonValue::as_f64).unwrap() as u64;
    let warm = client.ask(&format!(
        "{{\"verb\":\"result\",\"job\":{warm_job},\"timeout_ms\":60000}}"
    ));
    assert_eq!(warm.get("cache_hit"), Some(&JsonValue::Bool(true)));
    assert_eq!(compile_span_count(&telemetry), spans_after_cold);
    assert_eq!(wire_histogram(&cold), wire_histogram(&warm));

    // Status of a finished job, stats, and typed errors over the wire.
    let status = client.ask(&format!("{{\"verb\":\"status\",\"job\":{job}}}"));
    assert_eq!(
        status.get("status").and_then(JsonValue::as_str),
        Some("done")
    );
    let stats = client.ask("{\"verb\":\"stats\"}");
    assert!(
        stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(JsonValue::as_f64)
            .unwrap()
            >= 1.0
    );
    let missing = client.ask("{\"verb\":\"status\",\"job\":424242}");
    assert_eq!(missing.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        missing.get("error").and_then(JsonValue::as_str),
        Some("unknown_job")
    );
    let garbage = client.ask("{\"verb\":\"submit\",\"circuit\":\"qubits 1\\nwarp q[0]\\n\"}");
    assert_eq!(garbage.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        garbage.get("error").and_then(JsonValue::as_str),
        Some("parse")
    );

    server.stop();
    service.shutdown();
}

/// Satellite: supervision liveness. A worker killed mid-job (injected
/// panic, no retry budget) must surface as a typed `WorkerPanic` — not a
/// `WaitTimeout` — the pool must respawn to its configured size, and an
/// identical resubmission must then succeed with a histogram
/// bit-identical to a clean service's run.
#[test]
fn a_worker_panic_is_a_typed_failure_and_the_pool_heals() {
    let service = Service::with_config(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let spec = JobSpec::new(BELL).with_seed(4242).with_shots(1500);

    let doomed = handle
        .submit(spec.clone().with_faults(JobFaults {
            panic_attempts: u32::MAX,
            fail_attempts: 0,
        }))
        .unwrap();
    match handle.wait(doomed, Duration::from_secs(30)) {
        Err(ServiceError::WorkerPanic { message }) => {
            assert!(
                message.contains("injected worker panic"),
                "panic payload must survive into the typed error: {message}"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The pool must heal back to its configured size, with the panic and
    // the respawn accounted. (The replacement worker is spawned before
    // the dying one retires, so `workers_live` may never visibly dip —
    // poll on the counters too.)
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = handle.stats();
        if stats.workers_live == stats.workers && stats.panics >= 1 && stats.respawns >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never healed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The same job without faults must now run to a bit-identical result.
    let healed = handle
        .wait(
            handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(30),
        )
        .unwrap();
    let clean_service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let clean_handle = clean_service.handle();
    let clean = clean_handle
        .wait(clean_handle.submit(spec).unwrap(), Duration::from_secs(30))
        .unwrap();
    assert_eq!(
        healed.histogram, clean.histogram,
        "a healed pool must not perturb results"
    );
    clean_service.shutdown();
    service.shutdown();
}

/// Transient faults burn attempts; the job then succeeds with the exact
/// histogram a fault-free run produces (retries replay the same per-shot
/// RNG streams) and reports its attempt count.
#[test]
fn retried_jobs_reproduce_the_fault_free_histogram_bit_for_bit() {
    let spec = JobSpec::new(GHZ4).with_seed(90210).with_shots(2500);
    let clean_service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let clean_handle = clean_service.handle();
    let clean = clean_handle
        .wait(
            clean_handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(30),
        )
        .unwrap();
    assert_eq!(clean.attempts, 1);
    clean_service.shutdown();

    let service = Service::with_config(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let faulty = spec
        .with_faults(JobFaults {
            panic_attempts: 0,
            fail_attempts: 2,
        })
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1,
            jitter_seed: 99,
        });
    let outcome = handle
        .wait(handle.submit(faulty).unwrap(), Duration::from_secs(30))
        .unwrap();
    assert_eq!(outcome.attempts, 3, "two faults + one success");
    assert_eq!(
        outcome.histogram, clean.histogram,
        "retries must be bit-invisible in the result"
    );
    let stats = handle.stats();
    assert_eq!(stats.retries_scheduled, 2);
    assert_eq!(stats.retries_exhausted, 0);
    service.shutdown();
}

/// More faults than attempts: the failure is typed, terminal and counted
/// as an exhausted retry — never a hang.
#[test]
fn exhausted_retries_fail_with_a_typed_error() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let spec = JobSpec::new(BELL)
        .with_shots(500)
        .with_faults(JobFaults {
            panic_attempts: 0,
            fail_attempts: u32::MAX,
        })
        .with_retry(RetryPolicy::with_attempts(3, 0));
    match handle.wait(handle.submit(spec).unwrap(), Duration::from_secs(30)) {
        Err(ServiceError::Execute(msg)) => {
            assert!(msg.contains("injected transient fault"), "{msg}");
        }
        other => panic!("expected an execute failure, got {other:?}"),
    }
    let stats = handle.stats();
    assert_eq!(stats.retries_scheduled, 2);
    assert_eq!(stats.retries_exhausted, 1);
    service.shutdown();
}

/// Compile errors are permanent: no retry budget may be spent on them.
#[test]
fn compile_failures_are_never_retried() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    // Parses fine but exceeds the dense simulator's qubit capacity at
    // plan compile time (the `t` keeps it off the stabilizer engines,
    // which would happily serve 31 Clifford qubits).
    let spec = JobSpec::new("qubits 31\nt q[0]\nmeasure_all\n")
        .with_shots(10)
        .with_retry(RetryPolicy::with_attempts(4, 0));
    match handle.wait(handle.submit(spec).unwrap(), Duration::from_secs(30)) {
        Err(ServiceError::Compile(_)) => {}
        other => panic!("expected a compile failure, got {other:?}"),
    }
    assert_eq!(
        handle.stats().retries_scheduled,
        0,
        "deterministic failures must not burn retries"
    );
    service.shutdown();
}

/// `shutdown_now` must leave no waiter stranded: queued jobs fail with
/// the typed `ShuttingDown`, in-flight jobs settle normally.
#[test]
fn shutdown_now_fails_queued_jobs_with_a_typed_error() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    // Pin the single worker with a slow job, then queue distinct jobs
    // behind it (distinct seeds, so they cannot coalesce).
    let mut ids = vec![handle
        .submit(JobSpec::new(GHZ4).with_seed(1).with_shots(4000))
        .unwrap()];
    for seed in 2..6 {
        ids.push(
            handle
                .submit(JobSpec::new(BELL).with_seed(seed).with_shots(2000))
                .unwrap(),
        );
    }
    service.shutdown_now();
    let mut shut_down = 0;
    for id in ids {
        match handle.wait(id, Duration::from_secs(10)) {
            Ok(_) => {}
            Err(ServiceError::ShuttingDown) => shut_down += 1,
            other => panic!("job must be terminal after shutdown_now, got {other:?}"),
        }
    }
    assert!(
        shut_down >= 1,
        "at least one queued job must observe ShuttingDown"
    );
}

/// An oversized request frame draws a typed error and a disconnect —
/// while a concurrent well-behaved connection keeps working.
#[test]
fn oversized_frames_are_rejected_without_affecting_other_clients() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let config = TcpConfig {
        max_request_bytes: 1024,
        ..TcpConfig::default()
    };
    let server = TcpServer::bind_with("127.0.0.1:0", service.handle(), config).unwrap();
    let mut good = WireClient::connect(server.local_addr());

    let mut abuser = TcpStream::connect(server.local_addr()).unwrap();
    abuser
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    abuser.write_all("x".repeat(5000).as_bytes()).unwrap();
    abuser.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(abuser.try_clone().unwrap())
        .read_line(&mut response)
        .unwrap();
    let parsed = json::parse(&response).unwrap();
    assert_eq!(
        parsed.get("error").and_then(JsonValue::as_str),
        Some("frame_too_large")
    );

    // The well-behaved connection is unaffected, and the incident is
    // visible both in-process and over the wire (PR-7 counters were
    // previously telemetry-only).
    let stats = good.ask("{\"verb\":\"stats\"}");
    assert_eq!(stats.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        stats
            .get("tcp")
            .and_then(|t| t.get("oversized"))
            .and_then(JsonValue::as_f64),
        Some(1.0),
        "oversized frames must be queryable via stats: {stats:?}"
    );
    assert_eq!(service.handle().stats().tcp.oversized, 1);
    server.stop();
    service.shutdown();
}

/// A stalling (slow-loris) client is disconnected once the read timeout
/// elapses instead of pinning a connection thread forever.
#[test]
fn stalled_clients_are_disconnected_by_the_read_timeout() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let config = TcpConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..TcpConfig::default()
    };
    let server = TcpServer::bind_with("127.0.0.1:0", service.handle(), config).unwrap();
    let mut loris = TcpStream::connect(server.local_addr()).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half a request, then silence: the server must hang up on us.
    loris.write_all(b"{\"verb\":\"sta").unwrap();
    let mut buf = String::new();
    let n = BufReader::new(loris.try_clone().unwrap())
        .read_line(&mut buf)
        .unwrap();
    assert_eq!(n, 0, "server must close a stalled connection, got {buf:?}");
    server.stop();
    service.shutdown();
}

/// Connections beyond the cap are shed with an immediate `overloaded`
/// response instead of a serving thread.
#[test]
fn connections_beyond_the_cap_are_shed_with_overloaded() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let config = TcpConfig {
        max_connections: 1,
        ..TcpConfig::default()
    };
    let server = TcpServer::bind_with("127.0.0.1:0", service.handle(), config).unwrap();
    // First client occupies the only slot (and proves it works).
    let mut first = WireClient::connect(server.local_addr());
    let stats = first.ask("{\"verb\":\"stats\"}");
    assert_eq!(stats.get("ok"), Some(&JsonValue::Bool(true)));
    // Second client must be shed.
    let shed = TcpStream::connect(server.local_addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    BufReader::new(shed.try_clone().unwrap())
        .read_line(&mut response)
        .unwrap();
    let parsed = json::parse(&response).unwrap();
    assert_eq!(
        parsed.get("error").and_then(JsonValue::as_str),
        Some("overloaded"),
        "{response:?}"
    );
    drop(first);
    server.stop();
    service.shutdown();
}

/// Observability: every settled job carries an ordered lifecycle record
/// (admit ≤ claim ≤ exec start ≤ settle) and the aggregate latency
/// summary on [`ServiceStats`] reflects the settled population.
#[test]
fn lifecycle_records_are_ordered_and_feed_latency_summaries() {
    let service = Service::with_config(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let ids: Vec<_> = (0..4)
        .map(|seed| {
            handle
                .submit(JobSpec::new(BELL).with_seed(seed).with_shots(1500))
                .unwrap()
        })
        .collect();
    for &id in &ids {
        handle.wait(id, Duration::from_secs(60)).unwrap();
    }

    for &id in &ids {
        let lc = handle.lifecycle(id).unwrap();
        assert_eq!(lc.status, "done");
        let claim = lc.claim_us.expect("settled job has a claim stamp");
        let exec = lc.exec_start_us.expect("settled job has an exec stamp");
        let settle = lc.settle_us.expect("settled job has a settle stamp");
        assert!(
            lc.admit_us <= claim && claim <= exec && exec <= settle,
            "stage stamps must be ordered: admit {} claim {claim} exec {exec} settle {settle}",
            lc.admit_us
        );
    }
    // The four distinct seeds share one circuit: the first execution
    // compiles, later ones may cache-hit, so at least one record carries
    // a compile duration.
    assert!(
        ids.iter()
            .any(|&id| handle.lifecycle(id).unwrap().compile_us.is_some()),
        "at least one job must record its compile time"
    );

    let stats = handle.stats();
    assert_eq!(stats.latency.jobs_measured, ids.len() as u64);
    assert!(
        stats.latency.e2e_p50_us <= stats.latency.e2e_p99_us,
        "p50 must not exceed p99"
    );
    assert!(
        stats.latency.e2e_p50_us >= stats.latency.queue_wait_p50_us,
        "e2e includes the queue wait"
    );
    assert_eq!(
        handle.lifecycle(qca_service::JobId(424242)).unwrap_err(),
        ServiceError::UnknownJob(424242)
    );
    service.shutdown();
}

/// Observability: `trace_sample_n = 1` traces every job with per-stage
/// `service.job` spans; `trace_sample_n = 0` suppresses both the spans
/// and the sampled flag. Sampling keys off the content hash, so the
/// decision is reproducible run to run.
#[test]
fn trace_sampling_is_deterministic_and_emits_job_spans() {
    let job_spans = |telemetry: &Telemetry| -> Vec<String> {
        telemetry
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.cat == "service.job")
            .map(|s| s.name.clone())
            .collect()
    };
    let run_with_sampling = |n: u64| -> (bool, Vec<String>) {
        let telemetry = Telemetry::enabled();
        let service = Service::with_telemetry(
            ServiceConfig {
                workers: 1,
                trace_sample_n: n,
                ..ServiceConfig::default()
            },
            telemetry.clone(),
        );
        let handle = service.handle();
        let id = handle
            .submit(JobSpec::new(GHZ4).with_seed(7).with_shots(1000))
            .unwrap();
        handle.wait(id, Duration::from_secs(60)).unwrap();
        let sampled = handle.lifecycle(id).unwrap().sampled;
        let spans = job_spans(&telemetry);
        service.shutdown();
        (sampled, spans)
    };

    let (sampled, spans) = run_with_sampling(1);
    assert!(sampled, "trace_sample_n=1 must sample every job");
    for stage in ["queue_wait", "execute", "e2e"] {
        assert!(
            spans.iter().any(|name| name.ends_with(stage)),
            "missing {stage} span in {spans:?}"
        );
    }

    let (sampled, spans) = run_with_sampling(0);
    assert!(!sampled, "trace_sample_n=0 must disable sampling");
    assert!(spans.is_empty(), "no job spans expected, got {spans:?}");
}

/// Observability over the wire: `metrics` returns an embedded JSON
/// report (and a Prometheus exposition that passes the validator), and
/// `trace` exposes the lifecycle record of a job.
#[test]
fn metrics_and_trace_verbs_round_trip_over_tcp() {
    let service = Service::with_telemetry(
        ServiceConfig {
            workers: 1,
            trace_sample_n: 1,
            ..ServiceConfig::default()
        },
        Telemetry::enabled(),
    );
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let mut client = WireClient::connect(server.local_addr());

    let bell_wire = "qubits 2\\nh q[0]\\ncnot q[0], q[1]\\nmeasure_all\\n";
    let submit =
        format!("{{\"verb\":\"submit\",\"circuit\":\"{bell_wire}\",\"shots\":1000,\"seed\":3}}");
    let response = client.ask(&submit);
    let job = response.get("job").and_then(JsonValue::as_f64).unwrap() as u64;
    client.ask(&format!(
        "{{\"verb\":\"result\",\"job\":{job},\"timeout_ms\":60000}}"
    ));

    // JSON form embeds the full metrics report as an object.
    let metrics = client.ask("{\"verb\":\"metrics\"}");
    assert_eq!(metrics.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        metrics.get("format").and_then(JsonValue::as_str),
        Some("json")
    );
    let report = metrics.get("metrics").expect("embedded report");
    assert!(
        report.get("hists").is_some(),
        "metrics report must include the histogram section: {report:?}"
    );

    // Prometheus form passes the schema validator and exposes the
    // service latency histograms.
    let metrics = client.ask("{\"verb\":\"metrics\",\"format\":\"prometheus\"}");
    let text = metrics
        .get("metrics")
        .and_then(JsonValue::as_str)
        .expect("prometheus text");
    let check = qca_telemetry::prometheus::validate(text).expect("valid exposition");
    assert!(
        check
            .histograms
            .iter()
            .any(|name| name.starts_with("service_latency_")),
        "expected a service latency histogram in {:?}",
        check.histograms
    );

    // `trace` returns the job's lifecycle stamps.
    let trace = client.ask(&format!("{{\"verb\":\"trace\",\"job\":{job}}}"));
    assert_eq!(trace.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(trace.get("sampled"), Some(&JsonValue::Bool(true)));
    let admit = trace.get("admit_us").and_then(JsonValue::as_f64).unwrap();
    let settle = trace.get("settle_us").and_then(JsonValue::as_f64).unwrap();
    assert!(admit <= settle, "trace stamps must be ordered: {trace:?}");
    let missing = client.ask("{\"verb\":\"trace\",\"job\":424242}");
    assert_eq!(missing.get("ok"), Some(&JsonValue::Bool(false)));

    server.stop();
    service.shutdown();
}

/// A wide, deep circuit whose execution takes real wall-clock time:
/// `layers` alternating rounds of Hadamards and a CNOT chain over
/// `qubits` qubits. Shot counts do not buy time (sampling is performed
/// per outcome, not per shot), so tests that need a busy worker use
/// gate count instead.
fn heavy_circuit(qubits: usize, layers: usize) -> String {
    let mut s = format!("qubits {qubits}\n");
    for _ in 0..layers {
        for q in 0..qubits {
            s.push_str(&format!("h q[{q}]\n"));
        }
        for q in 0..qubits - 1 {
            s.push_str(&format!("cnot q[{q}], q[{}]\n", q + 1));
        }
    }
    s.push_str("measure_all\n");
    s
}

/// Satellite: multi-tenancy on the wire. A tenant-tagged submission
/// lands in its configured lane, the per-tenant counters (weight,
/// quota, queued, submitted, completed, shed) are published by the
/// `stats` verb, and a quota shed surfaces as the typed `tenant_quota`
/// error kind — all through the TCP front-end.
#[test]
fn tenant_stats_and_quota_sheds_round_trip_over_the_wire() {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        tenants: vec![
            TenantConfig::new("batch", 1).with_quota(1),
            TenantConfig::new("vip", 3),
        ],
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let mut client = WireClient::connect(server.local_addr());

    let bell_wire = "qubits 2\\nh q[0]\\ncnot q[0], q[1]\\nmeasure_all\\n";
    // A compute-heavy untagged job (shots are sampled in O(outcomes), so
    // only gate count buys wall-clock time) pins the single worker on
    // the default lane; the batch submissions below then stay queued
    // against their quota.
    let heavy_wire = heavy_circuit(16, 6).replace('\n', "\\n");
    let plug = client.ask(&format!(
        "{{\"verb\":\"submit\",\"circuit\":\"{heavy_wire}\",\"seed\":9}}"
    ));
    let plug_job = plug.get("job").and_then(JsonValue::as_f64).unwrap() as u64;

    // Pipeline a burst of batch submissions in one TCP write so they hit
    // admission back to back — a request/response loop would let the
    // worker drain the lane between round trips and never trip the
    // quota. The handler processes them in order; with the worker pinned
    // (or merely ~1ms per job), at least one lands on a full lane.
    let mut burst = String::new();
    for seed in 1..=20u64 {
        burst.push_str(&format!(
            "{{\"verb\":\"submit\",\"circuit\":\"{bell_wire}\",\"seed\":{seed},\"tenant\":\"batch\"}}\n"
        ));
    }
    client.writer.write_all(burst.as_bytes()).unwrap();
    let mut batch_jobs = Vec::new();
    let mut shed_seen = false;
    for _ in 0..20 {
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let response = json::parse(&line).unwrap();
        if response.get("ok") == Some(&JsonValue::Bool(true)) {
            batch_jobs.push(response.get("job").and_then(JsonValue::as_f64).unwrap() as u64);
        } else {
            assert_eq!(
                response.get("error").and_then(JsonValue::as_str),
                Some("tenant_quota"),
                "a quota shed must be the typed tenant_quota kind: {response:?}"
            );
            shed_seen = true;
        }
    }
    assert!(
        shed_seen,
        "20 pipelined submissions against a quota of 1 never tripped it"
    );

    let stats = client.ask("{\"verb\":\"stats\"}");
    let tenants = match stats.get("tenants") {
        Some(JsonValue::Array(items)) => items.clone(),
        other => panic!("stats must publish a tenants array, got {other:?}"),
    };
    let lane = |name: &str| {
        tenants
            .iter()
            .find(|t| t.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("lane {name} missing from {tenants:?}"))
            .clone()
    };
    let batch = lane("batch");
    assert_eq!(batch.get("weight").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(batch.get("quota").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(
        batch.get("submitted").and_then(JsonValue::as_f64),
        Some(batch_jobs.len() as f64),
        "every admitted batch job must be counted: {batch:?}"
    );
    assert!(
        batch.get("shed").and_then(JsonValue::as_f64).unwrap() >= 1.0,
        "the quota rejection must be counted: {batch:?}"
    );
    let vip = lane("vip");
    assert_eq!(vip.get("weight").and_then(JsonValue::as_f64), Some(3.0));
    assert_eq!(vip.get("quota"), Some(&JsonValue::Null));
    assert_eq!(vip.get("submitted").and_then(JsonValue::as_f64), Some(0.0));

    // Every admitted job completes; afterwards nothing is queued and the
    // batch lane records exactly its own completions.
    for job in std::iter::once(plug_job).chain(batch_jobs.iter().copied()) {
        let result = client.ask(&format!(
            "{{\"verb\":\"result\",\"job\":{job},\"timeout_ms\":120000}}"
        ));
        assert_eq!(result.get("ok"), Some(&JsonValue::Bool(true)), "{result:?}");
    }
    let stats = client.ask("{\"verb\":\"stats\"}");
    let tenants = match stats.get("tenants") {
        Some(JsonValue::Array(items)) => items.clone(),
        other => panic!("stats must publish a tenants array, got {other:?}"),
    };
    let batch = tenants
        .iter()
        .find(|t| t.get("name").and_then(JsonValue::as_str) == Some("batch"))
        .unwrap();
    assert_eq!(batch.get("queued").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(
        batch.get("completed").and_then(JsonValue::as_f64),
        Some(batch_jobs.len() as f64)
    );

    server.stop();
    service.shutdown();
}

/// A non-Clifford circuit with a mid-circuit measurement: every shot is
/// interpreted on the full 2^14 state vector, so a few hundred shots keep
/// one worker busy for ~0.1 s (release) to ~1 s (debug).
fn pin_circuit() -> String {
    let mut s = String::from("qubits 14\nt q[0]\n");
    for q in 0..14 {
        s.push_str(&format!("h q[{q}]\n"));
    }
    s.push_str("measure q[0]\n");
    for q in 0..14 {
        s.push_str(&format!("h q[{q}]\n"));
    }
    s.push_str("measure_all\n");
    s
}

/// Concurrent admission: threads released together by a barrier submit
/// distinct jobs to a one-worker service whose worker is pinned. Every
/// ticket is unique, admission stops exactly at `queue_capacity`, every
/// refusal is a counted `QueueFull`, every admitted job completes, and
/// each thread's jobs are claimed in its own submit order.
#[test]
fn concurrent_submits_get_unique_tickets_and_respect_capacity() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 16;
    const CAPACITY: usize = 24;
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: CAPACITY,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let pin = handle
        .submit(JobSpec::new(pin_circuit()).with_shots(400))
        .unwrap();
    while handle.poll(pin).unwrap() != JobStatus::Running {
        std::thread::yield_now();
    }

    let start = Arc::new(Barrier::new(THREADS as usize));
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let handle = handle.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..PER_THREAD)
                    .map(|i| handle.submit(JobSpec::new(BELL).with_seed(t * PER_THREAD + i)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let per_thread: Vec<Vec<JobId>> = submitters
        .into_iter()
        .map(|submitter| {
            submitter
                .join()
                .unwrap()
                .into_iter()
                .filter_map(|result| match result {
                    Ok(id) => Some(id),
                    Err(err) => {
                        assert_eq!(err, ServiceError::QueueFull { capacity: CAPACITY });
                        None
                    }
                })
                .collect()
        })
        .collect();

    // Nothing can have left the queue while the pin held the worker.
    assert_eq!(
        handle.poll(pin).unwrap(),
        JobStatus::Running,
        "the pin must outlast the submitters for the capacity check to hold"
    );
    let admitted: Vec<JobId> = per_thread.iter().flatten().copied().collect();
    let refused = (THREADS * PER_THREAD) as usize - admitted.len();
    let unique: HashSet<_> = admitted.iter().collect();
    assert_eq!(unique.len(), admitted.len(), "duplicate tickets issued");
    assert!(!unique.contains(&pin), "the pin's ticket was reissued");
    assert_eq!(
        admitted.len(),
        CAPACITY,
        "admission must stop exactly at capacity"
    );
    let stats = handle.stats();
    assert_eq!(stats.queued, CAPACITY);
    assert_eq!(stats.rejected, refused as u64);
    assert_eq!(stats.submitted, CAPACITY as u64 + 1);

    handle.wait(pin, Duration::from_secs(120)).unwrap();
    for &id in &admitted {
        handle.wait(id, Duration::from_secs(120)).unwrap();
    }
    for ids in &per_thread {
        let claims: Vec<u64> = ids
            .iter()
            .map(|&id| handle.lifecycle(id).unwrap().claim_us.unwrap())
            .collect();
        assert!(
            claims.windows(2).all(|pair| pair[0] <= pair[1]),
            "a thread's jobs must be claimed in its submit order: {claims:?}"
        );
    }
    assert_eq!(handle.stats().completed, CAPACITY as u64 + 1);
    service.shutdown();
}

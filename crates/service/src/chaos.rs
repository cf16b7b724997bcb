//! Service-layer chaos campaign: seeded fault scenarios against a live
//! in-process service (and, for the wire scenarios, a real TCP
//! front-end on a loopback socket).
//!
//! Sibling of [`qca_core::chaos`] (which attacks the compiler stack) —
//! this module attacks the *serving* layer: worker panics, transient
//! execution faults, retry exhaustion, mid-`wait` cancellation, abrupt
//! shutdown, oversized/malformed frames and client disconnects. Every
//! case asserts the serving invariants that matter for a shared
//! accelerator endpoint:
//!
//! 1. **No stranded waiters** — every submitted job reaches a terminal
//!    state (`done`/`failed`/`cancelled`) within a generous bound; a
//!    `WaitTimeout` is a campaign failure, not a tolerated flake.
//! 2. **The pool heals** — after every injected worker panic the live
//!    worker count returns to the configured size.
//! 3. **Bit-reproducible success** — a histogram produced through
//!    retries is bit-identical to a fault-free run of the same spec.
//! 4. **The daemon outlives its clients** — oversized frames, malformed
//!    JSON and abrupt disconnects draw typed errors (or a clean close)
//!    on that connection only; the next connection is served normally.
//!
//! Cases are derived from `seed + i * CASE_SEED_STRIDE`, so a failing
//! case can be replayed in isolation with [`run_case`].

use crate::job::{JobFaults, JobSpec, RetryPolicy, ServiceError};
use crate::service::{Service, ServiceConfig};
use crate::tcp::{TcpConfig, TcpServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-case seed stride (same constant family as the other campaigns).
pub const CASE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// How long a single job may take to reach a terminal state before the
/// case is declared hung. Generous: campaign circuits are tiny.
const TERMINAL_BOUND: Duration = Duration::from_secs(30);

/// The fault scenario a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A worker panics mid-job; retry succeeds and the pool respawns.
    WorkerPanicHeals,
    /// Transient execution faults burn attempts, then the job succeeds.
    TransientRetry,
    /// More faults than attempts: the job fails with a typed error.
    RetryExhausted,
    /// A panic with no retry budget: typed `WorkerPanic`, pool heals.
    PanicNoRetry,
    /// A queued job is cancelled while another waiter blocks on it.
    CancelMidWait,
    /// `shutdown_now` fails queued jobs with `ShuttingDown`.
    ShutdownNow,
    /// A client sends a frame over the limit and gets `frame_too_large`.
    OversizedFrame,
    /// A client sends malformed JSON and gets `bad_request`.
    MalformedFrame,
    /// A client submits and vanishes; the job still completes.
    ClientDisconnect,
    /// Tenant flooders hammer admission while another thread calls
    /// `shutdown_now`: every accepted job settles typed, every rejection
    /// is typed backpressure — nothing admitted is stranded.
    TenantFloodShutdown,
    /// A manual cache-snapshot save races `shutdown_now`'s own save; the
    /// file that survives is either loadable or a typed decode error on
    /// the next start — never a panic, never a half-warm cache.
    SnapshotShutdownRace,
    /// Admission into a full queue while the pool respawns a panicked
    /// worker: overflow draws typed `QueueFull`, everything admitted
    /// settles, and the pool heals.
    FullQueueRespawn,
}

/// All scenarios, in the order the campaign cycles through them.
pub const SCENARIOS: [Scenario; 12] = [
    Scenario::WorkerPanicHeals,
    Scenario::TransientRetry,
    Scenario::RetryExhausted,
    Scenario::PanicNoRetry,
    Scenario::CancelMidWait,
    Scenario::ShutdownNow,
    Scenario::OversizedFrame,
    Scenario::MalformedFrame,
    Scenario::ClientDisconnect,
    Scenario::TenantFloodShutdown,
    Scenario::SnapshotShutdownRace,
    Scenario::FullQueueRespawn,
];

/// One case's verdict.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed (replayable with [`run_case`]).
    pub seed: u64,
    /// Which scenario ran.
    pub scenario: Scenario,
    /// `None` when every invariant held; otherwise what broke.
    pub failure: Option<String>,
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases run.
    pub cases: u64,
    /// Cases where every invariant held.
    pub passed: u64,
    /// Seeds (with scenario and detail) of failing cases.
    pub failures: Vec<CaseReport>,
}

impl CampaignReport {
    /// `true` when every case passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `cases` seeded fault scenarios and aggregates the verdicts.
///
/// Injected worker panics are expected here, so the default panic hook
/// (which prints a backtrace per panic) is silenced for the duration —
/// same discipline as [`qca_core::chaos`]. `--replay` via [`run_case`]
/// keeps the hook, for verbose diagnosis of a failing seed.
pub fn run_campaign(seed: u64, cases: u64) -> CampaignReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut report = CampaignReport::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i.wrapping_mul(CASE_SEED_STRIDE));
        let case = run_case(case_seed);
        report.cases += 1;
        if case.failure.is_none() {
            report.passed += 1;
        } else {
            report.failures.push(case);
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

/// Runs the single case derived from `seed` (replay entry point).
pub fn run_case(seed: u64) -> CaseReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = SCENARIOS[rng.gen_range(0..SCENARIOS.len())];
    let failure = match scenario {
        Scenario::WorkerPanicHeals => worker_panic_heals(&mut rng),
        Scenario::TransientRetry => transient_retry(&mut rng),
        Scenario::RetryExhausted => retry_exhausted(&mut rng),
        Scenario::PanicNoRetry => panic_no_retry(&mut rng),
        Scenario::CancelMidWait => cancel_mid_wait(&mut rng),
        Scenario::ShutdownNow => shutdown_now_fails_queued(&mut rng),
        Scenario::OversizedFrame => oversized_frame(&mut rng),
        Scenario::MalformedFrame => malformed_frame(&mut rng),
        Scenario::ClientDisconnect => client_disconnect(&mut rng),
        Scenario::TenantFloodShutdown => tenant_flood_shutdown(&mut rng),
        Scenario::SnapshotShutdownRace => snapshot_shutdown_race(&mut rng, seed),
        Scenario::FullQueueRespawn => full_queue_respawn(&mut rng),
    };
    CaseReport {
        seed,
        scenario,
        failure,
    }
}

/// A small service tuned for fast chaos cases.
fn small_service(rng: &mut StdRng) -> Service {
    Service::with_config(ServiceConfig {
        workers: rng.gen_range(1..=2),
        ..ServiceConfig::default()
    })
}

/// One of the campaign's tiny circuits.
fn pick_circuit(rng: &mut StdRng) -> &'static str {
    const CIRCUITS: [&str; 3] = [
        "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n",
        "qubits 3\nh q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\nmeasure_all\n",
        "qubits 2\nh q[0]\nmeasure q[0]\nc-x b[0], q[1]\nmeasure_all\n",
    ];
    CIRCUITS[rng.gen_range(0..CIRCUITS.len())]
}

/// A randomised fault-free spec for this case.
fn base_spec(rng: &mut StdRng) -> JobSpec {
    let mut spec = JobSpec::new(pick_circuit(rng));
    spec.shots = rng.gen_range(50..400);
    spec.seed = rng.gen_range(0..u64::from(u32::MAX));
    spec
}

/// The fault-free oracle: the same spec on a fresh single-worker
/// service. Retried runs must reproduce this bit for bit.
fn reference_histogram(spec: &JobSpec) -> Result<qxsim::ShotHistogram, String> {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let mut clean = spec.clone();
    clean.faults = JobFaults::none();
    clean.retry = RetryPolicy::none();
    let id = handle
        .submit(clean)
        .map_err(|e| format!("reference submit failed: {e}"))?;
    let outcome = handle
        .wait(id, TERMINAL_BOUND)
        .map_err(|e| format!("reference run failed: {e}"))?;
    service.shutdown();
    Ok(outcome.histogram.clone())
}

/// Waits for the worker pool to report its configured size again.
fn pool_heals(handle: &crate::service::ServiceHandle, want: usize) -> Option<String> {
    let deadline = std::time::Instant::now() + TERMINAL_BOUND;
    while std::time::Instant::now() < deadline {
        if handle.stats().workers_live == want {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Some(format!(
        "pool did not heal to {want} workers (live: {})",
        handle.stats().workers_live
    ))
}

fn worker_panic_heals(rng: &mut StdRng) -> Option<String> {
    let service = small_service(rng);
    let workers = service.handle().stats().workers;
    let spec = base_spec(rng)
        .with_faults(JobFaults {
            panic_attempts: 1,
            fail_attempts: 0,
        })
        .with_retry(RetryPolicy {
            max_attempts: rng.gen_range(2..=4),
            backoff_base_ms: rng.gen_range(0..3),
            jitter_seed: rng.gen_range(0..1_000),
        });
    let reference = match reference_histogram(&spec) {
        Ok(h) => h,
        Err(e) => return Some(e),
    };
    let handle = service.handle();
    let id = match handle.submit(spec) {
        Ok(id) => id,
        Err(e) => return Some(format!("submit failed: {e}")),
    };
    let outcome = match handle.wait(id, TERMINAL_BOUND) {
        Ok(o) => o,
        Err(e) => return Some(format!("job did not survive a worker panic: {e}")),
    };
    if outcome.attempts < 2 {
        return Some(format!(
            "expected a retried attempt, got {}",
            outcome.attempts
        ));
    }
    if outcome.histogram != reference {
        return Some("retried histogram diverged from the fault-free run".to_string());
    }
    if let Some(fail) = pool_heals(&handle, workers) {
        return Some(fail);
    }
    if handle.stats().panics == 0 {
        return Some("panic was not counted".to_string());
    }
    service.shutdown();
    None
}

fn transient_retry(rng: &mut StdRng) -> Option<String> {
    let service = small_service(rng);
    let fail_attempts = rng.gen_range(1..=2);
    let spec = base_spec(rng)
        .with_faults(JobFaults {
            panic_attempts: 0,
            fail_attempts,
        })
        .with_retry(RetryPolicy {
            max_attempts: fail_attempts + rng.gen_range(1_u32..=2),
            backoff_base_ms: rng.gen_range(0..3),
            jitter_seed: rng.gen_range(0..1_000),
        });
    let reference = match reference_histogram(&spec) {
        Ok(h) => h,
        Err(e) => return Some(e),
    };
    let handle = service.handle();
    let id = match handle.submit(spec) {
        Ok(id) => id,
        Err(e) => return Some(format!("submit failed: {e}")),
    };
    let outcome = match handle.wait(id, TERMINAL_BOUND) {
        Ok(o) => o,
        Err(e) => return Some(format!("job did not survive transient faults: {e}")),
    };
    if outcome.attempts != fail_attempts + 1 {
        return Some(format!(
            "expected {} attempts, got {}",
            fail_attempts + 1,
            outcome.attempts
        ));
    }
    if outcome.histogram != reference {
        return Some("retried histogram diverged from the fault-free run".to_string());
    }
    if handle.stats().retries_scheduled < u64::from(fail_attempts) {
        return Some("retries were not counted".to_string());
    }
    service.shutdown();
    None
}

fn retry_exhausted(rng: &mut StdRng) -> Option<String> {
    let service = small_service(rng);
    let max_attempts = rng.gen_range(1..=3);
    let spec = base_spec(rng)
        .with_faults(JobFaults {
            panic_attempts: 0,
            fail_attempts: max_attempts + 2,
        })
        .with_retry(RetryPolicy {
            max_attempts,
            backoff_base_ms: rng.gen_range(0..2),
            jitter_seed: 7,
        });
    let handle = service.handle();
    let id = match handle.submit(spec) {
        Ok(id) => id,
        Err(e) => return Some(format!("submit failed: {e}")),
    };
    match handle.wait(id, TERMINAL_BOUND) {
        Ok(_) => Some("job succeeded despite exhausted retries".to_string()),
        Err(ServiceError::Execute(_)) => {
            let stats = handle.stats();
            if max_attempts > 1 && stats.retries_exhausted == 0 {
                return Some("exhaustion was not counted".to_string());
            }
            service.shutdown();
            None
        }
        Err(other) => Some(format!("expected a typed execute failure, got: {other}")),
    }
}

fn panic_no_retry(rng: &mut StdRng) -> Option<String> {
    let service = small_service(rng);
    let workers = service.handle().stats().workers;
    let spec = base_spec(rng).with_faults(JobFaults {
        panic_attempts: 9,
        fail_attempts: 0,
    });
    let handle = service.handle();
    let id = match handle.submit(spec) {
        Ok(id) => id,
        Err(e) => return Some(format!("submit failed: {e}")),
    };
    match handle.wait(id, TERMINAL_BOUND) {
        Ok(_) => Some("job succeeded despite a persistent panic".to_string()),
        Err(ServiceError::WorkerPanic { .. }) => {
            if let Some(fail) = pool_heals(&handle, workers) {
                return Some(fail);
            }
            service.shutdown();
            None
        }
        Err(ServiceError::WaitTimeout) => {
            Some("waiter timed out: panicking job never settled".to_string())
        }
        Err(other) => Some(format!("expected WorkerPanic, got: {other}")),
    }
}

fn cancel_mid_wait(rng: &mut StdRng) -> Option<String> {
    // Single worker, pinned by a slow job, so the victim stays queued.
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let mut slow =
        JobSpec::new("qubits 10\nh q[0]\nmeasure q[0]\nc-x b[0], q[1]\nh q[2]\nmeasure_all\n");
    slow.shots = 2_000;
    slow.seed = rng.gen_range(0..1_000);
    let _pin = match handle.submit(slow) {
        Ok(id) => id,
        Err(e) => return Some(format!("pin submit failed: {e}")),
    };
    let victim = match handle.submit(base_spec(rng)) {
        Ok(id) => id,
        Err(e) => return Some(format!("victim submit failed: {e}")),
    };
    // Cancel from a second thread while this one blocks in wait().
    let canceller = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            handle.cancel(victim)
        })
    };
    let waited = handle.wait(victim, TERMINAL_BOUND);
    let cancelled = matches!(canceller.join(), Ok(Ok(true)));
    let verdict = match waited {
        Err(ServiceError::Cancelled) if cancelled => None,
        // The worker got to the victim before the canceller: a completed
        // job is also a valid terminal state for this race.
        Ok(_) if !cancelled => None,
        Err(ServiceError::WaitTimeout) => Some("waiter timed out on a cancelled job".to_string()),
        other => Some(format!(
            "unexpected wait outcome (cancelled={cancelled}): {other:?}"
        )),
    };
    service.shutdown();
    verdict
}

fn shutdown_now_fails_queued(rng: &mut StdRng) -> Option<String> {
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    let mut ids = Vec::new();
    for _ in 0..rng.gen_range(2..5) {
        match handle.submit(base_spec(rng)) {
            Ok(id) => ids.push(id),
            Err(e) => return Some(format!("submit failed: {e}")),
        }
    }
    service.shutdown_now();
    // Every job must be terminal: done (it ran before the shutdown won
    // the race) or failed with a typed shutdown/pool error.
    for id in ids {
        match handle.wait(id, Duration::from_secs(5)) {
            Ok(_) => {}
            Err(ServiceError::ShuttingDown | ServiceError::WorkerPanic { .. }) => {}
            Err(ServiceError::WaitTimeout) => {
                return Some(format!("job {} stranded by shutdown_now", id.0));
            }
            Err(other) => return Some(format!("unexpected terminal state: {other}")),
        }
    }
    None
}

/// Spins up a TCP front-end with tight limits for the wire scenarios.
fn tcp_fixture(rng: &mut StdRng) -> Result<(Service, TcpServer, TcpConfig), String> {
    let service = small_service(rng);
    let config = TcpConfig {
        max_request_bytes: 4 * 1024,
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        max_connections: 8,
        drain_timeout: Duration::from_secs(2),
    };
    let server = TcpServer::bind_with("127.0.0.1:0", service.handle(), config)
        .map_err(|e| format!("bind failed: {e}"))?;
    Ok((service, server, config))
}

fn request_line(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("write failed: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone failed: {e}"))?,
    );
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read failed: {e}"))?;
    Ok(response)
}

/// After an abusive connection, a fresh connection must still be served.
fn still_serving(addr: std::net::SocketAddr) -> Option<String> {
    let mut probe = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return Some(format!("follow-up connect failed: {e}")),
    };
    match request_line(&mut probe, "{\"verb\":\"stats\"}") {
        Ok(resp) if resp.contains("\"ok\":true") => None,
        Ok(resp) => Some(format!("follow-up stats failed: {}", resp.trim())),
        Err(e) => Some(e),
    }
}

fn oversized_frame(rng: &mut StdRng) -> Option<String> {
    let (service, server, config) = match tcp_fixture(rng) {
        Ok(f) => f,
        Err(e) => return Some(e),
    };
    let addr = server.local_addr();
    let verdict = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        // One line, one byte over the limit, no newline until the end.
        let frame = "x".repeat(config.max_request_bytes + rng.gen_range(1_usize..2_000));
        let response = request_line(&mut stream, &frame)?;
        if !response.contains("frame_too_large") {
            return Err(format!(
                "expected frame_too_large, got: {}",
                response.trim()
            ));
        }
        Ok(())
    })();
    let follow_up = still_serving(addr);
    server.stop();
    service.shutdown();
    verdict.err().or(follow_up)
}

fn malformed_frame(rng: &mut StdRng) -> Option<String> {
    let (service, server, _config) = match tcp_fixture(rng) {
        Ok(f) => f,
        Err(e) => return Some(e),
    };
    let addr = server.local_addr();
    const GARBAGE: [&str; 4] = [
        "not json at all",
        "{\"verb\":\"submit\"}",
        "{\"verb\":\"frobnicate\",\"job\":1}",
        "{\"verb\":",
    ];
    let verdict = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let garbage = GARBAGE[rng.gen_range(0..GARBAGE.len())];
        let response = request_line(&mut stream, garbage)?;
        if !response.contains("\"ok\":false") {
            return Err(format!("malformed frame accepted: {}", response.trim()));
        }
        // Same connection must still serve a valid request.
        let response = request_line(&mut stream, "{\"verb\":\"stats\"}")?;
        if !response.contains("\"ok\":true") {
            return Err(format!(
                "connection poisoned by bad frame: {}",
                response.trim()
            ));
        }
        Ok(())
    })();
    let follow_up = still_serving(addr);
    server.stop();
    service.shutdown();
    verdict.err().or(follow_up)
}

fn client_disconnect(rng: &mut StdRng) -> Option<String> {
    let (service, server, _config) = match tcp_fixture(rng) {
        Ok(f) => f,
        Err(e) => return Some(e),
    };
    let addr = server.local_addr();
    let handle = service.handle();
    let verdict = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
        let spec = base_spec(rng);
        let line = crate::wire::encode_request(&crate::wire::Request::Submit(spec));
        let response = request_line(&mut stream, &line)?;
        if !response.contains("\"ok\":true") {
            return Err(format!("submit failed: {}", response.trim()));
        }
        // Vanish abruptly, possibly mid-line.
        let _ = stream.write_all(b"{\"verb\":\"resu");
        drop(stream);
        // The orphaned job must still reach a terminal state in-process.
        let stats_deadline = std::time::Instant::now() + TERMINAL_BOUND;
        loop {
            let stats = handle.stats();
            if stats.queued == 0 && stats.running == 0 {
                break;
            }
            if std::time::Instant::now() >= stats_deadline {
                return Err("orphaned job never drained".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    })();
    let follow_up = still_serving(addr);
    server.stop();
    service.shutdown();
    verdict.err().or(follow_up)
}

fn tenant_flood_shutdown(rng: &mut StdRng) -> Option<String> {
    use crate::tenant::TenantConfig;
    let service = Service::with_config(ServiceConfig {
        workers: rng.gen_range(1..=2),
        queue_capacity: rng.gen_range(8..32),
        tenants: vec![TenantConfig::new("flood", 1), TenantConfig::new("vip", 4)],
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    // Two flooder threads hammer the "flood" lane while the main thread
    // mixes in vip work and then yanks the service down mid-flood.
    let flooders: Vec<_> = (0..2)
        .map(|t| {
            let handle = handle.clone();
            let mut spec = base_spec(rng);
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                for i in 0..30_u64 {
                    spec.seed = spec.seed.wrapping_add(t * 1000 + i);
                    match handle.submit(spec.clone().with_tenant("flood")) {
                        Ok(id) => admitted.push(id),
                        // Backpressure and shutdown are the *expected*
                        // typed rejections under flood; anything else is
                        // a scenario failure.
                        Err(
                            ServiceError::QueueFull { .. }
                            | ServiceError::TenantQuotaExceeded { .. }
                            | ServiceError::ShuttingDown,
                        ) => {}
                        Err(other) => return Err(format!("flood submit: {other}")),
                    }
                }
                Ok(admitted)
            })
        })
        .collect();
    let mut vip_ids = Vec::new();
    for _ in 0..rng.gen_range(2..6) {
        match handle.submit(base_spec(rng).with_tenant("vip")) {
            Ok(id) => vip_ids.push(id),
            Err(ServiceError::QueueFull { .. } | ServiceError::ShuttingDown) => {}
            Err(e) => return Some(format!("vip submit: {e}")),
        }
    }
    std::thread::sleep(Duration::from_millis(rng.gen_range(0..10)));
    service.shutdown_now();
    let mut admitted = vip_ids;
    for flooder in flooders {
        match flooder.join() {
            Ok(Ok(ids)) => admitted.extend(ids),
            Ok(Err(e)) => return Some(e),
            Err(_) => return Some("flooder thread panicked".to_string()),
        }
    }
    // Every accepted ticket must be terminal — a job admitted but never
    // failed by the shutdown sweep times out here and fails the case.
    for id in admitted {
        match handle.wait(id, Duration::from_secs(5)) {
            Ok(_) => {}
            Err(ServiceError::ShuttingDown | ServiceError::WorkerPanic { .. }) => {}
            Err(ServiceError::WaitTimeout) => {
                return Some(format!("job {} stranded by shutdown", id.0));
            }
            Err(other) => return Some(format!("unexpected terminal state: {other}")),
        }
    }
    None
}

fn snapshot_shutdown_race(rng: &mut StdRng, seed: u64) -> Option<String> {
    let path = std::env::temp_dir().join(format!(
        "qca-chaos-snap-{}-{seed:016x}.qpsn",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServiceConfig {
        workers: 1,
        snapshot_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let service = Service::with_config(config.clone());
    let handle = service.handle();
    // Populate the cache so both racing saves have real entries.
    for _ in 0..rng.gen_range(1..4) {
        let id = match handle.submit(base_spec(rng)) {
            Ok(id) => id,
            Err(e) => return Some(format!("populate submit: {e}")),
        };
        if let Err(e) = handle.wait(id, TERMINAL_BOUND) {
            return Some(format!("populate run: {e}"));
        }
    }
    // A manual save races shutdown_now's own snapshot of the same path.
    let saver = {
        let handle = handle.clone();
        let path = path.clone();
        std::thread::spawn(move || handle.save_snapshot(&path))
    };
    std::thread::sleep(Duration::from_millis(rng.gen_range(0..3)));
    service.shutdown_now();
    // The manual save may succeed or fail typed; it must not panic.
    if saver.join().is_err() {
        let _ = std::fs::remove_file(&path);
        return Some("manual snapshot save panicked".to_string());
    }
    // Whatever file won the race: the next start either warms from it or
    // reports a typed decode error and stays cold — and serves either way.
    let revived = Service::with_config(config);
    let handle = revived.handle();
    let warm = handle.warm_status();
    let verdict = (|| {
        match warm {
            Some(Ok(_)) | Some(Err(_)) => {}
            None => return Err("snapshot file vanished after two saves".to_string()),
        }
        let id = handle
            .submit(base_spec(rng))
            .map_err(|e| format!("post-restart submit: {e}"))?;
        handle
            .wait(id, TERMINAL_BOUND)
            .map_err(|e| format!("post-restart run: {e}"))?;
        Ok(())
    })();
    revived.shutdown();
    let _ = std::fs::remove_file(&path);
    verdict.err()
}

fn full_queue_respawn(rng: &mut StdRng) -> Option<String> {
    let capacity = rng.gen_range(2..5);
    let service = Service::with_config(ServiceConfig {
        workers: 1,
        queue_capacity: capacity,
        ..ServiceConfig::default()
    });
    let handle = service.handle();
    // The pin panics once and retries: the single worker dies and the
    // supervisor respawns it while the flood below slams the full queue.
    let pin = base_spec(rng)
        .with_faults(JobFaults {
            panic_attempts: 1,
            fail_attempts: 0,
        })
        .with_retry(RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: rng.gen_range(1..5),
            jitter_seed: rng.gen_range(0..1_000),
        });
    let pin_id = match handle.submit(pin) {
        Ok(id) => id,
        Err(e) => return Some(format!("pin submit: {e}")),
    };
    let mut admitted = vec![pin_id];
    let mut rejected = 0_u32;
    for _ in 0..(capacity * 6) {
        match handle.submit(base_spec(rng)) {
            Ok(id) => admitted.push(id),
            Err(ServiceError::QueueFull { capacity: reported }) => {
                if reported != capacity {
                    return Some(format!(
                        "QueueFull reported capacity {reported}, configured {capacity}"
                    ));
                }
                rejected += 1;
            }
            Err(e) => return Some(format!("flood submit: {e}")),
        }
    }
    if rejected == 0 {
        return Some(format!(
            "flooding {} jobs past capacity {capacity} drew no QueueFull",
            capacity * 6
        ));
    }
    for id in admitted {
        match handle.wait(id, TERMINAL_BOUND) {
            Ok(_) => {}
            Err(ServiceError::WorkerPanic { .. }) => {}
            Err(ServiceError::WaitTimeout) => {
                return Some(format!("job {} stranded during respawn", id.0));
            }
            Err(other) => return Some(format!("unexpected terminal state: {other}")),
        }
    }
    if let Some(fail) = pool_heals(&handle, 1) {
        return Some(fail);
    }
    let stats = handle.stats();
    if stats.rejected < u64::from(rejected) {
        return Some("shed jobs were not counted in stats.rejected".to_string());
    }
    service.shutdown();
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes_once() {
        // One deterministic seed per scenario index: walk seeds until each
        // scenario has been exercised at least once.
        let mut seen = std::collections::HashSet::new();
        let mut seed = 0xC0FFEE_u64;
        let mut guard = 0;
        while seen.len() < SCENARIOS.len() && guard < 200 {
            let report = run_case(seed);
            assert!(
                report.failure.is_none(),
                "seed {} scenario {:?} failed: {:?}",
                report.seed,
                report.scenario,
                report.failure
            );
            seen.insert(format!("{:?}", report.scenario));
            seed = seed.wrapping_add(CASE_SEED_STRIDE);
            guard += 1;
        }
        assert_eq!(seen.len(), SCENARIOS.len(), "not every scenario was hit");
    }

    #[test]
    fn campaign_replay_is_deterministic() {
        let a = run_campaign(42, 12);
        let b = run_campaign(42, 12);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.passed, b.passed);
        assert_eq!(
            a.failures.iter().map(|f| f.seed).collect::<Vec<_>>(),
            b.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
        );
    }
}

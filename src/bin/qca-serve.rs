//! The accelerator serving daemon: a job queue, compiled-plan cache and
//! worker pool behind a newline-delimited JSON TCP front-end.
//!
//! ```text
//! qca-serve                              # serve on 127.0.0.1:7878
//! qca-serve --addr 127.0.0.1:9000 --workers 4 --queue 512 --cache 128
//! qca-serve --max-frame 65536 --max-conns 32
//! qca-serve --trace-sample 1            # emit lifecycle spans for every job
//! qca-serve --tenant batch:1 --tenant interactive:4:32
//!                                        # weighted fair dequeue lanes
//!                                        # (NAME:WEIGHT[:QUOTA], repeatable)
//! qca-serve --snapshot /var/lib/qca/plans.qpsn
//!                                        # warm the plan cache from disk and
//!                                        # persist it periodically + on stop
//! qca-serve --smoke                      # self-test: in-process client,
//!                                        # 3 jobs + abuse probes
//! ```
//!
//! One JSON request per line, one JSON response per line; see
//! `qca_service::wire` for the verbs. The front-end is hardened: frames
//! over `--max-frame` bytes draw a `frame_too_large` error, stalled
//! clients are disconnected, and connections beyond `--max-conns` are
//! shed with an `overloaded` response. `--smoke` exists so CI can
//! exercise the whole serving path (TCP included, on an OS-assigned
//! port) without external tooling — including an oversized frame, a
//! malformed request and an abrupt client disconnect.

use qca_service::{Service, ServiceConfig, TcpConfig, TcpServer, TenantConfig};
use qca_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How often the daemon re-persists the plan cache when `--snapshot` is
/// configured (stop-time saving alone would lose the cache on SIGKILL).
const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(30);

struct Args {
    addr: String,
    workers: usize,
    queue: usize,
    cache: usize,
    max_frame: usize,
    max_conns: usize,
    trace_sample: u64,
    tenants: Vec<TenantConfig>,
    snapshot: Option<PathBuf>,
    smoke: bool,
}

/// Parses one `--tenant` value: `NAME:WEIGHT[:QUOTA]`.
fn parse_tenant(value: &str) -> Result<TenantConfig, String> {
    let mut parts = value.split(':');
    let name = parts
        .next()
        .filter(|n| !n.is_empty())
        .ok_or_else(|| format!("bad --tenant {value:?}: empty name"))?;
    let weight = parts
        .next()
        .ok_or_else(|| format!("bad --tenant {value:?}: expected NAME:WEIGHT[:QUOTA]"))?
        .parse::<u32>()
        .map_err(|e| format!("bad --tenant {value:?}: weight: {e}"))?;
    let tenant = TenantConfig::new(name, weight);
    match parts.next() {
        None => Ok(tenant),
        Some(quota) => {
            let quota = quota
                .parse::<usize>()
                .map_err(|e| format!("bad --tenant {value:?}: quota: {e}"))?;
            Ok(tenant.with_quota(quota))
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let defaults = TcpConfig::default();
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        workers: 2,
        queue: 256,
        cache: 64,
        max_frame: defaults.max_request_bytes,
        max_conns: defaults.max_connections,
        trace_sample: ServiceConfig::default().trace_sample_n,
        tenants: Vec::new(),
        snapshot: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let parse = |name: &str, v: String| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|e| format!("bad value for {name}: {e}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = take("--addr")?,
            "--workers" => args.workers = parse("--workers", take("--workers")?)?,
            "--queue" => args.queue = parse("--queue", take("--queue")?)?,
            "--cache" => args.cache = parse("--cache", take("--cache")?)?,
            "--max-frame" => args.max_frame = parse("--max-frame", take("--max-frame")?)?,
            "--max-conns" => args.max_conns = parse("--max-conns", take("--max-conns")?)?,
            "--trace-sample" => {
                args.trace_sample = take("--trace-sample")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad value for --trace-sample: {e}"))?;
            }
            "--tenant" => args.tenants.push(parse_tenant(&take("--tenant")?)?),
            "--snapshot" => args.snapshot = Some(PathBuf::from(take("--snapshot")?)),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                return Err(
                    "usage: qca-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] [--max-frame BYTES] [--max-conns N] [--trace-sample N] [--tenant NAME:WEIGHT[:QUOTA]]... [--snapshot PATH] [--smoke]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        cache_capacity: args.cache,
        trace_sample_n: args.trace_sample,
        tenants: args.tenants.clone(),
        snapshot_path: args.snapshot.clone(),
        ..ServiceConfig::default()
    };
    let tcp_config = TcpConfig {
        max_request_bytes: args.max_frame.max(1),
        max_connections: args.max_conns.max(1),
        ..TcpConfig::default()
    };
    let service = Service::with_telemetry(config, Telemetry::enabled());
    if let Some(path) = &args.snapshot {
        match service.handle().warm_status() {
            Some(Ok(report)) => println!(
                "qca-serve: warm start from {}: {} of {} entries loaded ({} skipped, {} rekeyed)",
                path.display(),
                report.loaded,
                report.entries,
                report.skipped,
                report.rekeyed
            ),
            Some(Err(e)) => eprintln!(
                "qca-serve: snapshot {} unusable ({e}); starting cold",
                path.display()
            ),
            None => println!(
                "qca-serve: no snapshot at {}; starting cold",
                path.display()
            ),
        }
    }
    if args.smoke {
        return smoke_test(&service, tcp_config);
    }
    let server = match TcpServer::bind_with(&args.addr, service.handle(), tcp_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qca-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "qca-serve: listening on {} ({} workers, queue {}, cache {}, max frame {} B, max conns {}, tenants {})",
        server.local_addr(),
        args.workers,
        args.queue,
        args.cache,
        tcp_config.max_request_bytes,
        tcp_config.max_connections,
        service.handle().stats().tenants.len()
    );
    // Serve until killed; the accept loop owns the listener. With a
    // snapshot configured, re-persist the cache periodically so a hard
    // kill loses at most one interval of compilations.
    match &args.snapshot {
        Some(path) => loop {
            std::thread::sleep(SNAPSHOT_INTERVAL);
            if let Err(e) = service.handle().save_snapshot(path) {
                eprintln!("qca-serve: snapshot save failed: {e}");
            }
        },
        None => loop {
            std::thread::park();
        },
    }
}

/// Self-test for CI: start the TCP front-end on an OS-assigned port,
/// submit three jobs over the socket (two identical, so the second must
/// hit the plan cache), check every response parses as JSON, then abuse
/// the front-end — an oversized frame, malformed JSON and an abrupt
/// disconnect — and verify the daemon keeps serving afterwards.
fn smoke_test(service: &Service, tcp_config: TcpConfig) -> ExitCode {
    let bell = "qubits 2\\nh q[0]\\ncnot q[0], q[1]\\nmeasure_all\\n";
    let ghz = "qubits 3\\nh q[0]\\ncnot q[0], q[1]\\ncnot q[1], q[2]\\nmeasure_all\\n";
    let requests = [
        format!("{{\"verb\":\"submit\",\"circuit\":\"{bell}\",\"shots\":500,\"seed\":1}}"),
        format!("{{\"verb\":\"submit\",\"circuit\":\"{ghz}\",\"shots\":500,\"seed\":2}}"),
        // Duplicate of the first circuit: must be served from the cache.
        format!("{{\"verb\":\"submit\",\"circuit\":\"{bell}\",\"shots\":500,\"seed\":3}}"),
    ];
    let server = match TcpServer::bind_with("127.0.0.1:0", service.handle(), tcp_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot bind loopback: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = || -> Result<(), String> {
        let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        let mut ask = |line: &str| -> Result<qca_telemetry::json::JsonValue, String> {
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| e.to_string())?;
            let mut response = String::new();
            reader.read_line(&mut response).map_err(|e| e.to_string())?;
            qca_telemetry::json::parse(&response)
                .map_err(|e| format!("invalid JSON response {response:?}: {e}"))
        };
        // Submit → result, one job at a time: by the time the duplicate
        // circuit is submitted, its plan is guaranteed to be cached.
        for request in &requests {
            let response = ask(request)?;
            let job = response
                .get("job")
                .and_then(qca_telemetry::json::JsonValue::as_f64)
                .ok_or_else(|| format!("submit did not return a job id: {response:?}"))?
                as u64;
            let response = ask(&format!(
                "{{\"verb\":\"result\",\"job\":{job},\"timeout_ms\":60000}}"
            ))?;
            let shots = response
                .get("shots")
                .and_then(qca_telemetry::json::JsonValue::as_f64)
                .ok_or_else(|| format!("no shots in result: {response:?}"))?;
            if shots as u64 != 500 {
                return Err(format!("job {job}: expected 500 shots, got {shots}"));
            }
        }
        let stats = ask("{\"verb\":\"stats\"}")?;
        let hits = stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(qca_telemetry::json::JsonValue::as_f64)
            .ok_or_else(|| format!("no cache stats: {stats:?}"))?;
        if hits < 1.0 {
            return Err(format!(
                "duplicate submission did not hit the plan cache: {stats:?}"
            ));
        }
        let measured = stats
            .get("latency")
            .and_then(|l| l.get("jobs_measured"))
            .and_then(qca_telemetry::json::JsonValue::as_f64)
            .ok_or_else(|| format!("no latency summary in stats: {stats:?}"))?;
        if measured < 3.0 {
            return Err(format!("latency summary missed jobs: {stats:?}"));
        }
        // The per-tenant array: this service has only the implicit
        // default lane, and all three jobs must be accounted to it.
        let tenant_submitted = match stats.get("tenants") {
            Some(qca_telemetry::json::JsonValue::Array(tenants)) => tenants
                .first()
                .and_then(|t| t.get("submitted"))
                .and_then(qca_telemetry::json::JsonValue::as_f64),
            _ => None,
        }
        .ok_or_else(|| format!("no tenants array in stats: {stats:?}"))?;
        if tenant_submitted < 3.0 {
            return Err(format!("default tenant missed submissions: {stats:?}"));
        }
        println!("smoke: 3 jobs served over TCP, {hits} cache hit(s)");

        // The metrics verb: JSON snapshot with latency hists, then the
        // Prometheus exposition checked with the schema validator.
        let metrics = ask("{\"verb\":\"metrics\"}")?;
        metrics
            .get("metrics")
            .and_then(|m| m.get("hists"))
            .ok_or_else(|| format!("metrics response has no hists: {metrics:?}"))?;
        let prom = ask("{\"verb\":\"metrics\",\"format\":\"prometheus\"}")?;
        let text = prom
            .get("metrics")
            .and_then(qca_telemetry::json::JsonValue::as_str)
            .ok_or_else(|| format!("no prometheus text: {prom:?}"))?;
        let check = qca_telemetry::prometheus::validate(text)
            .map_err(|e| format!("prometheus exposition invalid: {e}"))?;
        if !check
            .histograms
            .iter()
            .any(|h| h.starts_with("service_latency_"))
        {
            return Err(format!(
                "no service_latency_* histograms in exposition ({} samples)",
                check.samples
            ));
        }
        println!(
            "smoke: metrics ok ({} prometheus samples, {} histograms)",
            check.samples,
            check.histograms.len()
        );

        // The trace verb: lifecycle stamps must be ordered.
        let trace = ask("{\"verb\":\"trace\",\"job\":1}")?;
        let stamp = |key: &str| -> Result<f64, String> {
            trace
                .get(key)
                .and_then(qca_telemetry::json::JsonValue::as_f64)
                .ok_or_else(|| format!("trace missing {key}: {trace:?}"))
        };
        let (admit, claim, settle) = (stamp("admit_us")?, stamp("claim_us")?, stamp("settle_us")?);
        if !(admit <= claim && claim <= settle) {
            return Err(format!("trace stamps out of order: {trace:?}"));
        }
        println!("smoke: trace ok (admit {admit} <= claim {claim} <= settle {settle})");
        Ok(())
    };
    let result = run().and_then(|()| abuse_probes(server.local_addr(), tcp_config));
    server.stop();
    match result {
        Ok(()) => {
            println!("smoke: ok");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("smoke: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Throws hostile input at the front-end: an oversized frame must draw a
/// typed `frame_too_large` error, malformed JSON a `bad_request`, and an
/// abrupt mid-line disconnect must not stop the daemon from serving the
/// next connection.
fn abuse_probes(addr: std::net::SocketAddr, tcp_config: TcpConfig) -> Result<(), String> {
    let connect = || -> Result<(BufReader<TcpStream>, TcpStream), String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok((reader, stream))
    };
    let ask = |reader: &mut BufReader<TcpStream>,
               writer: &mut TcpStream,
               line: &str|
     -> Result<String, String> {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        Ok(response)
    };

    // Probe 1: a frame one kilobyte over the limit.
    let (mut reader, mut writer) = connect()?;
    let oversized = "x".repeat(tcp_config.max_request_bytes + 1024);
    let response = ask(&mut reader, &mut writer, &oversized)?;
    if !response.contains("frame_too_large") {
        return Err(format!(
            "oversized frame not rejected: {:?}",
            response.trim()
        ));
    }
    println!("smoke: oversized frame rejected with frame_too_large");

    // Probe 2: malformed JSON, then a valid request on the same socket.
    let (mut reader, mut writer) = connect()?;
    let response = ask(&mut reader, &mut writer, "this is not json")?;
    if !response.contains("bad_request") {
        return Err(format!("malformed frame accepted: {:?}", response.trim()));
    }
    let response = ask(&mut reader, &mut writer, "{\"verb\":\"stats\"}")?;
    if !response.contains("\"ok\":true") {
        return Err(format!(
            "connection unusable after bad frame: {:?}",
            response.trim()
        ));
    }
    println!("smoke: malformed JSON drew bad_request; connection still usable");

    // Probe 3: vanish mid-line, then confirm the daemon still serves.
    let (_reader, mut writer) = connect()?;
    let _ = writer.write_all(b"{\"verb\":\"stat");
    drop(writer);
    let (mut reader, mut writer) = connect()?;
    let response = ask(&mut reader, &mut writer, "{\"verb\":\"stats\"}")?;
    if !response.contains("\"ok\":true") {
        return Err(format!(
            "daemon unhealthy after abrupt disconnect: {:?}",
            response.trim()
        ));
    }
    println!("smoke: daemon survived an abrupt mid-line disconnect");
    Ok(())
}

//! `qca-benchmark`: the end-to-end benchmark of the served accelerator
//! stack, with a traced run that breaks a job's time down by layer.
//!
//! A run self-hosts a `qca_service::Service` (2 workers) behind a
//! loopback `TcpServer`, drives one workload over real TCP from at most
//! two generator threads, checks every histogram against a direct replay
//! of the layer functions, and prints one JSON result line last.
//!
//! ```text
//! qca-benchmark --workload interactive-small [--seed 7] [--seconds 20] [--trace 0|1|FILE] [--out FILE]
//! qca-benchmark --all [--seed 7] [--seconds 20] [--trace 0|1] [--out-dir DIR]
//! qca-benchmark --compare A1.json A2.json ... -- B1.json B2.json ...
//! ```
//!
//! README.md beside this file describes the workloads, the metrics and
//! their bounds, and how to read the trace.

mod client;
mod compare;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use metrics::{object, Metric, END_TO_END, PER_LAYER};
use qca_telemetry::json::JsonValue;
use run::{RunOptions, RunReport, WallClock};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Loop, Workload, WORKLOADS};

const USAGE: &str = "\
usage: qca-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE] [--out FILE]
       qca-benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
       qca-benchmark --compare A.json... -- B.json...
workloads: interactive-small, variational-grid9, statevector-20q, clifford-qec
--trace 1 writes qca-benchmark-traces/trace-<workload>-seed<N>.json beside the executable;
--trace FILE writes FILE";

/// Where `--trace 1` writes: beside the executable, so inside the build
/// directory rather than the source tree.
fn default_trace(w: &Workload, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent()
        .unwrap_or(Path::new(""))
        .join("qca-benchmark-traces")
        .join(format!("trace-{}-seed{seed}.json", w.name))
}

#[derive(Debug)]
enum Mode {
    One(&'static Workload),
    All,
    Compare(Vec<String>, Vec<String>),
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    /// `Some` for a traced run; an empty path until resolved to the
    /// default file.
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut mode = None;
    let mut args = Args {
        mode: Mode::All,
        seed: 7,
        seconds: 20.0,
        trace: None,
        out: None,
        out_dir: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                mode = Some(Mode::One(
                    workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                ));
            }
            "--all" => mode = Some(Mode::All),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::new()),
                    file => Some(PathBuf::from(file)),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            "--compare" => {
                let rest: Vec<String> = it.by_ref().collect();
                let mut sides = rest.split(|a| a == "--");
                let a = sides.next().unwrap_or_default().to_vec();
                let b = sides.next().unwrap_or_default().to_vec();
                if a.is_empty() || b.is_empty() || sides.next().is_some() {
                    return Err("--compare needs report files on both sides of --".to_string());
                }
                mode = Some(Mode::Compare(a, b));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.mode = mode.ok_or_else(|| USAGE.to_string())?;
    if let (Mode::One(w), Some(file)) = (&args.mode, &mut args.trace) {
        if file.as_os_str().is_empty() {
            *file = default_trace(w, args.seed);
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let clock = WallClock {
        origin: Instant::now(),
    };
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::Compare(a, b) => compare::compare(a, b),
        _ if cfg!(debug_assertions) => Err(
            "refusing to measure a debug build: build with --release (cargo run --release ...)"
                .to_string(),
        ),
        Mode::One(w) => run_one(w, &args, &clock),
        Mode::All => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("qca-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its metrics; `Ok(false)` when the run
/// was incorrect.
fn run_one(w: &Workload, args: &Args, clock: &WallClock) -> Result<bool, String> {
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.clone(),
    };
    let report = run::run(w, &opts, clock)?;
    let traced = opts.trace.is_some();
    let provenance = provenance(w, &opts, &report);
    println!(
        "qca-benchmark: {} seed {} for {} s, trace {}: {}",
        w.name,
        args.seed,
        args.seconds,
        if traced { "on" } else { "off" },
        provenance.to_compact()
    );
    for (section, metrics, values) in [
        ("end-to-end", &END_TO_END[..], &report.end_to_end),
        ("per-layer", &PER_LAYER[..], &report.per_layer),
    ] {
        println!("  {section}:");
        for m in metrics {
            match values.get(m.name) {
                Some(v) => println!(
                    "    {:<28} {v:>14.6} {:<7} ({} is better)",
                    m.name,
                    m.unit,
                    m.better.name()
                ),
                None if traced || section == "end-to-end" => {
                    println!("    {:<28} {:>14} {}", m.name, "-", m.unit)
                }
                None => {}
            }
        }
    }
    let (shown, values): (&[Metric], _) = if traced {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    println!(
        "  failed_ratio {} ({} of {} attempted: {} rejected, {} failed, {} wrong histograms; {} replayed)",
        report.failed_ratio(),
        report.failed(),
        report.attempted,
        report.rejected,
        report.failed_results,
        report.wrong_histograms,
        report.replayed,
    );
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
    if !report.self_times.is_empty() {
        print!("{}", report.self_times);
    }
    if let Some(out) = &args.out {
        write_report(out, provenance, &report)?;
    }
    println!(
        "{}",
        metrics::result_line(
            report.correct(),
            report.attempted,
            report.failed(),
            shown,
            values
        )?
    );
    Ok(report.correct())
}

/// Host, build and run facts recorded with every report.
fn provenance(w: &Workload, opts: &RunOptions, report: &RunReport) -> JsonValue {
    // A traced run measures the workload twice, each for half the time.
    let halves = if opts.trace.is_some() { 2.0 } else { 1.0 };
    let phase_s = opts.seconds / halves;
    let phases = match w.pacing {
        Loop::Open { fixed_share, .. } => object([
            ("fixed_rate_s", JsonValue::Number(phase_s * fixed_share)),
            (
                "saturation_s",
                JsonValue::Number(phase_s * (1.0 - fixed_share)),
            ),
        ]),
        Loop::Closed { .. } => object([("closed_loop_s", JsonValue::Number(phase_s))]),
    };
    let text = |s: &str| JsonValue::String(s.to_string());
    object([
        ("benchmark", text("qca-benchmark")),
        ("workload", text(w.name)),
        ("why", text(w.why)),
        ("seed", JsonValue::Number(opts.seed as f64)),
        ("trace", JsonValue::Bool(opts.trace.is_some())),
        (
            "nproc",
            JsonValue::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", text(&cpu_model())),
        ("git_sha", text(&git_sha())),
        ("build", text("release")),
        ("phases", phases),
        ("measured_phases", JsonValue::Number(halves)),
        ("setups", JsonValue::Number(report.setup_times.len() as f64)),
        (
            "latency_samples",
            JsonValue::Number(report.latency_samples as f64),
        ),
        ("tail_percentile", JsonValue::Number(f64::from(w.tail_pct))),
        (
            "tail_supported",
            JsonValue::Bool(
                stats::tail_percentile(report.latency_samples).is_some_and(|p| p >= w.tail_pct),
            ),
        ),
    ])
}

fn write_report(path: &Path, provenance: JsonValue, report: &RunReport) -> Result<(), String> {
    // The metrics this run measured: an untraced run has only some of
    // the per-layer ones.
    let section = |metrics: &[Metric], values: &metrics::Values| {
        let measured: Vec<Metric> = metrics
            .iter()
            .filter(|m| values.contains_key(m.name))
            .copied()
            .collect();
        metrics::metrics_json(&measured, values)
    };
    let doc = object([
        ("provenance", provenance),
        ("correct", JsonValue::Bool(report.correct())),
        ("attempted", JsonValue::Number(report.attempted as f64)),
        ("failed", JsonValue::Number(report.failed() as f64)),
        ("failed_ratio", JsonValue::Number(report.failed_ratio())),
        (
            "problems",
            JsonValue::Array(
                report
                    .problems
                    .iter()
                    .map(|p| JsonValue::String(p.clone()))
                    .collect(),
            ),
        ),
        (
            "setup_times_s",
            JsonValue::Array(
                report
                    .setup_times
                    .iter()
                    .map(|&t| JsonValue::Number(t))
                    .collect(),
            ),
        ),
        ("end_to_end", section(&END_TO_END, &report.end_to_end)?),
        ("per_layer", section(&PER_LAYER, &report.per_layer)?),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_compact() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs every workload, each in its own child process so set-up time
/// and peak memory stay per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    let mut summary = String::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace.is_some() { "1" } else { "0" }]);
        if let Some(dir) = &args.out_dir {
            cmd.arg("--out").arg(dir.join(format!("{}.json", w.name)));
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        all_ok &= out.status.success();
        let result = stdout
            .lines()
            .last()
            .and_then(|l| qca_telemetry::json::parse(l).ok());
        let Some(result) = result.filter(|r| r.get("metrics").is_some()) else {
            summary.push_str(&format!("{:<18} FAILED ({})\n", w.name, out.status));
            continue;
        };
        let num = |k| result.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        summary.push_str(&format!(
            "{:<18} failed_ratio {}",
            w.name,
            num("failed") / num("attempted").max(1.0)
        ));
        let shown: &[Metric] = if args.trace.is_some() {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        for m in shown {
            let v = result
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64);
            summary.push_str(&format!(
                "  {} {} {}",
                m.name,
                v.map_or("-".to_string(), |v| format!("{v:.4}")),
                m.unit
            ));
        }
        summary.push('\n');
    }
    print!("summary:\n{summary}");
    Ok(all_ok)
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (a checkout without git history reports "unknown").
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head),
    };
    sha.map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_a_run_command_line() {
        let a = args(&[
            "--workload",
            "clifford-qec",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(a.mode, Mode::One(w) if w.name == "clifford-qec"));
        assert_eq!(a.seed, 3);
        let trace = a.trace.unwrap();
        assert!(trace.ends_with("qca-benchmark-traces/trace-clifford-qec-seed3.json"));
        let a = args(&["--workload", "statevector-20q", "--trace", "0"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, None));
        let a = args(&["--workload", "statevector-20q", "--trace", "t.json"]).unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("t.json")));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn parses_compare_sides() {
        let a = args(&["--compare", "a1.json", "a2.json", "--", "b1.json"]).unwrap();
        let Mode::Compare(x, y) = a.mode else {
            panic!("expected compare mode")
        };
        assert_eq!((x.len(), y.len()), (2, 1));
        assert!(args(&["--compare", "a1.json"]).is_err());
        assert!(args(&["--compare", "--", "b1.json"]).is_err());
    }
}

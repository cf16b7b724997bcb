//! One workload run: repeated set-up, the measured phase(s), the
//! correctness and coverage gate, and the metrics.

use crate::client::{send_result, send_submit, Conn, Histogram, Outcome};
use crate::metrics::Values;
use crate::replay::{self, Replay};
use crate::stats::{self, mean, nearest_rank, sorted};
use crate::trace::{self, Trace};
use crate::workload::{Corpus, Job, JobStream, Kind, Loop, Workload};
use qca_service::{JobId, JobLifecycle, Service, ServiceHandle, TcpServer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A run sets up at least this many times and for at least this long:
/// `setup_s` is the median, so slow set-ups (a page-cache miss, a
/// scheduler hiccup) do not move it. A sub-millisecond set-up jitters by
/// tens of percent, so cheap set-ups repeat many times.
const MIN_SETUPS: usize = 9;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);

/// The open loop's fixed-rate phase is invalid if the submitter ran
/// later than this (ms) at p99.
const MAX_LATENESS_P99_MS: f64 = 1.0;

/// Job trees, and replay trees, written to the Chrome trace (evenly
/// strided); the self times cover every traced job. The validator's JSON
/// parser takes time quadratic in the file's size (README.md,
/// "Findings"): 2000 job trees and 512 replay trees took it 21 s.
const MAX_TRACE_TREES: usize = 400;

/// The benchmark's clock: time since the process started.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    pub origin: std::time::Instant,
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One completed job as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: u64,
    /// When the job was due (open loop) or sent (closed loop): latency
    /// runs from here.
    pub due: Duration,
    pub sent: Duration,
    /// When the submit reply arrived.
    pub admitted: Duration,
    pub received: Duration,
    /// Open loop: sent during the saturation phase.
    pub saturation: bool,
    pub cache_hit: bool,
    pub shards: u64,
    pub wait_us: u64,
    pub exec_us: u64,
    pub engine: &'static str,
}

/// A job as it left the generator.
#[derive(Debug)]
pub struct Sent {
    pub job: Job,
    pub due: Duration,
    pub sent: Duration,
    pub saturation: bool,
}

/// The open loop's schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenPlan {
    pub start: Duration,
    pub interval: Duration,
    /// Jobs due before this are paced; after it, the saturation phase.
    pub fixed_end: Duration,
    pub saturation: Duration,
}

/// What the open-loop submitter counted.
#[derive(Debug, Default)]
pub struct SubmitTally {
    pub attempted: u64,
    /// `sent - due` of each fixed-rate job.
    pub lateness: Vec<Duration>,
    pub saturation_start: Duration,
}

/// The open-loop submitter. Job `i` is due at `start + i * interval`
/// and is written at its due time, or as soon as the submitter catches
/// up. It never waits for a reply, so neither a slow service nor the
/// collectors can hold it back: its lateness is its own. Then jobs go
/// back to back for the saturation phase, with at most `window` of them
/// unfinished.
///
/// `send` writes a job and reports whether it went out. `finished(wait)`
/// returns how many jobs finished since it was last asked, after waiting
/// for at least one if `wait`, or `None` once none can finish any more.
/// Stops early when either fails.
pub fn submit_open<C: Clock>(
    clock: &C,
    plan: &OpenPlan,
    window: u64,
    mut next_job: impl FnMut() -> Job,
    mut send: impl FnMut(Sent) -> bool,
    mut finished: impl FnMut(bool) -> Option<u64>,
) -> SubmitTally {
    let mut tally = SubmitTally::default();
    for i in 0.. {
        let due = plan.start + plan.interval * i;
        if due >= plan.fixed_end {
            break;
        }
        let job = next_job();
        clock.sleep_until(due);
        let sent = clock.now();
        tally.attempted += 1;
        tally.lateness.push(sent - due);
        if !send(Sent {
            job,
            due,
            sent,
            saturation: false,
        }) {
            return tally;
        }
    }
    tally.saturation_start = clock.now();
    let mut unfinished = tally.attempted;
    while clock.now() < tally.saturation_start + plan.saturation {
        let mut wait = false;
        loop {
            let Some(done) = finished(wait) else {
                return tally;
            };
            unfinished -= done;
            if unfinished < window {
                break;
            }
            wait = true;
        }
        let job = next_job();
        let sent = clock.now();
        tally.attempted += 1;
        if !send(Sent {
            job,
            due: sent,
            sent,
            saturation: true,
        }) {
            return tally;
        }
        unfinished += 1;
    }
    tally
}

/// The first histogram seen for one check key, and how many jobs
/// returned exactly it.
#[derive(Debug)]
struct Checked {
    job: Job,
    histogram: Histogram,
    jobs: u64,
}

/// Histograms per check key, plus how many jobs disagreed with the first
/// one of their key.
#[derive(Debug, Default)]
pub struct Verifier {
    seen: Mutex<HashMap<u64, Checked>>,
    mismatches: AtomicU64,
}

impl Verifier {
    fn observe(&self, job: &Job, histogram: Histogram) {
        let Some(key) = job.check else { return };
        let mut seen = self.seen.lock().expect("verifier lock poisoned");
        match seen.get_mut(&key) {
            Some(first) if first.histogram != histogram => {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
            }
            Some(first) => first.jobs += 1,
            None => {
                seen.insert(
                    key,
                    Checked {
                        job: job.clone(),
                        histogram,
                        jobs: 1,
                    },
                );
            }
        }
    }
}

/// An admitted job: what was sent, its id, and when the submit reply
/// arrived.
#[derive(Debug)]
pub struct Admitted {
    pub sent: Sent,
    pub id: u64,
    pub admitted: Duration,
}

/// Records a job's result, received at `received`, in `phase`.
fn record(
    phase: &mut Phase,
    verifier: &Verifier,
    job: Admitted,
    received: Duration,
    outcome: Result<Outcome, String>,
) {
    let Ok(o) = outcome else {
        phase.failed += 1;
        return;
    };
    let Admitted {
        sent: p,
        id,
        admitted,
    } = job;
    phase.samples.push(Sample {
        id,
        due: p.due,
        sent: p.sent,
        admitted,
        received,
        saturation: p.saturation,
        cache_hit: o.cache_hit,
        shards: o.shards,
        wait_us: o.wait_us,
        exec_us: o.exec_us,
        engine: o.engine,
    });
    verifier.observe(&p.job, o.histogram);
}

/// One measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub start: Duration,
    /// Open loop only.
    pub saturation_start: Option<Duration>,
    /// How late the generator ran: `sent - due` on the open loop, the
    /// gap between a result and the next submit on closed loops.
    pub lateness: Vec<Duration>,
    pub evictions: u64,
    pub coalesced: u64,
}

impl Phase {
    /// Latency samples in ms: fixed-rate jobs from their due time on the
    /// open loop, every job from its submit on closed loops.
    pub fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.samples
                .iter()
                .filter(|s| !s.saturation)
                .map(|s| ms(s.received - s.due))
                .collect(),
        )
    }

    /// p99 of the generator's lateness, in ms.
    pub fn lateness_p99_ms(&self) -> Option<f64> {
        percentile(self.lateness.iter().map(|d| ms(*d)).collect(), 99)
    }

    /// Completed jobs per second of the throughput phase: saturation on
    /// the open loop, the whole phase on closed loops.
    pub fn jobs_per_s(&self) -> Option<f64> {
        let start = self.saturation_start.unwrap_or(self.start);
        let done: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.saturation == self.saturation_start.is_some())
            .collect();
        let end = done.iter().map(|s| s.received).max()?;
        Some(done.len() as f64 / (end - start).as_secs_f64())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running service, its loopback front-end and two client
/// connections.
struct Env {
    service: Service,
    server: TcpServer,
    handle: ServiceHandle,
    conns: Vec<Conn>,
    warm_ids: Vec<u64>,
}

impl Env {
    fn start(workload: &Workload, corpus: &Corpus) -> Result<Env, String> {
        let service = Service::with_config(workload.service_config());
        let handle = service.handle();
        let server = TcpServer::bind("127.0.0.1:0", service.handle())
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = server.local_addr();
        let mut conns = vec![Conn::connect(addr)?, Conn::connect(addr)?];
        // Warm-up: one single-shot job per plan fills the cache; the
        // plan's cache key ignores seed and shots.
        let mut warm_ids = Vec::new();
        for circuit in &corpus.warm_circuits {
            let job = Job {
                circuit: Arc::clone(circuit),
                shots: 1,
                seed: 0,
                tenant: None,
                check: None,
            };
            let id = conns[0].submit(&job).map_err(|e| format!("warm-up: {e}"))?;
            conns[0].result(id).map_err(|e| format!("warm-up: {e}"))?;
            warm_ids.push(id);
        }
        Ok(Env {
            service,
            server,
            handle,
            conns,
            warm_ids,
        })
    }

    /// Closes the clients first so the server's connection threads see
    /// EOF and the server stops without waiting out its drain timeout.
    fn stop(self) {
        drop(self.conns);
        self.server.stop();
        self.service.shutdown();
    }

    fn run_phase(
        &mut self,
        workload: &Workload,
        streams: &mut [JobStream],
        clock: &WallClock,
        seconds: f64,
        verifier: &Verifier,
    ) -> Result<Phase, String> {
        let before = self.handle.stats();
        let start = clock.now();
        let mut phase = match workload.pacing {
            Loop::Open {
                rate_per_s,
                fixed_share,
                window,
            } => {
                let plan = OpenPlan {
                    start,
                    interval: Duration::from_secs_f64(1.0 / rate_per_s),
                    fixed_end: start + Duration::from_secs_f64(seconds * fixed_share),
                    saturation: Duration::from_secs_f64(seconds * (1.0 - fixed_share)),
                };
                let [submits, results] = &mut self.conns[..] else {
                    return Err("the open loop needs two connections".to_string());
                };
                open_phase(
                    clock,
                    &plan,
                    window,
                    submits,
                    results,
                    &mut streams[0],
                    verifier,
                )
            }
            Loop::Closed { clients } => {
                let end = start + Duration::from_secs_f64(seconds);
                std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .conns
                        .iter_mut()
                        .zip(streams.iter_mut())
                        .take(clients)
                        .map(|(conn, stream)| {
                            s.spawn(move || {
                                closed_client(clock, conn, stream, start, end, verifier)
                            })
                        })
                        .collect();
                    let mut phase = Phase::default();
                    for h in handles {
                        let part = h.join().map_err(|_| "client thread panicked".to_string())?;
                        phase.samples.extend(part.samples);
                        phase.attempted += part.attempted;
                        phase.rejected += part.rejected;
                        phase.failed += part.failed;
                        phase.lateness.extend(part.lateness);
                    }
                    Ok::<Phase, String>(phase)
                })?
            }
        };
        let after = self.handle.stats();
        phase.start = start;
        phase.evictions = after.cache.evictions - before.cache.evictions;
        phase.coalesced = after.coalesced - before.coalesced;
        Ok(phase)
    }
}

/// The open loop over two connections, on three threads. This one
/// writes submits on `submits`. The second reads each submit reply and
/// at once writes the job's result request on `results`, so no result
/// waits on the benchmark to be asked for. The third reads the result
/// replies. Every job, once refused or answered, hands the submitter one
/// token.
fn open_phase(
    clock: &WallClock,
    plan: &OpenPlan,
    window: u64,
    submits: &mut Conn,
    results: &mut Conn,
    stream: &mut JobStream,
    verifier: &Verifier,
) -> Phase {
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (admitted_tx, admitted_rx) = mpsc::channel::<Admitted>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let Conn {
        tx: submit_tx,
        rx: submit_replies,
    } = submits;
    let Conn {
        tx: result_tx,
        rx: result_replies,
    } = results;
    std::thread::scope(|s| {
        let refused = done_tx.clone();
        let admitting = s.spawn(move || {
            let mut rejected = 0;
            for sent in sent_rx {
                let Ok(id) = submit_replies.submitted() else {
                    rejected += 1;
                    let _ = refused.send(());
                    continue;
                };
                let admitted = submit_replies.arrived - clock.origin;
                // Queued before the request goes out, so the reader knows
                // the job before its reply can arrive.
                if admitted_tx.send(Admitted { sent, id, admitted }).is_err()
                    || send_result(result_tx, id).is_err()
                {
                    break;
                }
            }
            rejected
        });
        let reading = s.spawn(move || {
            let mut phase = Phase::default();
            for job in admitted_rx {
                let outcome = result_replies.result();
                let received = result_replies.arrived - clock.origin;
                record(&mut phase, verifier, job, received, outcome);
                let _ = done_tx.send(());
            }
            phase
        });
        // Moves the sender in, so the other two threads end once the
        // submitter is done.
        let send = move |sent: Sent| {
            send_submit(submit_tx, &sent.job).is_ok() && sent_tx.send(sent).is_ok()
        };
        let tally = submit_open(
            clock,
            plan,
            window,
            || stream.next_job(),
            send,
            |wait| {
                let done = done_rx.try_iter().count() as u64;
                if wait && done == 0 {
                    return done_rx.recv().ok().map(|()| 1);
                }
                Some(done)
            },
        );
        let rejected = admitting.join().unwrap_or(0);
        let mut phase = reading.join().unwrap_or_default();
        phase.rejected = rejected;
        // Jobs that were never answered: a connection or thread failed.
        let finished = phase.samples.len() as u64 + phase.rejected + phase.failed;
        phase.failed += tally.attempted.saturating_sub(finished);
        phase.attempted = tally.attempted;
        phase.lateness = tally.lateness;
        phase.saturation_start = Some(tally.saturation_start);
        phase
    })
}

fn closed_client(
    clock: &WallClock,
    conn: &mut Conn,
    stream: &mut JobStream,
    start: Duration,
    end: Duration,
    verifier: &Verifier,
) -> Phase {
    let mut phase = Phase::default();
    let mut last = start;
    while clock.now() < end {
        let job = stream.next_job();
        let sent = clock.now();
        phase.lateness.push(sent - last);
        phase.attempted += 1;
        match conn.submit(&job) {
            Ok(id) => {
                let admitted = conn.rx.arrived - clock.origin;
                let outcome = conn.result(id);
                let job = Admitted {
                    sent: Sent {
                        due: sent,
                        sent,
                        saturation: false,
                        job,
                    },
                    id,
                    admitted,
                };
                record(
                    &mut phase,
                    verifier,
                    job,
                    conn.rx.arrived - clock.origin,
                    outcome,
                );
            }
            Err(_) => phase.rejected += 1,
        }
        last = clock.now();
    }
    phase
}

/// What a run's caller needs to know.
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    /// `Some(file)`: the traced run, which writes a Chrome trace there.
    pub trace: Option<PathBuf>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub rejected: u64,
    pub failed_results: u64,
    pub wrong_histograms: u64,
    pub replayed: usize,
    /// Coverage or validity violations; any makes the run incorrect.
    pub problems: Vec<String>,
    pub end_to_end: Values,
    pub per_layer: Values,
    pub latency_samples: usize,
    /// Printable self-time tables (traced run only).
    pub self_times: String,
    pub setup_times: Vec<f64>,
}

impl RunReport {
    pub fn failed(&self) -> u64 {
        self.rejected + self.failed_results + self.wrong_histograms
    }

    /// Failed jobs over attempted jobs (0 when none were attempted).
    pub fn failed_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty()
    }
}

/// Runs `workload` once.
pub fn run(workload: &Workload, opts: &RunOptions, clock: &WallClock) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    // Set-up, repeated: each is timed from its own start (the first from
    // process start) to the moment the first measured job could go out.
    let mut ready: Option<(Env, Arc<Corpus>)> = None;
    let setups_began = clock.now();
    while report.setup_times.len() < MIN_SETUPS || clock.now() - setups_began < MIN_SETUP_TIME {
        if let Some((env, _)) = ready.take() {
            env.stop();
        }
        let began = if report.setup_times.is_empty() {
            Duration::ZERO
        } else {
            clock.now()
        };
        let corpus = Arc::new(Corpus::new(workload, opts.seed));
        let env = Env::start(workload, &corpus)?;
        report.setup_times.push((clock.now() - began).as_secs_f64());
        ready = Some((env, corpus));
    }
    let (mut env, corpus) = ready.ok_or("no set-up ran")?;
    let mut streams: Vec<JobStream> = (0..workload.streams()).map(|c| corpus.stream(c)).collect();
    let verifier = Verifier::default();

    // The traced run measures an untraced half first, so the tracing
    // overhead is the ratio of the two halves' throughput.
    let halves = if opts.trace.is_some() { 2.0 } else { 1.0 };
    let untraced = env.run_phase(
        workload,
        &mut streams,
        clock,
        opts.seconds / halves,
        &verifier,
    )?;
    // Before tracing and replay, so the peak is the untraced phase's.
    let peak_rss = peak_rss_mib()?;
    let traced = match opts.trace {
        Some(_) => {
            Some(env.run_phase(workload, &mut streams, clock, opts.seconds / 2.0, &verifier)?)
        }
        None => None,
    };
    let lifecycles = match &traced {
        Some(phase) => Some(lifecycles(&env.handle, phase, &env.warm_ids)?),
        None => None,
    };
    env.stop();

    for phase in std::iter::once(&untraced).chain(&traced) {
        report.attempted += phase.attempted;
        report.rejected += phase.rejected;
        report.failed_results += phase.failed;
    }
    report.wrong_histograms = verifier.mismatches.into_inner();

    // Correctness: replay one job per check key, uncontended, and compare
    // with what the service returned over the wire. A mismatch condemns
    // every job that returned that histogram.
    let mut checked: Vec<(u64, Checked)> = verifier
        .seen
        .into_inner()
        .expect("verifier lock poisoned")
        .into_iter()
        .collect();
    checked.sort_by_key(|(key, _)| *key);
    let mut replays: Vec<(Duration, u64, Replay)> = Vec::new();
    for (key, c) in &checked {
        let started = clock.now();
        match replay::replay(workload, &c.job) {
            Ok(r) if r.histogram == c.histogram => replays.push((started, *key, r)),
            Ok(_) => report.wrong_histograms += c.jobs,
            Err(e) => {
                report.wrong_histograms += c.jobs;
                report.problems.push(format!("replay failed: {e}"));
            }
        }
    }
    report.replayed = replays.len();

    let measured: Vec<&Sample> = std::iter::once(&untraced)
        .chain(&traced)
        .flat_map(|p| &p.samples)
        .collect();
    coverage(workload, &measured, &mut report.problems);
    // Only the open loop keeps a schedule its submitter can fall behind.
    let open_phases = std::iter::once(&untraced)
        .chain(&traced)
        .filter(|p| p.saturation_start.is_some());
    for phase in open_phases {
        if let Some(late) = phase.lateness_p99_ms().filter(|&l| l > MAX_LATENESS_P99_MS) {
            report.problems.push(format!(
                "open-loop submitter ran {late:.3} ms late at p99 (limit {MAX_LATENESS_P99_MS} ms): \
                 the fixed-rate phase is invalid"
            ));
        }
    }

    if let Some(setup) = stats::median(&report.setup_times) {
        report.end_to_end.insert("setup_s", setup);
    }
    if let (Some(path), Some(phase), Some(lcs)) = (&opts.trace, &traced, &lifecycles) {
        report.self_times = write_trace(path, &build_trace(phase, lcs, &replays))?;
        report.per_layer = per_layer(&untraced, phase, lcs, &replays);
    }
    // What a client sees, from the untraced phase of every run.
    let latencies = untraced.latencies_ms();
    report.latency_samples = latencies.len();
    let seen = [
        ("jobs_per_s", untraced.jobs_per_s()),
        ("latency_p50_ms", nearest_rank(&latencies, 50)),
        (
            "latency_tail_ms",
            nearest_rank(&latencies, workload.tail_pct),
        ),
        ("peak_rss_mb", Some(peak_rss)),
    ];
    for (name, v) in seen {
        report.per_layer.extend(v.map(|v| (name, v)));
    }
    Ok(report)
}

/// Validates and writes the Chrome trace: at most [`MAX_TRACE_TREES`]
/// job trees and as many replay trees, each evenly strided. Returns the
/// self-time tables, which cover every span.
fn write_trace(path: &Path, trace: &Trace) -> Result<String, String> {
    let (jobs, replays): (Vec<usize>, Vec<usize>) = (0..trace.spans.len())
        .filter(|&i| trace.spans[i].parent.is_none())
        .partition(|&r| trace.spans[r].name == "job");
    let strided = |roots: &[usize]| {
        let stride = roots.len().div_ceil(MAX_TRACE_TREES).max(1);
        roots.iter().step_by(stride).copied().collect::<Vec<_>>()
    };
    let written: Vec<usize> = [strided(&jobs), strided(&replays)].concat();
    let text = trace.chrome_json(&written);
    let check = qca_telemetry::export::validate_chrome_trace(&text)
        .map_err(|e| format!("trace failed validation: {e}"))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let times = trace.self_times();
    Ok(format!(
        "trace: {} ({} events, valid)\nself time per layer, job tree ({} jobs):\n{}\
         self time per layer, replay tree ({} replays):\n{}",
        path.display(),
        check.events,
        jobs.len(),
        trace::self_time_table(&times, "job"),
        replays.len(),
        trace::self_time_table(&times, "replay"),
    ))
}

/// Each workload must have exercised the layer it is there for.
fn coverage(workload: &Workload, samples: &[&Sample], problems: &mut Vec<String>) {
    if samples.is_empty() {
        problems.push("no job completed".to_string());
        return;
    }
    let hit_ratio = samples.iter().filter(|s| s.cache_hit).count() as f64 / samples.len() as f64;
    let off = |want: &dyn Fn(&Sample) -> bool| samples.iter().filter(|s| !want(s)).count();
    let violation = match workload.kind {
        Kind::Clifford => {
            let n = off(&|s| s.engine == "tableau");
            (n > 0).then(|| format!("{n} jobs did not run on the tableau engine"))
        }
        Kind::StateVector => {
            let n = off(&|s| s.engine == "state_vector" && s.shards == 2);
            (n > 0).then(|| format!("{n} jobs did not run on state_vector in 2 shards"))
        }
        Kind::Variational => {
            (hit_ratio > 0.0).then(|| format!("cache hit ratio {hit_ratio} (expected 0)"))
        }
        Kind::Interactive => {
            (hit_ratio < 0.95).then(|| format!("cache hit ratio {hit_ratio} (expected >= 0.95)"))
        }
    };
    problems.extend(violation);
}

/// Lifecycle records of the traced phase's jobs and the warm-up jobs,
/// by job id.
fn lifecycles(
    handle: &ServiceHandle,
    phase: &Phase,
    warm_ids: &[u64],
) -> Result<HashMap<u64, JobLifecycle>, String> {
    phase
        .samples
        .iter()
        .map(|s| s.id)
        .chain(warm_ids.iter().copied())
        .map(|id| {
            handle
                .lifecycle(JobId(id))
                .map(|lc| (id, lc))
                .map_err(|e| format!("lifecycle of job {id}: {e}"))
        })
        .collect()
}

/// Where the service epoch sits on the benchmark clock. Each job was
/// admitted between its submit and the submit reply, so the epoch lies
/// in `[sent - admit_us, admitted - admit_us]` for every job; the
/// intersection over all jobs pins it to within a round trip.
fn service_epoch(phase: &Phase, lcs: &HashMap<u64, JobLifecycle>) -> Duration {
    let nanos = |d: Duration| d.as_nanos() as i128;
    let (mut lo, mut hi) = (i128::MIN, i128::MAX);
    for s in &phase.samples {
        if let Some(lc) = lcs.get(&s.id) {
            let admit = i128::from(lc.admit_us) * 1000;
            lo = lo.max(nanos(s.sent) - admit);
            hi = hi.min(nanos(s.admitted) - admit);
        }
    }
    let mid = if lo <= hi { (lo + hi) / 2 } else { hi };
    Duration::from_nanos(u64::try_from(mid.max(0)).unwrap_or(0))
}

fn build_trace(
    phase: &Phase,
    lcs: &HashMap<u64, JobLifecycle>,
    replays: &[(Duration, u64, Replay)],
) -> Trace {
    let epoch = service_epoch(phase, lcs);
    let at = |us: u64| epoch + Duration::from_micros(us);
    let mut t = Trace::default();
    for s in &phase.samples {
        let Some(lc) = lcs.get(&s.id) else { continue };
        let root = t.push("job", s.due, s.received, None, s.id);
        let admit = at(lc.admit_us);
        t.push("wire.submit", s.sent, admit, Some(root), s.id);
        if let Some(claim) = lc.claim_us.map(at) {
            t.push("service.queue", admit, claim, Some(root), s.id);
            if let Some(c) = lc.compile_us {
                t.push(
                    "service.compile",
                    claim,
                    claim + Duration::from_micros(c),
                    Some(root),
                    s.id,
                );
            }
        }
        if let (Some(exec), Some(settle)) = (lc.exec_start_us.map(at), lc.settle_us.map(at)) {
            t.push("service.execute", exec, settle, Some(root), s.id);
            t.push("wire.result", settle, s.received, Some(root), s.id);
        }
    }
    for (started, key, r) in replays {
        let total: Duration = r.stages.iter().map(|(_, d)| *d).sum();
        let root = t.push("replay", *started, *started + total, None, *key);
        let mut at = *started;
        for (name, d) in r.stages {
            t.push(name, at, at + d, Some(root), *key);
            at += d;
        }
    }
    t
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(values: Vec<f64>, pct: u32) -> Option<f64> {
    nearest_rank(&sorted(values), pct)
}

fn per_layer(
    untraced: &Phase,
    phase: &Phase,
    lcs: &HashMap<u64, JobLifecycle>,
    replays: &[(Duration, u64, Replay)],
) -> Values {
    // Service and wire times come from the jobs latency is measured on:
    // during the open loop's saturation phase, replies also wait in the
    // benchmark's own pipeline.
    let s: Vec<&Sample> = phase.samples.iter().filter(|x| !x.saturation).collect();
    let n = s.len().max(1) as f64;
    let us = |v: u64| v as f64 / 1e3;
    let stage = |i: usize| {
        percentile(
            replays.iter().map(|(_, _, r)| ms(r.stages[i].1)).collect(),
            50,
        )
    };
    let replay_mean = |f: &dyn Fn(&Replay) -> f64| {
        mean(&replays.iter().map(|(_, _, r)| f(r)).collect::<Vec<_>>())
    };
    let candidates = [
        (
            "service.submit_ms.p50",
            percentile(s.iter().map(|x| ms(x.admitted - x.sent)).collect(), 50),
        ),
        (
            "service.queue_wait_ms.p50",
            percentile(s.iter().map(|x| us(x.wait_us)).collect(), 50),
        ),
        (
            "service.queue_wait_ms.p99",
            percentile(s.iter().map(|x| us(x.wait_us)).collect(), 99),
        ),
        (
            "service.exec_ms.p50",
            percentile(s.iter().map(|x| us(x.exec_us)).collect(), 50),
        ),
        (
            "service.compile_ms.p50",
            percentile(
                lcs.values()
                    .filter_map(|lc| lc.compile_us)
                    .map(us)
                    .collect(),
                50,
            ),
        ),
        (
            "service.cache_hit_ratio",
            Some(s.iter().filter(|x| x.cache_hit).count() as f64 / n),
        ),
        ("service.cache_evictions", Some(phase.evictions as f64)),
        (
            "service.coalesced_ratio",
            Some(phase.coalesced as f64 / phase.samples.len().max(1) as f64),
        ),
        (
            "service.shards_mean",
            mean(&s.iter().map(|x| x.shards as f64).collect::<Vec<_>>()),
        ),
        (
            "wire.residual_ms.p50",
            percentile(
                s.iter()
                    .map(|x| {
                        let compile = lcs.get(&x.id).and_then(|lc| lc.compile_us).unwrap_or(0);
                        ms(x.received - x.sent) - us(x.wait_us + compile + x.exec_us)
                    })
                    .collect(),
                50,
            ),
        ),
        ("cqasm.parse_ms.p50", stage(0)),
        ("openql.compile_ms.p50", stage(1)),
        ("openql.swaps_mean", replay_mean(&|r| r.swaps as f64)),
        (
            "openql.gates_out_mean",
            replay_mean(&|r| r.gates_out as f64),
        ),
        ("plan.compile_ms.p50", stage(2)),
        ("plan.kernels_mean", replay_mean(&|r| r.kernels as f64)),
        ("engine.run_ms.p50", stage(4)),
        ("gen.lateness_ms.p99", phase.lateness_p99_ms()),
        (
            "trace.overhead_ratio",
            phase
                .jobs_per_s()
                .zip(untraced.jobs_per_s())
                .map(|(t, u)| t / u),
        ),
    ];
    candidates
        .into_iter()
        .filter_map(|(name, v)| v.map(|v| (name, v)))
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn open_loop_times_from_due_and_accounts_for_lateness() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let plan = OpenPlan {
            start: Duration::ZERO,
            interval: us(1000),
            fixed_end: us(8000),
            saturation: us(500),
        };
        let job = Job {
            circuit: Arc::from("qubits 1\n"),
            shots: 1,
            seed: 0,
            tenant: None,
            check: None,
        };
        let mut sent = Vec::new();
        // Jobs sent and not yet finished; the most of them at any send of
        // the saturation phase.
        let unfinished = Cell::new(0u64);
        let mut most_in_saturation = 0;
        let window = 3;
        let tally = submit_open(
            &clock,
            &plan,
            window,
            || job.clone(),
            |p| {
                // Job 2's write stalls for 3.5 ms; the rest take 100 us.
                let cost = if sent.len() == 2 { 3500 } else { 100 };
                clock.0.set(clock.0.get() + us(cost));
                if p.saturation {
                    most_in_saturation = most_in_saturation.max(unfinished.get() + 1);
                }
                unfinished.set(unfinished.get() + 1);
                sent.push(p);
                true
            },
            // A job finishes only when the submitter waits for one.
            |wait| {
                let done = u64::from(wait);
                unfinished.set(unfinished.get() - done);
                Some(done)
            },
        );
        // The paced jobs went out although none had finished; the
        // saturation phase kept at most `window` unfinished.
        assert_eq!(most_in_saturation, window);
        let fixed: Vec<&Sent> = sent.iter().filter(|p| !p.saturation).collect();
        assert_eq!(fixed.len(), 8);
        let late: Vec<u64> = tally
            .lateness
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        // Jobs 3..5 were due during the stall and go out as soon as the
        // submitter is back; job 6 is on time again.
        assert_eq!(late, [0, 0, 0, 2500, 1600, 700, 0, 0]);
        for (i, p) in fixed.iter().enumerate() {
            assert_eq!(p.due, us(1000) * i as u32);
            assert_eq!(p.sent - p.due, tally.lateness[i]);
        }
        // Latency counts from the due time, so the stall shows in the
        // jobs it delayed and not only in the one that hit it.
        let phase = Phase {
            samples: fixed
                .iter()
                .map(|p| Sample {
                    id: 0,
                    due: p.due,
                    sent: p.sent,
                    admitted: p.sent + us(100),
                    received: p.sent + us(150),
                    saturation: false,
                    cache_hit: true,
                    shards: 1,
                    wait_us: 0,
                    exec_us: 0,
                    engine: "tableau",
                })
                .collect(),
            ..Phase::default()
        };
        let lat = phase.latencies_ms();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Each job took 0.15 ms from its send; jobs 3 and 4, sent 2.5 and
        // 1.6 ms late, count 2.65 and 1.75 ms.
        assert!(close(lat[7], 2.65) && close(lat[6], 1.75), "{lat:?}");
        assert!(close(nearest_rank(&lat, 50).unwrap(), 0.15));
        // Saturation jobs follow back to back, each due when sent.
        assert_eq!(tally.saturation_start, us(7100));
        let sat: Vec<&Sent> = sent.iter().filter(|p| p.saturation).collect();
        assert_eq!(sat.len(), 5);
        assert!(sat.iter().all(|p| p.due == p.sent));
        assert_eq!(tally.attempted, 13);
    }
}

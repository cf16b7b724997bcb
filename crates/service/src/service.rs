//! The serving runtime: admission queue, coalescing scheduler, worker
//! pool, shot sharding and the in-process client handle.
//!
//! # Scheduling model
//!
//! Submission parses and content-hashes the circuit outside the
//! scheduler lock, then admits the job in one critical section: it
//! checks shutdown, global capacity and the tenant quota (a full queue
//! rejects with [`ServiceError::QueueFull`], an exhausted tenant with
//! [`ServiceError::TenantQuotaExceeded`] — backpressure, not buffering),
//! files the job record and pushes the job onto its tenant's priority
//! heap (higher priority first, FIFO within a priority). Workers dequeue
//! across tenants with a deficit-round-robin picker
//! ([`crate::tenant::DrrQueue`]), so no client can starve another.
//! Worker threads then:
//!
//! 1. **Coalesce** — every still-queued job with the same execution key
//!    (circuit hash + seed + shots + engine + model) is batched and served
//!    by this one execution.
//! 2. **Resolve the plan** — the content-addressed [`PlanCache`] either
//!    hands back a shared `Arc` (hit: no compile work, no compile span) or
//!    the worker compiles and inserts (miss).
//! 3. **Execute** — large state-vector sweeps are split into shot-range
//!    shards re-enqueued for the whole pool; per-shot counter-derived RNG
//!    streams make the merged histogram bit-identical to a single-worker
//!    run (see [`qxsim::Simulator::run_shot_range`]).
//!
//! Results are delivered through [`ServiceHandle::wait`]/`poll`; every
//! stage records telemetry (queue depth, wait vs execute latency, cache
//! hit rate, batch and shard sizes) into the service's
//! [`qca_telemetry::Telemetry`] context.

use crate::cache::{artifact_key, CacheStats, CompiledArtifact, PlanCache};
use crate::hash::Fnv64;
use crate::job::{Engine, JobId, JobLifecycle, JobOutcome, JobSpec, JobStatus, ServiceError};
use crate::snapshot::{self, SnapshotError, SnapshotReport};
use crate::tenant::{DrrQueue, TenantConfig};
use openql::{Compiler, CompilerOptions, Platform};
use qca_telemetry::{LogHistogram, Telemetry};
use qxsim::{ExecuteError, ShotHistogram, Simulator};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the service chooses the compile platform for each job.
#[derive(Debug, Clone)]
pub enum PlatformSpec {
    /// A fully-connected perfect platform sized to each circuit (the
    /// application-development default).
    PerfectSized,
    /// One fixed platform shared by every job (circuits must fit it).
    Fixed(Platform),
}

impl PlatformSpec {
    fn platform_for(&self, qubit_count: usize) -> Platform {
        match self {
            PlatformSpec::PerfectSized => Platform::perfect(qubit_count),
            PlatformSpec::Fixed(p) => p.clone(),
        }
    }
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (minimum 1).
    pub workers: usize,
    /// Admission queue capacity; submissions beyond it are rejected with
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Compiled-artifact cache capacity (entries).
    pub cache_capacity: usize,
    /// State-vector jobs with at least this many shots are split into
    /// per-worker shot-range shards.
    pub shard_min_shots: u64,
    /// Compile platform selection.
    pub platform: PlatformSpec,
    /// Compiler options applied to every job.
    pub options: CompilerOptions,
    /// Supervision budget: how many crashed workers the service will
    /// respawn over its lifetime. A panicking job is always converted
    /// into a typed failure; this budget only bounds pool healing, so a
    /// pathological workload cannot respawn-loop forever. If the budget
    /// runs out and the last worker dies, the service fails every queued
    /// job (instead of stranding waiters) and stops admission.
    pub max_respawns: u64,
    /// Chrome-trace span sampling: one job in `trace_sample_n` (chosen
    /// deterministically by content hash, `exec_key % n == 0`) emits
    /// per-stage lifecycle spans. `0` disables span emission entirely;
    /// `1` traces every job. Content-based sampling means the *same*
    /// jobs are traced on every run of a seeded workload.
    pub trace_sample_n: u64,
    /// Tenant lanes for the weighted fair dequeue. A `"default"` lane
    /// (weight 1, no quota) is always present; jobs naming no tenant or
    /// an unconfigured name land there. Empty = single-tenant service.
    pub tenants: Vec<TenantConfig>,
    /// Where to persist the plan cache across restarts. On start, a
    /// readable snapshot at this path warms the cache (sources are
    /// recompiled, so warm hits are bit-identical); a corrupt or
    /// version-skewed file is a typed warning and the cache starts cold.
    /// On shutdown the cache is snapshotted back. `None` disables
    /// persistence.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 64,
            shard_min_shots: 4096,
            platform: PlatformSpec::PerfectSized,
            options: CompilerOptions::default(),
            max_respawns: 8,
            trace_sample_n: 8,
            tenants: Vec::new(),
            snapshot_path: None,
        }
    }
}

/// Latency percentiles over everything the service has settled so far,
/// estimated from its internal [`LogHistogram`]s (~6% relative error).
/// All values are microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median admission-to-claim wait.
    pub queue_wait_p50_us: u64,
    /// 99th-percentile admission-to-claim wait.
    pub queue_wait_p99_us: u64,
    /// Median execution time (per attempt).
    pub execute_p50_us: u64,
    /// 99th-percentile execution time (per attempt).
    pub execute_p99_us: u64,
    /// Median end-to-end latency (admission to terminal state).
    pub e2e_p50_us: u64,
    /// 99th-percentile end-to-end latency.
    pub e2e_p99_us: u64,
    /// Jobs contributing to the end-to-end distribution.
    pub jobs_measured: u64,
}

/// TCP front-end counters (see `qca_service::tcp`), surfaced on
/// [`ServiceStats`] so they are queryable over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Connections shed at the accept loop (over `max_connections`).
    pub shed: u64,
    /// Frames rejected for exceeding `max_request_bytes`.
    pub oversized: u64,
    /// Connections dropped for stalling past a read/write timeout.
    pub timeouts: u64,
}

/// Per-tenant counters, surfaced on [`ServiceStats`] and the `stats`
/// wire verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStat {
    /// The tenant's configured name (`"default"` for the built-in lane).
    pub name: String,
    /// DRR weight in force for this lane.
    pub weight: u32,
    /// Queued-job quota, if one is configured.
    pub quota: Option<usize>,
    /// Jobs this tenant currently has queued.
    pub queued: usize,
    /// Jobs this tenant has had admitted.
    pub submitted: u64,
    /// Jobs this tenant has had finish successfully.
    pub completed: u64,
    /// Submissions shed for this tenant (global backpressure or its own
    /// quota).
    pub shed: u64,
}

/// A snapshot of service-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs rejected by backpressure.
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs failed (compile/execute/deadline).
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs that rode along in another job's batch.
    pub coalesced: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Worker threads (configured pool size).
    pub workers: usize,
    /// Worker threads currently alive (dips below `workers` while a
    /// crashed worker is being respawned, or permanently once the
    /// supervision budget is spent).
    pub workers_live: usize,
    /// Worker panics caught and converted into typed job failures.
    pub panics: u64,
    /// Crashed workers respawned by supervision.
    pub respawns: u64,
    /// Transient-failure retries scheduled (per job, per retry).
    pub retries_scheduled: u64,
    /// Jobs whose transient failures outlived their retry budget.
    pub retries_exhausted: u64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// Latency percentiles over settled jobs.
    pub latency: LatencySummary,
    /// TCP front-end counters (zero unless a `TcpServer` fronts this
    /// service).
    pub tcp: TcpStats,
    /// Per-tenant counters, in lane order (the `"default"` lane is
    /// always present).
    pub tenants: Vec<TenantStat>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    coalesced: u64,
    panics: u64,
    respawns: u64,
    retries_scheduled: u64,
    retries_exhausted: u64,
}

struct JobRecord {
    spec: JobSpec,
    program: cqasm::Program,
    platform: Platform,
    artifact_key: u64,
    exec_key: u64,
    /// Index of the tenant lane this job was admitted through (resolved
    /// once at submission; drives quota release and fair dequeue).
    lane: usize,
    submitted_at: Instant,
    status: JobStatus,
    /// Execution attempts started so far (incremented when a batch
    /// containing this job is claimed by a worker).
    attempts: u32,
    /// Whether this job emits lifecycle trace spans (deterministic 1-in-N
    /// by content hash; see [`ServiceConfig::trace_sample_n`]).
    sampled: bool,
    /// When the latest attempt was claimed by a worker.
    claimed_at: Option<Instant>,
    /// Compile time of the attempt that served this job (`None` on a
    /// plan-cache hit — no compile happened).
    compile_us: Option<u64>,
    /// When the latest attempt began executing.
    exec_started_at: Option<Instant>,
    /// When the job last settled (terminal state or retry scheduling).
    settled_at: Option<Instant>,
}

/// A failure plus whether retrying could help (injected faults and
/// worker loss are transient; compile errors and deadlines are not).
#[derive(Debug, Clone)]
struct Failure {
    error: ServiceError,
    transient: bool,
}

/// One shot-range shard of a sharded sweep, claimable by any worker.
struct ShardTask {
    sim: Simulator,
    artifact: Arc<CompiledArtifact>,
    /// (job id, attempt the job was claimed at) for every batch member.
    batch: Vec<(u64, u32)>,
    cache_hit: bool,
    compile_us: Option<u64>,
    shards: usize,
    exec_started: Instant,
    started_at: Instant,
    /// Resolved engine and circuit class, for the settled outcome.
    engine: &'static str,
    class: &'static str,
    merge: Mutex<ShardMerge>,
}

struct ShardMerge {
    histogram: ShotHistogram,
    remaining: usize,
    /// First failure observed by any shard; poisons the whole sweep.
    failure: Option<Failure>,
}

enum Item {
    Lead(JobId),
    Shard {
        task: Arc<ShardTask>,
        lo: u64,
        hi: u64,
    },
}

struct QueueEntry {
    priority: u8,
    seq: u64,
    item: Item,
}

/// A retry waiting out its backoff before re-entering the ready queue.
struct DelayedEntry {
    ready_at: Instant,
    /// Tenant lane the entry re-enters through (retries compete fairly
    /// like fresh work).
    lane: usize,
    entry: QueueEntry,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier sequence number.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct SchedState {
    /// Shot-range shards of sweeps already claimed — always dequeued
    /// before fresh leads, so started work finishes promptly.
    shards: BinaryHeap<QueueEntry>,
    /// Fresh leads and retries, one priority heap per tenant lane under
    /// the deficit-round-robin picker.
    ready: DrrQueue<QueueEntry>,
    /// Retries sleeping out their backoff (small; scanned linearly).
    delayed: Vec<DelayedEntry>,
    jobs: HashMap<u64, JobRecord>,
    /// Execution key → still-queued job ids, for coalescing.
    pending: HashMap<u64, Vec<u64>>,
    next_id: u64,
    next_seq: u64,
    /// Jobs queued across all tenants (admitted or requeued for retry,
    /// not yet claimed, cancelled or failed).
    queued: usize,
    /// Per-tenant counters, indexed like `Shared::lanes`.
    lane_counts: Vec<LaneCounts>,
    running: usize,
    /// Workers currently parked in `work_ready.wait`.
    sleepers: usize,
    /// Worker threads currently alive (spawn-accounted, exit-decremented).
    live_workers: usize,
    /// Remaining supervision budget for respawning crashed workers.
    respawns_left: u64,
    shutdown: bool,
    totals: Totals,
    /// Admission-to-claim wait per attempt.
    lat_queue_wait: LogHistogram,
    /// Compile time per cache miss.
    lat_compile: LogHistogram,
    /// Execution time per attempt.
    lat_execute: LogHistogram,
    /// Admission-to-terminal-state latency per job.
    lat_e2e: LogHistogram,
}

/// One tenant lane's counters.
#[derive(Debug, Default, Clone, Copy)]
struct LaneCounts {
    /// Jobs this tenant currently has queued (counted at admission,
    /// released at claim/cancel/expiry, counted again on retry).
    queued: usize,
    submitted: u64,
    completed: u64,
    shed: u64,
}

struct Shared {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    job_done: Condvar,
    cache: PlanCache,
    config: ServiceConfig,
    telemetry: Telemetry,
    /// Tenant lanes (weight clamped to at least 1), in DRR order. The
    /// `"default"` lane always exists.
    lanes: Vec<TenantConfig>,
    /// Tenant name → lane index.
    lane_index: HashMap<String, usize>,
    /// Lane for jobs naming no tenant (or an unknown one).
    default_lane: usize,
    /// What the warm start from `config.snapshot_path` accomplished:
    /// `None` when persistence is off or no snapshot file existed.
    warm: Option<Result<SnapshotReport, SnapshotError>>,
    /// When the service started; job lifecycle records report offsets
    /// from this epoch.
    epoch: Instant,
    /// TCP front-end counters, bumped by `note_tcp_*` from the accept
    /// loop and connection handlers (atomics: the TCP path must not
    /// contend on the scheduler lock).
    tcp_shed: AtomicU64,
    tcp_oversized: AtomicU64,
    tcp_timeouts: AtomicU64,
    /// Join handles for every live worker thread, including respawns.
    worker_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn handles(&self) -> MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
        match self.worker_handles.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Why a submission to `lane` must be refused right now, if it must.
    fn refusal(&self, state: &SchedState, lane: usize) -> Option<ServiceError> {
        if state.shutdown {
            return Some(ServiceError::ShuttingDown);
        }
        if state.queued >= self.config.queue_capacity {
            return Some(ServiceError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let tenant = &self.lanes[lane];
        let quota = tenant.quota?;
        (state.lane_counts[lane].queued >= quota).then(|| ServiceError::TenantQuotaExceeded {
            tenant: tenant.name.clone(),
            quota,
        })
    }
}

/// A cloneable client handle to a running [`Service`]: submit jobs, poll
/// or wait for results, cancel queued work, read stats.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

/// The serving runtime: owns the worker pool. Dropping the service (or
/// calling [`Service::shutdown`]) stops admission, drains the queue and
/// joins the workers; [`Service::shutdown_now`] fails queued jobs with a
/// typed error instead of draining.
pub struct Service {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.shared.config.workers)
            .finish()
    }
}

impl Service {
    /// Starts a service with default configuration.
    pub fn start() -> Self {
        Service::with_config(ServiceConfig::default())
    }

    /// Starts a service with the given configuration and a disabled
    /// telemetry context.
    pub fn with_config(config: ServiceConfig) -> Self {
        Service::with_telemetry(config, Telemetry::disabled())
    }

    /// Starts a service recording per-stage telemetry (queue depth, wait
    /// vs execute latency, cache hit rate, batch/shard sizes) into the
    /// given context.
    pub fn with_telemetry(mut config: ServiceConfig, telemetry: Telemetry) -> Self {
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let max_respawns = config.max_respawns;
        // Tenant lanes: configured tenants in order, plus the built-in
        // "default" lane if none of them claims the name.
        let mut tenant_cfgs = config.tenants.clone();
        if !tenant_cfgs.iter().any(|t| t.name == "default") {
            tenant_cfgs.push(TenantConfig::new("default", 1));
        }
        let mut lane_index = HashMap::new();
        let lanes: Vec<TenantConfig> = tenant_cfgs
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                lane_index.entry(t.name.clone()).or_insert(i);
                TenantConfig {
                    weight: t.weight.max(1),
                    ..t
                }
            })
            .collect();
        let default_lane = lane_index.get("default").copied().unwrap_or(0);
        let weights: Vec<u32> = lanes.iter().map(|l| l.weight).collect();
        // Warm the plan cache from the configured snapshot before any
        // worker can race a compile against the load.
        let cache = PlanCache::new(config.cache_capacity, telemetry.clone());
        let warm = config
            .snapshot_path
            .as_deref()
            .filter(|p| p.exists())
            .map(|p| warm_start(&cache, &config, &telemetry, p));
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                shards: BinaryHeap::new(),
                ready: DrrQueue::new(&weights),
                delayed: Vec::new(),
                jobs: HashMap::new(),
                pending: HashMap::new(),
                next_id: 1,
                next_seq: 0,
                queued: 0,
                lane_counts: vec![LaneCounts::default(); lanes.len()],
                running: 0,
                sleepers: 0,
                live_workers: 0,
                respawns_left: max_respawns,
                shutdown: false,
                totals: Totals::default(),
                lat_queue_wait: LogHistogram::new(),
                lat_compile: LogHistogram::new(),
                lat_execute: LogHistogram::new(),
                lat_e2e: LogHistogram::new(),
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            cache,
            config,
            telemetry,
            lanes,
            lane_index,
            default_lane,
            warm,
            epoch: Instant::now(),
            tcp_shed: AtomicU64::new(0),
            tcp_oversized: AtomicU64::new(0),
            tcp_timeouts: AtomicU64::new(0),
            worker_handles: Mutex::new(Vec::new()),
        });
        for i in 0..shared.config.workers {
            spawn_worker(&shared, &format!("qca-service-worker-{i}"));
        }
        Service { shared }
    }

    /// A client handle (cheap to clone, safe to share across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The service telemetry context.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Stops admission, drains the remaining queue and joins the workers.
    /// Every already-admitted job still runs to a terminal state.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Stops admission and fails every still-queued job (including
    /// retries sleeping out a backoff) with
    /// [`ServiceError::ShuttingDown`], then joins the workers. In-flight
    /// executions — including all shards of a sweep already started —
    /// finish normally, so every waiter reaches a terminal state.
    pub fn shutdown_now(mut self) {
        fail_queued_jobs(&self.shared, &ServiceError::ShuttingDown);
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        // Join until the pool is empty; a respawned worker registers its
        // handle before its predecessor exits, so looping to exhaustion
        // collects replacements too.
        loop {
            let handle = self.shared.handles().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => {
                    if self.shared.lock().live_workers == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        // Final sweep: shards a worker queued and then panicked out of
        // while its last sibling was already exiting have no worker left.
        // Fail them typed rather than strand their waiters.
        fail_queued_jobs(&self.shared, &ServiceError::ShuttingDown);
        if let Some(path) = self.shared.config.snapshot_path.clone() {
            match save_snapshot_to(&self.shared, &path) {
                Ok(n) => self
                    .shared
                    .telemetry
                    .incr("service.snapshot.saved_entries", n as u64),
                Err(_) => self
                    .shared
                    .telemetry
                    .incr("service.snapshot.save_failed", 1),
            }
        }
        self.shared.job_done.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl ServiceHandle {
    /// Submits a job: parses and content-hashes the circuit, then, in
    /// one scheduler-lock critical section, checks shutdown, capacity and
    /// the tenant quota, files the job and queues it on its tenant's lane.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] for invalid cQASM,
    /// [`ServiceError::QueueFull`] under global backpressure,
    /// [`ServiceError::TenantQuotaExceeded`] when the tenant's own quota
    /// is spent, [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServiceError> {
        let shared = &self.shared;
        let program =
            cqasm::Program::parse(&spec.circuit).map_err(|e| ServiceError::Parse(e.to_string()))?;
        // Canonical form: parse → pretty-print, so formatting differences
        // between submissions hash identically.
        let canonical = program.to_string();
        let platform = shared.config.platform.platform_for(program.qubit_count());
        let akey = artifact_key(&canonical, &platform, &shared.config.options, &spec.qubits);
        let exec_key = {
            let mut h = Fnv64::new();
            h.write(&akey.to_le_bytes());
            h.write(&spec.seed.to_le_bytes());
            h.write(&spec.shots.to_le_bytes());
            h.write_field(spec.engine.name());
            h.write_field(spec.force_engine.map_or("auto", |e| e.name()));
            // Retry policy and fault injection change execution behaviour,
            // so jobs differing in them must never coalesce. The tenant is
            // deliberately NOT hashed: identical work from different
            // tenants still deduplicates into one execution.
            h.write(&spec.retry.max_attempts.to_le_bytes());
            h.write(&spec.retry.backoff_base_ms.to_le_bytes());
            h.write(&spec.retry.jitter_seed.to_le_bytes());
            h.write(&spec.faults.panic_attempts.to_le_bytes());
            h.write(&spec.faults.fail_attempts.to_le_bytes());
            h.finish()
        };
        let lane = spec
            .tenant
            .as_deref()
            .and_then(|name| shared.lane_index.get(name))
            .copied()
            .unwrap_or(shared.default_lane);
        let priority = spec.priority;
        // Deterministic 1-in-N trace sampling by content hash: the same
        // jobs of a seeded workload are traced on every run.
        let sample_n = shared.config.trace_sample_n;
        let sampled = sample_n > 0 && exec_key % sample_n == 0;
        let record = JobRecord {
            spec,
            program,
            platform,
            artifact_key: akey,
            exec_key,
            lane,
            submitted_at: Instant::now(),
            status: JobStatus::Queued,
            attempts: 0,
            sampled,
            claimed_at: None,
            compile_us: None,
            exec_started_at: None,
            settled_at: None,
        };
        let tenant = &shared.lanes[lane].name;
        let mut guard = shared.lock();
        let state = &mut *guard;
        if let Some(err) = shared.refusal(state, lane) {
            // Backpressure is counted as a shed; a shutdown refusal is not.
            let shed = !matches!(err, ServiceError::ShuttingDown);
            if shed {
                state.totals.rejected += 1;
                state.lane_counts[lane].shed += 1;
            }
            drop(guard);
            shared.telemetry.incr("service.jobs.rejected", 1);
            if shed && shared.telemetry.is_enabled() {
                shared
                    .telemetry
                    .incr_labeled("service.tenant.shed", tenant, 1);
            }
            return Err(err);
        }
        let id = state.next_id;
        state.next_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queued += 1;
        state.totals.submitted += 1;
        state.lane_counts[lane].queued += 1;
        state.lane_counts[lane].submitted += 1;
        state.pending.entry(exec_key).or_default().push(id);
        state.jobs.insert(id, record);
        state.ready.push(
            lane,
            QueueEntry {
                priority,
                seq,
                item: Item::Lead(JobId(id)),
            },
        );
        let depth = state.queued;
        let wake = state.sleepers > 0;
        drop(guard);
        // A parked worker registered as a sleeper and entered `wait`
        // under the lock this submit just held, so this notify reaches it.
        if wake {
            shared.work_ready.notify_one();
        }
        shared.telemetry.incr("service.jobs.submitted", 1);
        if shared.telemetry.is_enabled() {
            shared
                .telemetry
                .incr_labeled("service.tenant.submitted", tenant, 1);
            shared
                .telemetry
                .record_value("service.queue.depth", depth as f64);
        }
        Ok(JobId(id))
    }

    /// The job's current status.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a ticket this service never issued.
    pub fn poll(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        self.shared
            .lock()
            .jobs
            .get(&id.0)
            .map(|r| r.status.clone())
            .ok_or(ServiceError::UnknownJob(id.0))
    }

    /// Blocks until the job reaches a terminal state (or `timeout`
    /// passes) and returns its outcome.
    ///
    /// # Errors
    ///
    /// The job's own failure, [`ServiceError::WaitTimeout`] on timeout,
    /// [`ServiceError::UnknownJob`] for a foreign ticket.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<Arc<JobOutcome>, ServiceError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            match state.jobs.get(&id.0) {
                None => return Err(ServiceError::UnknownJob(id.0)),
                Some(record) => match &record.status {
                    JobStatus::Done(outcome) => return Ok(Arc::clone(outcome)),
                    JobStatus::Failed(err) => return Err(err.clone()),
                    JobStatus::Cancelled => return Err(ServiceError::Cancelled),
                    JobStatus::Queued | JobStatus::Running => {}
                },
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::WaitTimeout);
            }
            let (guard, _result) = match self.shared.job_done.wait_timeout(state, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let pair = poisoned.into_inner();
                    (pair.0, pair.1)
                }
            };
            state = guard;
        }
    }

    /// Cancels a queued job. Returns `true` if the job was still queued
    /// (it will never run); `false` if it already started or finished.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a foreign ticket.
    pub fn cancel(&self, id: JobId) -> Result<bool, ServiceError> {
        let mut guard = self.shared.lock();
        let state = &mut *guard;
        let record = state
            .jobs
            .get_mut(&id.0)
            .ok_or(ServiceError::UnknownJob(id.0))?;
        if record.status != JobStatus::Queued {
            return Ok(false);
        }
        record.status = JobStatus::Cancelled;
        let now = Instant::now();
        record.settled_at = Some(now);
        let e2e_us = u64::try_from(
            now.saturating_duration_since(record.submitted_at)
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        let priority = record.spec.priority;
        state.queued -= 1;
        state.lane_counts[record.lane].queued -= 1;
        state.lat_e2e.record(e2e_us);
        state.totals.cancelled += 1;
        drop(guard);
        self.shared.telemetry.incr("service.jobs.cancelled", 1);
        if self.shared.telemetry.is_enabled() {
            let prio = priority.to_string();
            self.shared.telemetry.record_hist_labeled(
                "service.latency.e2e_us",
                &[("priority", &prio), ("outcome", "cancelled")],
                e2e_us,
            );
        }
        self.shared.job_done.notify_all();
        Ok(true)
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let state = self.shared.lock();
        let tenants = self
            .shared
            .lanes
            .iter()
            .zip(&state.lane_counts)
            .map(|(lane, counts)| TenantStat {
                name: lane.name.clone(),
                weight: lane.weight,
                quota: lane.quota,
                queued: counts.queued,
                submitted: counts.submitted,
                completed: counts.completed,
                shed: counts.shed,
            })
            .collect();
        ServiceStats {
            submitted: state.totals.submitted,
            rejected: state.totals.rejected,
            completed: state.totals.completed,
            failed: state.totals.failed,
            cancelled: state.totals.cancelled,
            coalesced: state.totals.coalesced,
            queued: state.queued,
            running: state.running,
            workers: self.shared.config.workers,
            workers_live: state.live_workers,
            panics: state.totals.panics,
            respawns: state.totals.respawns,
            retries_scheduled: state.totals.retries_scheduled,
            retries_exhausted: state.totals.retries_exhausted,
            cache: self.shared.cache.stats(),
            latency: LatencySummary {
                queue_wait_p50_us: state.lat_queue_wait.quantile(0.50),
                queue_wait_p99_us: state.lat_queue_wait.quantile(0.99),
                execute_p50_us: state.lat_execute.quantile(0.50),
                execute_p99_us: state.lat_execute.quantile(0.99),
                e2e_p50_us: state.lat_e2e.quantile(0.50),
                e2e_p99_us: state.lat_e2e.quantile(0.99),
                jobs_measured: state.lat_e2e.count(),
            },
            tcp: TcpStats {
                shed: self.shared.tcp_shed.load(Ordering::Relaxed),
                oversized: self.shared.tcp_oversized.load(Ordering::Relaxed),
                timeouts: self.shared.tcp_timeouts.load(Ordering::Relaxed),
            },
            tenants,
        }
    }

    /// What warming the cache from `snapshot_path` accomplished: `None`
    /// when persistence is off or no snapshot file existed at start,
    /// `Some(Err(..))` when the file was unreadable (the service still
    /// started, with a cold cache).
    pub fn warm_status(&self) -> Option<Result<SnapshotReport, SnapshotError>> {
        self.shared.warm.clone()
    }

    /// Snapshots the current plan cache to `path` (atomic tmp + rename),
    /// independent of the configured shutdown snapshot. Returns how many
    /// entries were written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be written.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        save_snapshot_to(&self.shared, path)
    }

    /// The job's lifecycle record: when it passed each stage (admit →
    /// claim → compile → execute → settle), as microsecond offsets from
    /// the service epoch, plus whether it was trace-sampled. Available
    /// for every known job at any stage — not-yet-reached stages read
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for a ticket this service never issued.
    pub fn lifecycle(&self, id: JobId) -> Result<JobLifecycle, ServiceError> {
        let epoch = self.shared.epoch;
        let offset = |at: Instant| -> u64 {
            u64::try_from(at.saturating_duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
        };
        let state = self.shared.lock();
        let record = state
            .jobs
            .get(&id.0)
            .ok_or(ServiceError::UnknownJob(id.0))?;
        Ok(JobLifecycle {
            job: id,
            sampled: record.sampled,
            status: record.status.name().to_string(),
            priority: record.spec.priority,
            attempts: record.attempts,
            admit_us: offset(record.submitted_at),
            claim_us: record.claimed_at.map(offset),
            compile_us: record.compile_us,
            exec_start_us: record.exec_started_at.map(offset),
            settle_us: record.settled_at.map(offset),
        })
    }

    /// Counts a connection shed by the TCP accept loop.
    pub fn note_tcp_shed(&self) {
        self.shared.tcp_shed.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.incr("service.tcp.shed", 1);
    }

    /// Counts a frame rejected for exceeding the size limit.
    pub fn note_tcp_oversized(&self) {
        self.shared.tcp_oversized.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.incr("service.tcp.oversized", 1);
    }

    /// Counts a connection dropped for stalling past a timeout.
    pub fn note_tcp_timeout(&self) {
        self.shared.tcp_timeouts.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.incr("service.tcp.timeouts", 1);
    }

    /// The service telemetry context.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }
}

/// Why a worker loop returned.
enum WorkerExit {
    /// The service is shutting down and the queue is drained.
    Shutdown,
    /// A job panicked under this worker. The job itself was settled (a
    /// typed failure or a scheduled retry), but the thread's state is
    /// suspect — supervision retires it and respawns a replacement.
    Panicked,
}

/// Whether one queue entry was processed cleanly or unwound.
enum StepOutcome {
    Done,
    Panicked,
}

/// Spawns one supervised worker thread and registers its handle. The
/// live-worker count is incremented here (not in the thread) so
/// supervision never observes a transient empty pool during a respawn.
fn spawn_worker(shared: &Arc<Shared>, name: &str) {
    let spawned = {
        let worker = Arc::clone(shared);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker_entry(&worker))
            .or_else(|_| {
                // Naming a thread can fail on exotic platforms; an
                // anonymous worker is better than a smaller pool.
                let worker = Arc::clone(shared);
                std::thread::Builder::new().spawn(move || worker_entry(&worker))
            })
    };
    if let Ok(handle) = spawned {
        shared.lock().live_workers += 1;
        shared.handles().push(handle);
    }
}

/// One worker thread's lifetime: run the loop; if a job panics, settle
/// it, retire this thread and respawn a replacement (budget permitting).
fn worker_entry(shared: &Arc<Shared>) {
    loop {
        match worker_loop(shared) {
            WorkerExit::Shutdown => break,
            WorkerExit::Panicked => {
                // The panic itself was already counted at the catch site
                // (before the job settled); here we only account for the
                // worker's retirement and replacement.
                let respawn = {
                    let mut state = shared.lock();
                    if !state.shutdown && state.respawns_left > 0 {
                        state.respawns_left -= 1;
                        state.totals.respawns += 1;
                        true
                    } else {
                        false
                    }
                };
                if respawn {
                    shared.telemetry.incr("service.workers.respawns", 1);
                    // A panic may have left thread state inconsistent:
                    // hand the slot to a fresh thread. spawn_worker
                    // increments live_workers only on success, so a
                    // failed spawn falls through to pool-death handling
                    // below via the next loop iteration... instead keep
                    // serving on this thread if the spawn failed.
                    let before = shared.lock().live_workers;
                    spawn_worker(shared, "qca-service-worker-respawn");
                    if shared.lock().live_workers > before {
                        break;
                    }
                    continue;
                }
                // Budget spent (or shutting down): this worker dies for
                // good. If it was the last one, fail everything queued so
                // no waiter is stranded forever.
                pool_collapse_if_last(shared);
                break;
            }
        }
    }
    shared.lock().live_workers -= 1;
}

/// If the exiting worker is the last live one, stop admission and fail
/// every queued job and orphaned shard: with no workers left they would
/// otherwise strand their waiters forever.
fn pool_collapse_if_last(shared: &Shared) {
    let last = shared.lock().live_workers == 1;
    if last {
        fail_queued_jobs(
            shared,
            &ServiceError::WorkerPanic {
                message: "worker pool exhausted its supervision budget".to_string(),
            },
        );
    }
}

/// Stops admission and fails every still-queued job (and undispatched
/// shard range) with `error`. In-flight work is untouched. Used by
/// [`Service::shutdown_now`] and pool-collapse handling.
fn fail_queued_jobs(shared: &Shared, error: &ServiceError) {
    let orphaned_shards = {
        let mut state = shared.lock();
        state.shutdown = true;
        let mut entries: Vec<QueueEntry> = state.shards.drain().collect();
        entries.extend(state.ready.drain_all());
        entries.extend(state.delayed.drain(..).map(|d| d.entry));
        // `pending` stays: a worker that popped a lead just before this
        // sweep claims it through `pending`, and claims skip failed ids.
        let mut orphans = Vec::new();
        let state = &mut *state;
        for entry in entries {
            match entry.item {
                Item::Shard { task, lo, hi } => orphans.push((task, lo, hi)),
                Item::Lead(id) => {
                    if let Some(record) = state.jobs.get_mut(&id.0) {
                        if record.status == JobStatus::Queued {
                            record.status = JobStatus::Failed(error.clone());
                            state.queued -= 1;
                            state.lane_counts[record.lane].queued -= 1;
                            state.totals.failed += 1;
                        }
                    }
                }
            }
        }
        orphans
    };
    shared.job_done.notify_all();
    // Orphaned shard ranges will never run: contribute a failure for each
    // so the sweep's merge count still reaches zero and the batch settles.
    for (task, _lo, _hi) in orphaned_shards {
        shard_done(
            shared,
            &task,
            Err(Failure {
                error: error.clone(),
                transient: false,
            }),
        );
    }
}

fn worker_loop(shared: &Shared) -> WorkerExit {
    loop {
        let Some(entry) = next_entry(shared) else {
            return WorkerExit::Shutdown;
        };
        let step = match entry.item {
            Item::Shard { task, lo, hi } => shard_step(shared, &task, lo, hi),
            Item::Lead(id) => lead_step(shared, id),
        };
        if matches!(step, StepOutcome::Panicked) {
            return WorkerExit::Panicked;
        }
    }
}

/// Warms the plan cache from an on-disk snapshot: each persisted source
/// is recompiled deterministically (same platform selection, options and
/// qubit model as live submissions), so subsequent cache hits serve
/// plans bit-identical to the run that wrote the snapshot. Compilation
/// here deliberately does *not* attach telemetry and emits no compile
/// span — a warm-started service serving a cached job must look exactly
/// like a hot cache, which is the observable warm-start criterion.
fn warm_start(
    cache: &PlanCache,
    config: &ServiceConfig,
    telemetry: &Telemetry,
    path: &Path,
) -> Result<SnapshotReport, SnapshotError> {
    let entries = snapshot::read_snapshot(path)?;
    let _span = telemetry.span("service", "warm_start");
    let total = entries.len();
    let mut loaded = 0usize;
    let mut skipped = 0usize;
    let mut rekeyed = 0usize;
    for entry in entries {
        let Ok(program) = cqasm::Program::parse(&entry.source) else {
            skipped += 1;
            continue;
        };
        let canonical = program.to_string();
        let platform = config.platform.platform_for(program.qubit_count());
        let Ok(out) =
            Compiler::with_options(platform.clone(), config.options).compile_cqasm(&program)
        else {
            skipped += 1;
            continue;
        };
        let Ok(plan) = Simulator::with_model(entry.qubits.to_model()).compile(&out.program) else {
            skipped += 1;
            continue;
        };
        let akey = artifact_key(&canonical, &platform, &config.options, &entry.qubits);
        if akey != entry.key {
            // The snapshot predates a compiler/platform change; the entry
            // is still usable, filed under its *current* key.
            rekeyed += 1;
        }
        cache.insert(
            akey,
            Arc::new(CompiledArtifact {
                cqasm: out.program,
                report: out.report,
                final_mapping: out.final_mapping,
                plan,
                source: canonical,
                qubits: entry.qubits,
            }),
        );
        loaded += 1;
    }
    telemetry.incr("service.snapshot.loaded_entries", loaded as u64);
    Ok(SnapshotReport {
        entries: total,
        loaded,
        skipped,
        rekeyed,
    })
}

/// Persists the plan cache to `path` (atomic tmp-file + rename), LRU
/// first so a capacity-bounded reload keeps the hottest entries.
/// Returns how many entries were written.
fn save_snapshot_to(shared: &Shared, path: &Path) -> Result<usize, SnapshotError> {
    let (entries, _skipped) = shared.cache.export_entries();
    let count = entries.len();
    snapshot::write_snapshot(path, &entries)?;
    Ok(count)
}

/// The failsafe cap on a worker's park time: a parked worker re-checks
/// the queues at least this often, whether or not a notify reached it.
const PARK_FAILSAFE: Duration = Duration::from_millis(50);

/// Pops the next runnable entry: promotes retries whose backoff elapsed,
/// serves claimed shards first and then the fair dequeue. Returns `None`
/// when the service is shut down and fully drained.
fn next_entry(shared: &Shared) -> Option<QueueEntry> {
    let mut state = shared.lock();
    loop {
        let now = Instant::now();
        let mut next_ready: Option<Instant> = None;
        let mut i = 0;
        while i < state.delayed.len() {
            // Under shutdown, backoffs are cut short so the drain finishes.
            if state.shutdown || state.delayed[i].ready_at <= now {
                let due = state.delayed.swap_remove(i);
                state.ready.push(due.lane, due.entry);
            } else {
                let at = state.delayed[i].ready_at;
                next_ready = Some(next_ready.map_or(at, |cur| cur.min(at)));
                i += 1;
            }
        }
        // Shards of already-claimed sweeps run before fresh leads: the
        // fair dequeue arbitrates admission, not completion of work the
        // pool already started.
        if let Some(entry) = state.shards.pop() {
            return Some(entry);
        }
        if let Some(entry) = state.ready.pop() {
            return Some(entry);
        }
        if state.shutdown {
            return None;
        }
        // Park. The lock is held from the empty check above until `wait`
        // releases it, so a submit either queued before that check or sees
        // this sleeper and notifies it.
        state.sleepers += 1;
        let wait = next_ready.map_or(PARK_FAILSAFE, |at| {
            at.saturating_duration_since(now).min(PARK_FAILSAFE)
        });
        state = match shared.work_ready.wait_timeout(state, wait) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
        state.sleepers -= 1;
    }
}

/// A claimed batch: everything the execution phases need, captured under
/// the lock so the panic-isolation boundary can settle the batch even if
/// execution unwinds.
struct Claim {
    /// (job id, attempt the job was claimed at) for every batch member.
    batch: Vec<(u64, u32)>,
    spec: JobSpec,
    program: cqasm::Program,
    platform: Platform,
    akey: u64,
    /// The lead job's attempt number (drives fault injection).
    attempt: u32,
    priority: u8,
    started_at: Instant,
}

/// How `run_claim` left the batch.
enum RunOutcome {
    /// Settled (delivered, failed or requeued for retry).
    Finished,
    /// Converted into a sharded sweep; the caller runs the first range.
    Sharded {
        task: Arc<ShardTask>,
        lo: u64,
        hi: u64,
    },
}

/// Handles a popped lead entry with panic isolation: claim the batch,
/// then run it under `catch_unwind` so a panicking job becomes a typed
/// failure (or a retry) for every waiter instead of a stranded batch.
fn lead_step(shared: &Shared, id: JobId) -> StepOutcome {
    let Some(claim) = claim_batch(shared, id) else {
        return StepOutcome::Done;
    };
    shared
        .telemetry
        .record_value("service.batch.jobs", claim.batch.len() as f64);
    if claim.batch.len() > 1 {
        shared
            .telemetry
            .incr("service.jobs.coalesced", (claim.batch.len() - 1) as u64);
    }
    match catch_unwind(AssertUnwindSafe(|| run_claim(shared, &claim))) {
        Ok(RunOutcome::Finished) => StepOutcome::Done,
        Ok(RunOutcome::Sharded { task, lo, hi }) => shard_step(shared, &task, lo, hi),
        Err(payload) => {
            count_panic(shared);
            settle_batch(
                shared,
                &claim.batch,
                Err(Failure {
                    error: ServiceError::WorkerPanic {
                        message: panic_message(payload.as_ref()),
                    },
                    transient: true,
                }),
                ExecMeta {
                    cache_hit: false,
                    compile_us: None,
                    shards: 1,
                    started_at: claim.started_at,
                    exec_started: claim.started_at,
                    engine: "none",
                    class: "unknown",
                },
            );
            StepOutcome::Panicked
        }
    }
}

/// Counts a caught job panic. Runs at the catch site, *before* the batch
/// settles, so an observer that saw the job's terminal state also sees
/// the panic in `stats`.
fn count_panic(shared: &Shared) {
    shared.telemetry.incr("service.workers.panics", 1);
    shared.lock().totals.panics += 1;
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Phase 1 (under the lock): validate, enforce the deadline, coalesce,
/// and bump each claimed job's attempt counter.
fn claim_batch(shared: &Shared, id: JobId) -> Option<Claim> {
    let mut guard = shared.lock();
    let state = &mut *guard;
    let record = state.jobs.get_mut(&id.0)?;
    // Cancelled, already served by an earlier batch, or already failed.
    if record.status != JobStatus::Queued {
        return None;
    }
    if let Some(deadline_ms) = record.spec.deadline_ms {
        if record.submitted_at.elapsed() >= Duration::from_millis(deadline_ms) {
            record.status = JobStatus::Failed(ServiceError::DeadlineExceeded { deadline_ms });
            state.queued -= 1;
            state.lane_counts[record.lane].queued -= 1;
            state.totals.failed += 1;
            drop(guard);
            shared.telemetry.incr("service.jobs.deadline_expired", 1);
            shared.job_done.notify_all();
            return None;
        }
    }
    let exec_key = record.exec_key;
    let spec = record.spec.clone();
    let program = record.program.clone();
    let platform = record.platform.clone();
    let akey = record.artifact_key;
    // Coalesce every still-queued job with the same execution key
    // (including this one) into one batch.
    let ids = state.pending.remove(&exec_key).unwrap_or_default();
    let mut batch = Vec::with_capacity(ids.len().max(1));
    let mut attempt = 1;
    let claim_now = Instant::now();
    for jid in ids {
        if let Some(r) = state.jobs.get_mut(&jid) {
            if r.status == JobStatus::Queued {
                r.status = JobStatus::Running;
                r.attempts += 1;
                r.claimed_at = Some(claim_now);
                if jid == id.0 {
                    attempt = r.attempts;
                }
                batch.push((jid, r.attempts));
                state.lane_counts[r.lane].queued -= 1;
            }
        }
    }
    if batch.is_empty() {
        return None;
    }
    state.running += batch.len();
    state.queued -= batch.len();
    state.totals.coalesced += (batch.len() - 1) as u64;
    let priority = spec.priority;
    let inflight = state.running;
    let depth = state.queued;
    drop(guard);
    // Sampled gauges: one observation per claim, so the min/max/mean of
    // queue depth and inflight jobs track load without a poller thread.
    shared
        .telemetry
        .record_value("service.queue.depth", depth as f64);
    shared
        .telemetry
        .record_value("service.jobs.inflight", inflight as f64);
    Some(Claim {
        batch,
        spec,
        program,
        platform,
        akey,
        attempt,
        priority,
        started_at: claim_now,
    })
}

/// Phases 2–3 (no lock): inject configured faults, resolve the compiled
/// artifact, execute (sharded or inline) and settle the batch. Runs
/// inside `lead_step`'s `catch_unwind`, so a panic anywhere in here —
/// injected or real — is converted into a typed failure.
fn run_claim(shared: &Shared, claim: &Claim) -> RunOutcome {
    let _exec_span = shared.telemetry.span("service", "execute");
    let spec = &claim.spec;
    // Deterministic fault hooks (chaos harness and tests).
    if claim.attempt <= spec.faults.fail_attempts {
        settle_batch(
            shared,
            &claim.batch,
            Err(Failure {
                error: ServiceError::Execute(format!(
                    "injected transient fault (attempt {})",
                    claim.attempt
                )),
                transient: true,
            }),
            ExecMeta {
                cache_hit: false,
                compile_us: None,
                shards: 1,
                started_at: claim.started_at,
                exec_started: claim.started_at,
                engine: "none",
                class: "unknown",
            },
        );
        return RunOutcome::Finished;
    }
    if claim.attempt <= spec.faults.panic_attempts {
        // Unwinds into lead_step's catch_unwind exactly like a real
        // kernel panic would (panic_any: this is fault injection, not an
        // abort path — clippy::panic stays deny for everything else).
        #[allow(clippy::panic)]
        std::panic::panic_any(format!("injected worker panic (attempt {})", claim.attempt));
    }

    // Resolve the compiled artifact.
    let artifact = shared.cache.get(claim.akey);
    let cache_hit = artifact.is_some();
    let mut compile_us = None;
    let artifact = match artifact {
        Some(found) => Ok(found),
        None => {
            let compile_started = Instant::now();
            let compiled = compile_artifact(shared, &claim.program, &claim.platform, spec);
            compile_us =
                Some(u64::try_from(compile_started.elapsed().as_micros()).unwrap_or(u64::MAX));
            compiled
        }
    };
    let artifact = match artifact {
        Ok(a) => a,
        Err(err) => {
            settle_batch(
                shared,
                &claim.batch,
                Err(Failure {
                    error: err,
                    transient: false,
                }),
                ExecMeta {
                    cache_hit: false,
                    compile_us: None,
                    shards: 1,
                    started_at: claim.started_at,
                    exec_started: claim.started_at,
                    engine: "none",
                    class: "unknown",
                },
            );
            return RunOutcome::Finished;
        }
    };

    // Execute. Auto dispatch routes each sweep to the cheapest engine
    // that is exact for the plan's circuit class; `force_engine` pins
    // one, and a pinned engine that cannot run the plan is a typed,
    // non-transient failure (pre-flighted here so sharded sweeps fail
    // the same way unsharded ones do). Density jobs run on the density
    // engine whichever field asks for it.
    let select = match (spec.engine, spec.force_engine) {
        (Engine::DensityMatrix, _) | (_, Some(Engine::DensityMatrix)) => {
            qxsim::EngineSelect::Density
        }
        (_, None) => qxsim::EngineSelect::Auto,
        (_, Some(Engine::StateVector)) => qxsim::EngineSelect::StateVector,
        (_, Some(Engine::Tableau)) => qxsim::EngineSelect::Tableau,
        (_, Some(Engine::PauliFrame)) => qxsim::EngineSelect::PauliFrame,
    };
    let sim = Simulator::with_model(spec.qubits.to_model())
        .with_seed(spec.seed)
        .with_engine_select(select);
    let class = artifact.plan.circuit_class().name();
    let exec_started = Instant::now();
    let engine = match sim.plan_engine(&artifact.plan) {
        Ok(resolved) => resolved.name(),
        Err(e) => {
            settle_batch(
                shared,
                &claim.batch,
                Err(execute_failure(&e)),
                ExecMeta {
                    cache_hit,
                    compile_us,
                    shards: 1,
                    started_at: claim.started_at,
                    exec_started,
                    engine: "none",
                    class,
                },
            );
            return RunOutcome::Finished;
        }
    };
    shared.telemetry.incr_labeled("service.engine", engine, 1);
    // Large sweeps shard across the pool, except density sweeps: every
    // shard would redo the full density evolution.
    let shards = if select != qxsim::EngineSelect::Density
        && shared.config.workers > 1
        && spec.shots >= shared.config.shard_min_shots
    {
        shared
            .config
            .workers
            .min(usize::try_from(spec.shots / shared.config.shard_min_shots.max(1)).unwrap_or(1))
    } else {
        1
    }
    .max(1);
    if shards > 1 {
        let task = Arc::new(ShardTask {
            sim,
            artifact,
            batch: claim.batch.clone(),
            cache_hit,
            compile_us,
            shards,
            exec_started,
            started_at: claim.started_at,
            engine,
            class,
            merge: Mutex::new(ShardMerge {
                histogram: ShotHistogram::new(),
                remaining: shards,
                failure: None,
            }),
        });
        {
            let mut state = shared.lock();
            for t in 1..shards {
                let lo = spec.shots * t as u64 / shards as u64;
                let hi = spec.shots * (t as u64 + 1) / shards as u64;
                let seq = state.next_seq;
                state.next_seq += 1;
                // Shards bypass the fair dequeue: they belong to a claim
                // the pool already admitted, so they go on the dedicated
                // shards heap every worker serves first.
                state.shards.push(QueueEntry {
                    priority: claim.priority,
                    seq,
                    item: Item::Shard {
                        task: Arc::clone(&task),
                        lo,
                        hi,
                    },
                });
            }
        }
        shared.work_ready.notify_all();
        shared
            .telemetry
            .record_value("service.batch.shards", shards as f64);
        // This worker takes the first shard itself (via shard_step, which
        // has its own panic boundary — a panic mid-shard must be recorded
        // in the merge so sibling shards can still settle the batch).
        return RunOutcome::Sharded {
            task,
            lo: 0,
            hi: spec.shots / shards as u64,
        };
    }
    let result = sim
        .run_shots_planned(&artifact.plan, spec.shots, 1)
        .map_err(|e| execute_failure(&e));
    settle_batch(
        shared,
        &claim.batch,
        result,
        ExecMeta {
            cache_hit,
            compile_us,
            shards: 1,
            started_at: claim.started_at,
            exec_started,
            engine,
            class,
        },
    );
    RunOutcome::Finished
}

/// Maps an engine error to a service failure, classifying transience:
/// injected faults and worker loss can succeed on retry; anything else
/// (validation, capacity) is deterministic and retrying cannot help.
fn execute_failure(e: &ExecuteError) -> Failure {
    Failure {
        error: ServiceError::Execute(e.to_string()),
        transient: matches!(
            e,
            ExecuteError::InjectedFault { .. } | ExecuteError::Worker(_)
        ),
    }
}

/// Compiles a cache miss under the service compile span and publishes the
/// artifact. The span exists *only* on this path: a warm cache emits no
/// compile span (the acceptance criterion for cached submissions).
fn compile_artifact(
    shared: &Shared,
    program: &cqasm::Program,
    platform: &Platform,
    spec: &JobSpec,
) -> Result<Arc<CompiledArtifact>, ServiceError> {
    let _span = shared.telemetry.span("service", "compile");
    let out = Compiler::with_options(platform.clone(), shared.config.options)
        .with_telemetry(shared.telemetry.clone())
        .compile_cqasm(program)
        .map_err(|e| ServiceError::Compile(e.to_string()))?;
    let plan = Simulator::with_model(spec.qubits.to_model())
        .compile(&out.program)
        .map_err(|e| ServiceError::Compile(e.to_string()))?;
    let artifact = Arc::new(CompiledArtifact {
        cqasm: out.program,
        report: out.report,
        final_mapping: out.final_mapping,
        plan,
        source: program.to_string(),
        qubits: spec.qubits,
    });
    let akey = artifact_key(
        &artifact.source,
        platform,
        &shared.config.options,
        &spec.qubits,
    );
    shared.cache.insert(akey, Arc::clone(&artifact));
    Ok(artifact)
}

/// Executes one shot-range shard under its own panic boundary and
/// contributes the partial histogram (or a failure) to the merge.
/// Merging is commutative, so completion order does not affect the
/// result; a panic in one shard fails the batch but the last-arriving
/// shard still settles it — no waiter is stranded.
fn shard_step(shared: &Shared, task: &Arc<ShardTask>, lo: u64, hi: u64) -> StepOutcome {
    let run = catch_unwind(AssertUnwindSafe(|| {
        task.sim.run_shot_range(&task.artifact.plan, lo, hi)
    }));
    match run {
        Ok(part) => {
            shard_done(shared, task, part.map_err(|e| execute_failure(&e)));
            StepOutcome::Done
        }
        Err(payload) => {
            count_panic(shared);
            shard_done(
                shared,
                task,
                Err(Failure {
                    error: ServiceError::WorkerPanic {
                        message: panic_message(payload.as_ref()),
                    },
                    transient: true,
                }),
            );
            StepOutcome::Panicked
        }
    }
}

/// Records one shard's contribution; the contribution that brings the
/// outstanding count to zero settles the whole batch (with the first
/// recorded failure, if any shard failed).
fn shard_done(
    shared: &Shared,
    task: &Arc<ShardTask>,
    contribution: Result<ShotHistogram, Failure>,
) {
    let settled = {
        let mut merge = match task.merge.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match contribution {
            Ok(part) => merge.histogram.merge(&part),
            Err(failure) => {
                if merge.failure.is_none() {
                    merge.failure = Some(failure);
                }
            }
        }
        merge.remaining -= 1;
        if merge.remaining == 0 {
            Some(match merge.failure.take() {
                Some(failure) => Err(failure),
                None => Ok(std::mem::take(&mut merge.histogram)),
            })
        } else {
            None
        }
    };
    if let Some(result) = settled {
        settle_batch(
            shared,
            &task.batch,
            result,
            ExecMeta {
                cache_hit: task.cache_hit,
                compile_us: task.compile_us,
                shards: task.shards,
                started_at: task.started_at,
                exec_started: task.exec_started,
                engine: task.engine,
                class: task.class,
            },
        );
    }
}

/// Timing/provenance for one settled execution.
struct ExecMeta {
    cache_hit: bool,
    /// Compile time, `None` on a cache hit (or when settlement happens
    /// before the compile stage — faults, panics, compile errors).
    compile_us: Option<u64>,
    shards: usize,
    started_at: Instant,
    exec_started: Instant,
    /// Wire name of the engine that executed the shots (`"none"` when
    /// settlement happened before dispatch).
    engine: &'static str,
    /// Circuit class of the compiled plan (`"unknown"` before compile).
    class: &'static str,
}

/// Delivers one execution's result to every job in its batch: success
/// and permanent failures become terminal states; transient failures
/// with retry budget left are requeued with deterministic backoff.
///
/// Settlement is idempotent per (job, attempt): a job whose attempt
/// counter moved on (already retried and reclaimed) or that is no
/// longer `Running` (cancelled) is skipped, so a late-arriving shard of
/// a superseded attempt cannot clobber newer state.
fn settle_batch(
    shared: &Shared,
    batch: &[(u64, u32)],
    result: Result<ShotHistogram, Failure>,
    meta: ExecMeta,
) {
    let settle_now = Instant::now();
    let exec_us = u64::try_from(
        settle_now
            .saturating_duration_since(meta.exec_started)
            .as_micros(),
    )
    .unwrap_or(u64::MAX);
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut retried = 0u64;
    let mut exhausted = 0u64;
    /// Per-job data carried out of the lock for telemetry emission.
    struct Settled {
        id: u64,
        priority: u8,
        outcome: &'static str,
        terminal: bool,
        wait_us: u64,
        e2e_us: u64,
        sampled: bool,
        submitted_at: Instant,
        lane: usize,
    }
    let mut settled: Vec<Settled> = Vec::new();
    {
        let mut guard = shared.lock();
        let state = &mut *guard;
        for &(id, attempt) in batch {
            let Some(record) = state.jobs.get_mut(&id) else {
                continue;
            };
            if record.status != JobStatus::Running || record.attempts != attempt {
                continue;
            }
            state.running -= 1;
            let wait_us = u64::try_from(
                meta.started_at
                    .saturating_duration_since(record.submitted_at)
                    .as_micros(),
            )
            .unwrap_or(u64::MAX);
            let e2e_us = u64::try_from(
                settle_now
                    .saturating_duration_since(record.submitted_at)
                    .as_micros(),
            )
            .unwrap_or(u64::MAX);
            // Lifecycle stamps for `ServiceHandle::lifecycle` / `trace`.
            if meta.compile_us.is_some() {
                record.compile_us = meta.compile_us;
            }
            record.exec_started_at = Some(meta.exec_started);
            record.settled_at = Some(settle_now);
            let priority = record.spec.priority;
            let sampled = record.sampled;
            let submitted_at = record.submitted_at;
            let lane = record.lane;
            state.lat_queue_wait.record(wait_us);
            state.lat_execute.record(exec_us);
            if let Some(c) = meta.compile_us {
                state.lat_compile.record(c);
            }
            shared
                .telemetry
                .record_value("service.job.wait_us", wait_us as f64);
            shared
                .telemetry
                .record_value("service.job.exec_us", exec_us as f64);
            match &result {
                Ok(histogram) => {
                    record.status = JobStatus::Done(Arc::new(JobOutcome {
                        histogram: histogram.clone(),
                        cache_hit: meta.cache_hit,
                        batch_size: batch.len(),
                        shards: meta.shards,
                        wait_us,
                        exec_us,
                        attempts: record.attempts,
                        engine: meta.engine,
                        class: meta.class,
                    }));
                    state.totals.completed += 1;
                    completed += 1;
                    state.lane_counts[lane].completed += 1;
                    state.lat_e2e.record(e2e_us);
                    settled.push(Settled {
                        id,
                        priority,
                        outcome: "ok",
                        terminal: true,
                        wait_us,
                        e2e_us,
                        sampled,
                        submitted_at,
                        lane,
                    });
                }
                Err(failure) => {
                    let retryable = failure.transient
                        && !state.shutdown
                        && record.attempts < record.spec.retry.max_attempts;
                    if retryable {
                        // Requeue for another attempt after a seeded
                        // backoff. The job keeps its id and spec, so the
                        // retried run replays identical RNG streams.
                        record.status = JobStatus::Queued;
                        let delay_ms = record.spec.retry.backoff_ms(record.attempts);
                        let priority = record.spec.priority;
                        state.queued += 1;
                        state.lane_counts[lane].queued += 1;
                        state.totals.retries_scheduled += 1;
                        retried += 1;
                        state.pending.entry(record.exec_key).or_default().push(id);
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        let entry = QueueEntry {
                            priority,
                            seq,
                            item: Item::Lead(JobId(id)),
                        };
                        if delay_ms == 0 {
                            state.ready.push(lane, entry);
                        } else {
                            state.delayed.push(DelayedEntry {
                                ready_at: Instant::now() + Duration::from_millis(delay_ms),
                                entry,
                                lane,
                            });
                        }
                        settled.push(Settled {
                            id,
                            priority,
                            outcome: "retried",
                            terminal: false,
                            wait_us,
                            e2e_us,
                            sampled,
                            submitted_at,
                            lane,
                        });
                    } else {
                        record.status = JobStatus::Failed(failure.error.clone());
                        state.totals.failed += 1;
                        failed += 1;
                        if failure.transient && record.spec.retry.max_attempts > 1 {
                            state.totals.retries_exhausted += 1;
                            exhausted += 1;
                        }
                        state.lat_e2e.record(e2e_us);
                        settled.push(Settled {
                            id,
                            priority,
                            outcome: "failed",
                            terminal: true,
                            wait_us,
                            e2e_us,
                            sampled,
                            submitted_at,
                            lane,
                        });
                    }
                }
            }
        }
    }
    // Latency histograms and sampled trace spans, outside the scheduler
    // lock. The disabled-telemetry path pays one branch and allocates
    // nothing (label strings are only built when enabled).
    if shared.telemetry.is_enabled() {
        for s in &settled {
            let prio = s.priority.to_string();
            let labels = [("priority", prio.as_str()), ("outcome", s.outcome)];
            shared.telemetry.record_hist_labeled(
                "service.latency.queue_wait_us",
                &labels,
                s.wait_us,
            );
            shared
                .telemetry
                .record_hist_labeled("service.latency.execute_us", &labels, exec_us);
            if let Some(c) = meta.compile_us {
                shared
                    .telemetry
                    .record_hist_labeled("service.latency.compile_us", &labels, c);
            }
            if s.terminal {
                shared
                    .telemetry
                    .record_hist_labeled("service.latency.e2e_us", &labels, s.e2e_us);
                if s.outcome == "ok" {
                    shared.telemetry.incr_labeled(
                        "service.tenant.completed",
                        &shared.lanes[s.lane].name,
                        1,
                    );
                }
            }
            if s.sampled && s.terminal {
                let id = s.id;
                let cat = "service.job";
                shared.telemetry.record_span_at(
                    cat,
                    &format!("job-{id}.queue_wait"),
                    s.submitted_at,
                    meta.started_at,
                );
                if let Some(c) = meta.compile_us {
                    if let Some(compile_started) =
                        meta.exec_started.checked_sub(Duration::from_micros(c))
                    {
                        shared.telemetry.record_span_at(
                            cat,
                            &format!("job-{id}.compile"),
                            compile_started,
                            meta.exec_started,
                        );
                    }
                }
                shared.telemetry.record_span_at(
                    cat,
                    &format!("job-{id}.execute"),
                    meta.exec_started,
                    settle_now,
                );
                shared.telemetry.record_span_at(
                    cat,
                    &format!("job-{id}.e2e"),
                    s.submitted_at,
                    settle_now,
                );
            }
        }
    }
    if completed > 0 {
        shared.telemetry.incr("service.jobs.completed", completed);
    }
    if failed > 0 {
        shared.telemetry.incr("service.jobs.failed", failed);
    }
    if retried > 0 {
        shared.telemetry.incr("service.retries.scheduled", retried);
        shared.work_ready.notify_all();
    }
    if exhausted > 0 {
        shared
            .telemetry
            .incr("service.retries.exhausted", exhausted);
    }
    shared.job_done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use qca_core::QubitKind;

    const BELL: &str = "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n";

    /// A circuit the fast paths cannot serve (the T gate keeps it off
    /// the stabilizer engines; mid-circuit measurement forces per-shot
    /// state-vector interpretation), used to keep the single worker busy
    /// while the test arranges the queue behind it.
    fn slow_circuit() -> String {
        let mut s = String::from("qubits 12\nt q[0]\n");
        for q in 0..12 {
            s.push_str(&format!("h q[{q}]\n"));
        }
        s.push_str("measure q[0]\n");
        for q in 0..12 {
            s.push_str(&format!("h q[{q}]\n"));
        }
        s.push_str("measure_all\n");
        s
    }

    fn single_worker(queue_capacity: usize) -> Service {
        Service::with_config(ServiceConfig {
            workers: 1,
            queue_capacity,
            ..ServiceConfig::default()
        })
    }

    /// Submits a slow job and blocks until the worker has dequeued it,
    /// so everything submitted next stays queued behind it.
    fn occupy_worker(handle: &ServiceHandle) -> JobId {
        let id = handle
            .submit(JobSpec::new(slow_circuit()).with_shots(400))
            .unwrap();
        while handle.stats().running == 0 {
            std::thread::yield_now();
        }
        id
    }

    fn wait(handle: &ServiceHandle, id: JobId) -> Arc<JobOutcome> {
        handle.wait(id, Duration::from_secs(60)).unwrap()
    }

    #[test]
    fn submit_wait_roundtrip_on_the_bell_state() {
        let service = single_worker(16);
        let handle = service.handle();
        let id = handle.submit(JobSpec::new(BELL).with_shots(500)).unwrap();
        let outcome = wait(&handle, id);
        assert_eq!(outcome.histogram.shots(), 500);
        for (bits, _) in outcome.histogram.iter() {
            assert!(bits == 0b00 || bits == 0b11, "non-Bell outcome {bits:#b}");
        }
        assert!(!outcome.cache_hit, "first submission must compile");
        assert_eq!(outcome.batch_size, 1);
        let stats = handle.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache.misses, 1);
        service.shutdown();
    }

    #[test]
    fn repeat_submission_hits_the_cache() {
        let service = single_worker(16);
        let handle = service.handle();
        let cold = wait(
            &handle,
            handle.submit(JobSpec::new(BELL).with_seed(7)).unwrap(),
        );
        // Same circuit in different formatting: canonicalisation makes it
        // the same artifact.
        let warm = wait(
            &handle,
            handle
                .submit(
                    JobSpec::new("qubits 2\n h  q[0]\ncnot q[0],q[1]\nmeasure_all\n").with_seed(7),
                )
                .unwrap(),
        );
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.histogram, warm.histogram, "seeded runs must agree");
        let stats = handle.stats();
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.hits, 1);
        service.shutdown();
    }

    #[test]
    fn invalid_circuits_are_rejected_at_submission() {
        let service = single_worker(4);
        let handle = service.handle();
        let err = handle.submit(JobSpec::new("qubits 1\nwarp q[0]\n"));
        assert!(matches!(err, Err(ServiceError::Parse(_))), "{err:?}");
        assert_eq!(handle.stats().submitted, 0);
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let service = single_worker(2);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        handle.submit(JobSpec::new(BELL).with_seed(1)).unwrap();
        handle.submit(JobSpec::new(BELL).with_seed(2)).unwrap();
        let err = handle.submit(JobSpec::new(BELL).with_seed(3));
        assert_eq!(err, Err(ServiceError::QueueFull { capacity: 2 }));
        assert_eq!(handle.stats().rejected, 1);
        wait(&handle, blocker);
        service.shutdown();
    }

    #[test]
    fn queued_jobs_can_be_cancelled_but_running_jobs_cannot() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        let queued = handle.submit(JobSpec::new(BELL)).unwrap();
        assert_eq!(handle.cancel(queued), Ok(true));
        assert_eq!(handle.poll(queued), Ok(JobStatus::Cancelled));
        assert_eq!(
            handle.wait(queued, Duration::from_secs(1)),
            Err(ServiceError::Cancelled)
        );
        assert_eq!(handle.cancel(blocker), Ok(false), "already running");
        wait(&handle, blocker);
        assert_eq!(handle.stats().cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn expired_deadlines_fail_instead_of_running() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        let doomed = handle
            .submit(JobSpec::new(BELL).with_deadline_ms(1))
            .unwrap();
        let err = handle.wait(doomed, Duration::from_secs(60));
        assert_eq!(err, Err(ServiceError::DeadlineExceeded { deadline_ms: 1 }));
        wait(&handle, blocker);
        let stats = handle.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        service.shutdown();
    }

    #[test]
    fn identical_queued_jobs_coalesce_into_one_execution() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        let spec = JobSpec::new(BELL).with_seed(11).with_shots(200);
        let ids: Vec<JobId> = (0..3)
            .map(|_| handle.submit(spec.clone()).unwrap())
            .collect();
        wait(&handle, blocker);
        let outcomes: Vec<Arc<JobOutcome>> = ids.iter().map(|&id| wait(&handle, id)).collect();
        for outcome in &outcomes {
            assert_eq!(outcome.batch_size, 3);
            assert_eq!(outcome.histogram, outcomes[0].histogram);
        }
        let stats = handle.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.completed, 4);
        // One compile for the blocker, one for the whole batch.
        assert_eq!(stats.cache.misses, 2);
        service.shutdown();
    }

    #[test]
    fn higher_priority_jobs_dequeue_first() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        // Distinct seeds so nothing coalesces; submitted low-to-high.
        let ids: Vec<JobId> = (0..4u8)
            .map(|p| {
                handle
                    .submit(JobSpec::new(BELL).with_seed(u64::from(p)).with_priority(p))
                    .unwrap()
            })
            .collect();
        wait(&handle, blocker);
        let waits: Vec<u64> = ids.iter().map(|&id| wait(&handle, id).wait_us).collect();
        for pair in waits.windows(2) {
            assert!(
                pair[0] > pair[1],
                "lower priority must wait longer: {waits:?}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn sharded_sweeps_match_the_single_worker_histogram() {
        let spec = JobSpec::new(BELL).with_seed(3).with_shots(20_000);
        let serial = Service::with_config(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let reference = wait(
            &serial.handle(),
            serial.handle().submit(spec.clone()).unwrap(),
        );
        assert_eq!(reference.shards, 1);
        serial.shutdown();
        let pooled = Service::with_config(ServiceConfig {
            workers: 4,
            shard_min_shots: 1000,
            ..ServiceConfig::default()
        });
        let sharded = wait(&pooled.handle(), pooled.handle().submit(spec).unwrap());
        assert!(sharded.shards > 1, "expected a sharded sweep");
        assert_eq!(
            reference.histogram, sharded.histogram,
            "sharding must be bit-identical to a single-worker run"
        );
        pooled.shutdown();
    }

    #[test]
    fn density_engine_jobs_run_unsharded() {
        let service = Service::with_config(ServiceConfig {
            workers: 4,
            shard_min_shots: 100,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let spec = JobSpec::new(BELL)
            .with_engine(Engine::DensityMatrix)
            .with_qubits(QubitKind::real_transmon())
            .with_shots(2000);
        let outcome = wait(&handle, handle.submit(spec).unwrap());
        assert_eq!(outcome.shards, 1, "density jobs must never shard");
        assert_eq!(outcome.histogram.shots(), 2000);
        service.shutdown();
    }

    #[test]
    fn clifford_jobs_dispatch_to_stabilizer_engines() {
        let service = single_worker(16);
        let handle = service.handle();
        // Terminal-measured Clifford -> Pauli-frame sampler.
        let bell = wait(&handle, handle.submit(JobSpec::new(BELL)).unwrap());
        assert_eq!(bell.engine, "pauli_frame");
        assert_eq!(bell.class, "clifford_terminal");
        assert_eq!(bell.histogram.count(0b01) + bell.histogram.count(0b10), 0);
        // Mid-circuit measurement -> tableau executor.
        let mid = "qubits 2\nh q[0]\nmeasure q[0]\nc-x b[0], q[1]\nmeasure_all\n";
        let mid = wait(&handle, handle.submit(JobSpec::new(mid)).unwrap());
        assert_eq!(mid.engine, "tableau");
        assert_eq!(mid.class, "clifford");
        // A T gate pins the job to the state-vector engine.
        let t = wait(
            &handle,
            handle
                .submit(JobSpec::new("qubits 1\nt q[0]\nmeasure_all\n"))
                .unwrap(),
        );
        assert_eq!(t.engine, "state_vector");
        assert_eq!(t.class, "general");
        service.shutdown();
    }

    #[test]
    fn forced_engine_mismatch_is_a_typed_failure() {
        let service = single_worker(16);
        let handle = service.handle();
        let forced =
            JobSpec::new("qubits 1\nt q[0]\nmeasure_all\n").with_force_engine(Engine::Tableau);
        let id = handle.submit(forced).unwrap();
        match handle.wait(id, Duration::from_secs(10)) {
            Err(ServiceError::Execute(msg)) => {
                assert!(msg.contains("engine mismatch"), "unexpected message: {msg}");
            }
            other => panic!("expected a typed execute error, got {other:?}"),
        }
        // Forcing the frame sampler onto a mid-circuit-measurement plan
        // fails the same way; forcing a matching engine succeeds.
        let mid = "qubits 2\nh q[0]\nmeasure q[0]\nc-x b[0], q[1]\nmeasure_all\n";
        let id = handle
            .submit(JobSpec::new(mid).with_force_engine(Engine::PauliFrame))
            .unwrap();
        assert!(matches!(
            handle.wait(id, Duration::from_secs(10)),
            Err(ServiceError::Execute(_))
        ));
        let ok = wait(
            &handle,
            handle
                .submit(JobSpec::new(mid).with_force_engine(Engine::Tableau))
                .unwrap(),
        );
        assert_eq!(ok.engine, "tableau");
        service.shutdown();
    }

    /// A GHZ chain over `n` qubits with a terminal measure run on the
    /// first `k`.
    fn ghz_source(n: usize, k: usize) -> String {
        let mut s = format!("qubits {n}\nh q[0]\n");
        for q in 0..n - 1 {
            s.push_str(&format!("cnot q[{q}], q[{}]\n", q + 1));
        }
        for q in 0..k {
            s.push_str(&format!("measure q[{q}]\n"));
        }
        s
    }

    #[test]
    fn thousand_qubit_ghz_serves_identically_at_any_worker_count() {
        // Far past MAX_SIM_QUBITS = 30: only the stabilizer path can
        // serve this, and its histogram must be bit-identical whether
        // the sweep runs unsharded or sharded 2 or 4 ways.
        let spec = JobSpec::new(ghz_source(1000, 32))
            .with_seed(5)
            .with_shots(2000);
        let mut histograms = Vec::new();
        for workers in [1, 2, 4] {
            let service = Service::with_config(ServiceConfig {
                workers,
                shard_min_shots: 500,
                ..ServiceConfig::default()
            });
            let handle = service.handle();
            let outcome = wait(&handle, handle.submit(spec.clone()).unwrap());
            assert_eq!(outcome.engine, "pauli_frame");
            assert_eq!(outcome.class, "clifford_terminal");
            assert_eq!(outcome.histogram.shots(), 2000);
            if workers > 1 {
                assert!(outcome.shards > 1, "expected a sharded sweep");
            }
            let all_ones = (1u64 << 32) - 1;
            assert_eq!(
                outcome.histogram.count(0) + outcome.histogram.count(all_ones),
                2000,
                "GHZ must only ever measure all-zeros or all-ones"
            );
            histograms.push(outcome.histogram.clone());
            service.shutdown();
        }
        assert_eq!(histograms[0], histograms[1]);
        assert_eq!(histograms[0], histograms[2]);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains_the_queue() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        let queued = handle.submit(JobSpec::new(BELL)).unwrap();
        service.shutdown();
        assert_eq!(
            handle.submit(JobSpec::new(BELL)),
            Err(ServiceError::ShuttingDown)
        );
        // Both in-flight and queued jobs finished before shutdown returned.
        assert!(handle.poll(blocker).unwrap().is_terminal());
        assert!(handle.poll(queued).unwrap().is_terminal());
    }

    #[test]
    fn a_lead_popped_just_before_shutdown_now_still_settles() {
        let service = single_worker(16);
        let handle = service.handle();
        let blocker = occupy_worker(&handle);
        let id = handle.submit(JobSpec::new(BELL)).unwrap();
        // Play a worker that popped the lead just before the sweep ran.
        let entry = next_entry(&service.shared).unwrap();
        assert!(matches!(entry.item, Item::Lead(popped) if popped == id));
        fail_queued_jobs(&service.shared, &ServiceError::ShuttingDown);
        lead_step(&service.shared, id);
        assert!(handle.poll(id).unwrap().is_terminal());
        wait(&handle, blocker);
        service.shutdown();
    }

    #[test]
    fn unknown_tickets_are_typed_errors() {
        let service = single_worker(4);
        let handle = service.handle();
        assert_eq!(handle.poll(JobId(999)), Err(ServiceError::UnknownJob(999)));
        assert_eq!(
            handle.cancel(JobId(999)),
            Err(ServiceError::UnknownJob(999))
        );
        assert_eq!(
            handle.wait(JobId(999), Duration::from_millis(10)),
            Err(ServiceError::UnknownJob(999))
        );
        service.shutdown();
    }
}

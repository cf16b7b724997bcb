//! qca-service: the accelerator serving runtime.
//!
//! Turns the single-shot [`qca_core::FullStack`] pipeline into a served
//! accelerator in the sense of the paper's full-stack architecture (the
//! quantum device as a co-processor behind a queue, not a library call):
//!
//! - **Content-addressed plan cache** ([`PlanCache`]): compiled artifacts
//!   keyed by FNV-1a over (canonical cQASM, platform, compiler options,
//!   qubit model); repeat submissions skip compilation entirely.
//! - **Job scheduler** ([`Service`]): bounded admission with priorities,
//!   per-job deadlines, cancellation and typed backpressure;
//!   identical queued jobs coalesce into one execution, and a per-tenant
//!   deficit-round-robin dequeue ([`tenant`]) keeps adversarial clients
//!   from starving each other.
//! - **Worker pool**: `std::thread` workers dispatch per-job engines
//!   (state-vector or density-matrix) and split large sweeps into
//!   shot-range shards whose merged histogram is bit-identical to a
//!   single-worker run.
//! - **Front-ends**: the in-process [`ServiceHandle`] and a
//!   newline-delimited-JSON TCP server ([`TcpServer`], the `qca-serve`
//!   binary).
//!
//! Std-only by design: no async runtime, no serde — one scheduler
//! `Mutex` + `Condvar` covers admission, dequeue, worker parking and
//! settlement, the wire format reuses `qca_telemetry`'s JSON, and the
//! plan cache can persist itself to a checksummed on-disk snapshot
//! ([`snapshot`]) for instant warm starts.
//!
//! ```
//! use qca_service::{JobSpec, Service};
//! use std::time::Duration;
//!
//! let service = Service::start();
//! let handle = service.handle();
//! let job = handle
//!     .submit(JobSpec::new("qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n"))
//!     .unwrap();
//! let outcome = handle.wait(job, Duration::from_secs(10)).unwrap();
//! assert_eq!(outcome.histogram.shots(), 1000);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod cache;
pub mod chaos;
pub mod hash;
pub mod job;
pub mod service;
pub mod snapshot;
pub mod tcp;
pub mod tenant;
pub mod wire;

pub use cache::{artifact_key, CacheStats, CompiledArtifact, PlanCache};
pub use hash::{fnv1a, Fnv64};
pub use job::{
    Engine, JobFaults, JobId, JobLifecycle, JobOutcome, JobSpec, JobStatus, RetryPolicy,
    ServiceError,
};
pub use service::{
    LatencySummary, PlatformSpec, Service, ServiceConfig, ServiceHandle, ServiceStats, TcpStats,
    TenantStat,
};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, SnapshotEntry, SnapshotError,
    SnapshotReport, SNAPSHOT_VERSION,
};
pub use tcp::{TcpConfig, TcpServer, MAX_REQUEST_BYTES};
pub use tenant::{DrrQueue, TenantConfig};

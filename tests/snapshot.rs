//! Plan-cache persistence tests: a service snapshotted on shutdown and
//! restarted from the snapshot serves the same job bit-identically from
//! a warm cache — without a single compile span — while corrupt,
//! truncated or version-skewed snapshot files degrade to a typed
//! warning and a cold start, never a panic.

use proptest::prelude::*;
use qca_core::QubitKind;
use qca_service::snapshot::{decode_snapshot, encode_snapshot, SnapshotEntry, SNAPSHOT_VERSION};
use qca_service::{JobSpec, Service, ServiceConfig, SnapshotError};
use qca_telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Duration;

const BELL: &str = "qubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n";
const GHZ4: &str =
    "qubits 4\nh q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\ncnot q[2], q[3]\nmeasure_all\n";

/// A unique snapshot path per test so parallel tests never collide;
/// removes any stale file from a previous aborted run.
fn snapshot_path(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "qca-test-snap-{}-{}.qpsn",
        std::process::id(),
        test
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn sample_entries() -> Vec<SnapshotEntry> {
    vec![
        SnapshotEntry {
            key: 0xDEAD_BEEF_0000_0001,
            qubits: QubitKind::Perfect,
            source: BELL.to_string(),
        },
        SnapshotEntry {
            key: 0xDEAD_BEEF_0000_0002,
            qubits: QubitKind::real_transmon(),
            source: GHZ4.to_string(),
        },
        SnapshotEntry {
            key: 3,
            qubits: QubitKind::Perfect,
            source: String::new(),
        },
    ]
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
fn encode_decode_is_the_identity() {
    let entries = sample_entries();
    let bytes = encode_snapshot(&entries);
    let back = decode_snapshot(&bytes).expect("a fresh encoding must decode");
    assert_eq!(back.len(), entries.len());
    for (a, b) in entries.iter().zip(&back) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.source, b.source);
        assert_eq!(a.qubits, b.qubits);
    }
}

/// The headline round trip: run a job, shut down (which snapshots the
/// plan cache), restart from the snapshot, run the same job again. The
/// warm run must be a cache hit, emit zero compile spans, and produce
/// the cold run's histogram bit for bit.
#[test]
fn restart_from_snapshot_serves_warm_hits_without_compiling() {
    let path = snapshot_path("roundtrip");
    let config = ServiceConfig {
        workers: 1,
        snapshot_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let spec = JobSpec::new(GHZ4).with_seed(4242).with_shots(5000);

    let cold_service = Service::with_config(config.clone());
    let handle = cold_service.handle();
    assert!(
        handle.warm_status().is_none(),
        "no snapshot exists yet: the first start must be cold"
    );
    let cold = handle
        .wait(
            handle.submit(spec.clone()).unwrap(),
            Duration::from_secs(120),
        )
        .unwrap();
    assert!(!cold.cache_hit);
    cold_service.shutdown();
    assert!(path.exists(), "shutdown must write the snapshot");

    let telemetry = Telemetry::enabled();
    let warm_service = Service::with_telemetry(config, telemetry.clone());
    let warm_handle = warm_service.handle();
    let report = warm_handle
        .warm_status()
        .expect("a snapshot was present, so warm status must be reported")
        .expect("a snapshot written by this build must load");
    assert!(
        report.loaded >= 1,
        "the job compiled before shutdown must be in the snapshot: {report:?}"
    );
    assert_eq!(report.skipped, 0, "nothing in this snapshot is skippable");

    let warm = warm_handle
        .wait(warm_handle.submit(spec).unwrap(), Duration::from_secs(120))
        .unwrap();
    assert!(
        warm.cache_hit,
        "the restarted service must serve the job from the warmed cache"
    );
    assert_eq!(
        compile_span_count(&telemetry),
        0,
        "a warm start must not emit a single compile span"
    );
    assert_eq!(
        cold.histogram, warm.histogram,
        "snapshot round trip must be bit-identical"
    );
    warm_service.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Every flavour of bad snapshot file — garbage, version skew, a flipped
/// body byte, truncation — yields a typed warm-status error and a
/// functioning cold service.
#[test]
fn bad_snapshots_degrade_to_a_typed_warning_and_a_cold_start() {
    let valid = encode_snapshot(&sample_entries());

    let mut skewed = valid.clone();
    skewed[4] = skewed[4].wrapping_add(1);

    let mut flipped = valid.clone();
    let mid = valid.len() / 2;
    flipped[mid] ^= 0x40;

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("garbage", b"not a snapshot at all".to_vec()),
        ("skewed", skewed),
        ("flipped", flipped),
        ("truncated", valid[..valid.len() - 5].to_vec()),
        ("empty", Vec::new()),
    ];
    for (name, bytes) in cases {
        let path = snapshot_path(&format!("bad-{name}"));
        std::fs::write(&path, &bytes).unwrap();
        let service = Service::with_config(ServiceConfig {
            workers: 1,
            snapshot_path: Some(path.clone()),
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        let status = handle
            .warm_status()
            .expect("a file was present, so warm status must be reported");
        let err = status.expect_err("a corrupt snapshot must not load");
        if name == "skewed" {
            assert!(
                matches!(
                    err,
                    SnapshotError::UnsupportedVersion {
                        supported: SNAPSHOT_VERSION,
                        ..
                    }
                ),
                "version skew must be named as such, got {err:?}"
            );
        }
        // The service itself is unharmed: it starts cold and serves.
        let result = handle
            .wait(
                handle.submit(JobSpec::new(BELL).with_seed(1)).unwrap(),
                Duration::from_secs(120),
            )
            .unwrap();
        assert!(!result.cache_hit, "{name}: a bad snapshot must start cold");
        service.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any single-byte change to a valid snapshot is detected: magic,
    /// version and checksum between them cover every byte of the file,
    /// so a mutated file always decodes to a typed error — and an
    /// unchanged one to the original entries.
    #[test]
    fn any_real_single_byte_mutation_is_detected(at_frac in 0usize..10_000, flip in 0u8..=255) {
        let entries = sample_entries();
        let valid = encode_snapshot(&entries);
        let at = at_frac % valid.len();
        let mut bytes = valid.clone();
        bytes[at] ^= flip;
        let decoded = decode_snapshot(&bytes);
        if flip == 0 {
            prop_assert!(decoded.is_ok(), "unchanged bytes must decode");
        } else {
            prop_assert!(
                decoded.is_err(),
                "flipping byte {at} with {flip:#04x} went undetected"
            );
        }
    }

    /// Multi-byte corruption and truncation never panic the decoder: it
    /// returns entries or a typed error for every input.
    #[test]
    fn shredded_snapshots_never_panic_the_decoder(
        mutations in proptest::collection::vec((0usize..10_000, (0u8..=255)), 0..16),
        cut_frac in 0usize..=100,
    ) {
        let valid = encode_snapshot(&sample_entries());
        let mut bytes = valid.clone();
        for (at, val) in mutations {
            let at = at % bytes.len();
            bytes[at] = val;
        }
        bytes.truncate(valid.len() * cut_frac / 100);
        match decode_snapshot(&bytes) {
            Ok(entries) => {
                // Plausible only when the mutations reassembled a valid
                // file; the entries must still respect declared bounds.
                prop_assert!(entries.len() <= qca_service::snapshot::MAX_SNAPSHOT_ENTRIES as usize);
            }
            Err(e) => {
                // Typed, and displayable without panicking.
                let _ = e.to_string();
            }
        }
    }

    /// Raw random bytes — no valid scaffold at all — also never panic.
    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        match decode_snapshot(&bytes) {
            Ok(_) => {}
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

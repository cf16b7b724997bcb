//! Versioned on-disk snapshots of the plan cache.
//!
//! A snapshot persists the cache's *sources*, not its compiled plans:
//! each entry is the canonical cQASM text plus the qubit model and the
//! FNV artifact key it was cached under. On warm start the service
//! recompiles each source — compilation is deterministic, so the warmed
//! cache is bit-identical to the one that was saved, and the format
//! survives compiler evolution (a plan layout change would invalidate
//! serialized plans; sources just recompile).
//!
//! ## Format (little-endian throughout)
//!
//! ```text
//! magic    b"QPSN"                          4 bytes
//! version  u32                              4 bytes   (currently 1)
//! count    u32                              4 bytes
//! entry*   key u64 | qubits u8 | len u32 | source bytes (UTF-8)
//! footer   FNV-1a-64 of all preceding bytes 8 bytes
//! ```
//!
//! The trailing checksum covers everything before it, so any byte flip
//! or truncation is detected before entries are trusted; every decode
//! failure is a typed [`SnapshotError`], never a panic — a service
//! pointed at a damaged snapshot starts with a cold cache and a warning.

use crate::hash::Fnv64;
use qca_core::QubitKind;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every snapshot file ("Quantum Plan SNapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"QPSN";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Caps on a single entry's source text and on the entry count —
/// defensive bounds so a crafted length field cannot drive huge
/// allocations before the entry bytes are validated.
pub const MAX_SNAPSHOT_SOURCE_BYTES: usize = 4 << 20;
/// Maximum entries a snapshot may declare.
pub const MAX_SNAPSHOT_ENTRIES: u32 = 1 << 20;

/// One persisted cache entry: enough to recompile the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The artifact key the entry was cached under when saved (sanity-
    /// checked against the recomputed key at load; a mismatch means the
    /// platform/options config changed and the entry is re-keyed).
    pub key: u64,
    /// The qubit model the plan was lowered for.
    pub qubits: QubitKind,
    /// The canonical cQASM source text.
    pub source: String,
}

/// Why a snapshot failed to load. Every variant is a warning-grade
/// condition: the service continues with an empty cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(String),
    /// The file is shorter than its declared contents.
    Truncated {
        /// Bytes the declared contents require.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's version is not one this build reads.
    UnsupportedVersion {
        /// Version declared by the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The trailing checksum does not match the contents (bit rot or a
    /// partial write).
    ChecksumMismatch,
    /// An entry's fields are internally inconsistent (only reachable for
    /// files that pass the checksum, i.e. crafted input).
    EntryCorrupt {
        /// Index of the offending entry.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot io: {m}"),
            SnapshotError::Truncated { expected, found } => {
                write!(
                    f,
                    "snapshot truncated: need {expected} bytes, found {found}"
                )
            }
            SnapshotError::BadMagic => write!(f, "snapshot has wrong magic bytes"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::EntryCorrupt { index, reason } => {
                write!(f, "snapshot entry {index} corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a warm start accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Entries present in the snapshot file.
    pub entries: usize,
    /// Entries recompiled and inserted into the cache.
    pub loaded: usize,
    /// Entries skipped because they no longer compile (e.g. source from
    /// a build with different dialect support).
    pub skipped: usize,
    /// Entries whose recomputed key differed from the stored one
    /// (platform/options drift since the save) — still loaded, under the
    /// fresh key.
    pub rekeyed: usize,
}

fn qubits_tag(qubits: &QubitKind) -> u8 {
    match qubits {
        QubitKind::Perfect => 0,
        _ => 1,
    }
}

fn qubits_from_tag(tag: u8) -> Option<QubitKind> {
    match tag {
        0 => Some(QubitKind::Perfect),
        1 => Some(QubitKind::real_transmon()),
        _ => None,
    }
}

/// Whether an entry with this qubit model can round-trip through a
/// snapshot (custom noise models have no stable tag and are skipped at
/// save time).
pub fn snapshot_representable(qubits: &QubitKind) -> bool {
    matches!(qubits, QubitKind::Perfect) || *qubits == QubitKind::real_transmon()
}

/// Serializes entries into the snapshot byte format (header, entries,
/// trailing checksum). Entries whose model is not
/// [`snapshot_representable`] must be filtered by the caller.
pub fn encode_snapshot(entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(12 + 8 + entries.iter().map(|e| 13 + e.source.len()).sum::<usize>());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for entry in entries {
        out.extend_from_slice(&entry.key.to_le_bytes());
        out.push(qubits_tag(&entry.qubits));
        out.extend_from_slice(&(entry.source.len() as u32).to_le_bytes());
        out.extend_from_slice(entry.source.as_bytes());
    }
    let mut h = Fnv64::new();
    h.write(&out);
    let checksum = h.finish();
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Decodes snapshot bytes, verifying magic, version and checksum before
/// trusting any entry.
///
/// # Errors
///
/// A typed [`SnapshotError`] describing the first problem found; never
/// panics on malformed input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    if bytes.len() < 12 + 8 {
        return Err(SnapshotError::Truncated {
            expected: 12 + 8,
            found: bytes.len(),
        });
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = read_u32(bytes, 4).unwrap_or(0);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let body_len = bytes.len() - 8;
    let mut h = Fnv64::new();
    h.write(&bytes[..body_len]);
    let declared = read_u64(bytes, body_len).unwrap_or(0);
    if h.finish() != declared {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let count = read_u32(bytes, 8).unwrap_or(0);
    if count > MAX_SNAPSHOT_ENTRIES {
        return Err(SnapshotError::EntryCorrupt {
            index: 0,
            reason: format!("entry count {count} exceeds limit"),
        });
    }
    let mut entries = Vec::with_capacity(count.min(1024) as usize);
    let mut at = 12usize;
    for index in 0..count as usize {
        let key = read_u64(bytes, at).ok_or(SnapshotError::Truncated {
            expected: at + 8,
            found: body_len,
        })?;
        let tag = *bytes.get(at + 8).ok_or(SnapshotError::Truncated {
            expected: at + 9,
            found: body_len,
        })?;
        let qubits = qubits_from_tag(tag).ok_or_else(|| SnapshotError::EntryCorrupt {
            index,
            reason: format!("unknown qubit-model tag {tag}"),
        })?;
        let len = read_u32(bytes, at + 9).ok_or(SnapshotError::Truncated {
            expected: at + 13,
            found: body_len,
        })? as usize;
        if len > MAX_SNAPSHOT_SOURCE_BYTES {
            return Err(SnapshotError::EntryCorrupt {
                index,
                reason: format!("source length {len} exceeds limit"),
            });
        }
        let start = at + 13;
        let end = start.saturating_add(len);
        if end > body_len {
            return Err(SnapshotError::Truncated {
                expected: end,
                found: body_len,
            });
        }
        let source = std::str::from_utf8(&bytes[start..end])
            .map_err(|e| SnapshotError::EntryCorrupt {
                index,
                reason: format!("source is not UTF-8: {e}"),
            })?
            .to_string();
        entries.push(SnapshotEntry {
            key,
            qubits,
            source,
        });
        at = end;
    }
    if at != body_len {
        return Err(SnapshotError::EntryCorrupt {
            index: count as usize,
            reason: format!("{} trailing bytes after last entry", body_len - at),
        });
    }
    Ok(entries)
}

/// Writes a snapshot atomically: serialize to `<path>.tmp`, fsync-free
/// rename into place — a crash mid-write leaves the previous snapshot
/// (or nothing) intact, never a half-written file under `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the temp file cannot be written or renamed.
pub fn write_snapshot(path: &Path, entries: &[SnapshotEntry]) -> Result<usize, SnapshotError> {
    let bytes = encode_snapshot(entries);
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", tmp.display()));
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(&bytes).map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| SnapshotError::Io(format!("rename to {}: {e}", path.display())))?;
    Ok(entries.len())
}

/// Reads and decodes a snapshot file.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read, otherwise any
/// [`decode_snapshot`] error.
pub fn read_snapshot(path: &Path) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    let bytes =
        std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                key: 0xDEAD_BEEF,
                qubits: QubitKind::Perfect,
                source: "qubits 1\nh q[0]\nmeasure_all\n".to_string(),
            },
            SnapshotEntry {
                key: 42,
                qubits: QubitKind::real_transmon(),
                source: "qubits 2\nx q[1]\n".to_string(),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let entries = sample_entries();
        let bytes = encode_snapshot(&entries);
        assert_eq!(decode_snapshot(&bytes).unwrap(), entries);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode_snapshot(&[]);
        assert_eq!(decode_snapshot(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_snapshot(&sample_entries());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flipping byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_snapshot(&sample_entries());
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut bytes = encode_snapshot(&sample_entries());
        bytes[0] = b'X';
        assert_eq!(
            decode_snapshot(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );

        // A future version with a valid checksum must be rejected as
        // version skew, not corruption.
        let mut future = encode_snapshot(&sample_entries());
        future[4] = 2;
        let body = future.len() - 8;
        let mut h = Fnv64::new();
        h.write(&future[..body]);
        let sum = h.finish().to_le_bytes();
        future[body..].copy_from_slice(&sum);
        assert_eq!(
            decode_snapshot(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn write_and_read_through_a_file() {
        let path =
            std::env::temp_dir().join(format!("qca-snapshot-test-{}.bin", std::process::id()));
        let entries = sample_entries();
        assert_eq!(write_snapshot(&path, &entries).unwrap(), 2);
        assert_eq!(read_snapshot(&path).unwrap(), entries);
        let _ = std::fs::remove_file(&path);
    }
}
